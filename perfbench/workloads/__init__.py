"""Workloads of the traceform benchmark: geometry, exit, walk and cli."""
