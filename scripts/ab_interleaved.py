"""Time one perfbench workload of two checkouts in one process, interleaved.

Each checkout's ``src/`` (traceform) and ``perfbench/`` (the workload, its
oracle and its tracer) are imported under a module set of their own: before
each turn the modules of the side about to run are put in ``sys.modules``
and the other side's taken out, so each side runs its own code.  Nothing is
written into either checkout: no bytecode, and the workloads' run
directories are temporary.  Each side sets up once, from ``--seed``, and
runs one checked warm-up operation.  Then each round runs ``--ops``
operations on each side, the side that goes first alternating from round to
round, and keeps each side's fastest operation; a round's ratio is B's
minimum over A's.

On a shared machine the speed of one process against the next can swing by
more than a change's gain; sides interleaved in one process see the same
swings.  This is a quick A/B for development: the benchmark's record is
made by ``bench_record.py``, one process per run, as the benchmark runs.

Usage (from the repository root):
    python3 scripts/ab_interleaved.py ../parent . --workload geometry --rounds 20 --ops 5
"""

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

WORKLOADS = {"geometry": "geometry", "exit": "exits", "walk": "walk", "cli": "cli"}
OWN = ("traceform", "workloads", "oracle", "spans", "calibrate", "probe")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="checkout A, the baseline")
    p.add_argument("b", help="checkout B")
    p.add_argument("--workload", choices=WORKLOADS, default="geometry")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--ops", type=int, default=5, help="operations per side per round")
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args(argv)


def _own_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] in OWN}


class Side:
    """One checkout's modules, workload state and tracer."""

    def __init__(self, name: str, checkout: Path, workload: str, seed: int, workdir: Path):
        self.name = name
        for key in _own_modules():
            del sys.modules[key]
        sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
        try:
            self.workload = importlib.import_module(f"workloads.{WORKLOADS[workload]}")
            spans = importlib.import_module("spans")
            program = importlib.import_module("traceform")
        finally:
            del sys.path[:2]
        if not Path(program.__file__).resolve().is_relative_to(checkout / "src"):
            raise SystemExit(f"{name}: traceform came from {program.__file__}, not {checkout}")
        self.modules = _own_modules()
        self.tracer = spans.Tracer(False)
        self.state = self.workload.setup(seed, workdir, self.tracer)
        self.workload.operation(self.state, self.tracer)

    def run(self, ops: int) -> float:
        """The fastest of ``ops`` operations, in seconds, with this side's modules."""
        for key in _own_modules():
            del sys.modules[key]
        sys.modules.update(self.modules)
        times = []
        for _ in range(ops):
            t = time.perf_counter()
            self.workload.operation(self.state, self.tracer)
            times.append(time.perf_counter() - t)
        return min(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side(name, Path(path).resolve(), args.workload, args.seed, Path(tmp) / name)
                 for name, path in (("A", args.a), ("B", args.b))]
        ratios = []
        for r in range(args.rounds):
            order = sides if r % 2 == 0 else sides[::-1]
            mins = {side.name: side.run(args.ops) for side in order}
            ratios.append(mins["B"] / mins["A"])
            print(f"round {r + 1} ({order[0].name} first): A {mins['A']:.5f} s, "
                  f"B {mins['B']:.5f} s, B/A {ratios[-1]:.3f}", flush=True)
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1
                      else ratios * 3)
    print(f"{args.workload}: B/A median {median:.3f} (quartiles {q1:.3f} to {q3:.3f}) "
          f"over {len(ratios)} rounds of {args.ops} operations per side")
    return 0


if __name__ == "__main__":
    sys.exit(main())
