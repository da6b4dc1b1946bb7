"""Benchmark for traceform: four workloads, each timed end to end and per module.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 35 --trace 0

Run from the repository root; traceform is imported from ``src/``. One run is
one process and one workload. It sets up SETUP_REPS times (inputs drawn from
``--seed``, sets and files built, one untimed and checked warm-up operation),
then runs checked operations one at a time, each waiting for the last, until
``--seconds`` have passed. A reference kernel runs after every set-up and
every operation, and ``setup_s`` and ``op_s`` are given in reference seconds,
which cancel the machine's speed drift (``calibrate.py``). The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, every per-layer
metric with ``--trace 1``. ``--workload all`` runs the four workloads one
after another, each in its own process.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("geometry", "exit", "walk", "cli")
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else done.stderr.strip()}", flush=True)
        rc = rc or done.returncode
    return rc


def import_program():
    """Import traceform from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    try:
        import traceform
    except ImportError as exc:
        raise SystemExit(f"cannot import traceform from {src}: {exc}")
    if not Path(traceform.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"traceform was imported from {traceform.__file__}, not from {src}")
    from workloads import cli, exits, geometry, walk
    return {"geometry": geometry, "exit": exits, "walk": walk, "cli": cli}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    modules = import_program()
    import_s = time.perf_counter() - T_START

    import calibrate
    import probe
    from oracle import CheckFailed
    from spans import Tracer
    from traceform.errors import TraceformError
    from workloads.cli import OperationFailed

    wl = modules[args.workload]
    tracer = Tracer(bool(args.trace))
    untraced = Tracer(False)
    run_dir = HERE / "_run" / f"{args.workload}-{os.getpid()}"
    correct, attempted, failed = True, 0, 0
    op_times, op_ref, setups, setup_ref, kernels = [], [], [], [], []
    try:
        for rep in range(SETUP_REPS):
            t = time.perf_counter()
            tracer.begin_op(f"setup{rep}")
            shutil.rmtree(run_dir, ignore_errors=True)
            state = wl.setup(args.seed, run_dir / args.workload, tracer)
            wl.operation(state, untraced)
            wall = (time.perf_counter() - T_START if rep == 0
                    else import_s + time.perf_counter() - t)
            kernels.append(calibrate.kernel(wl.KERNEL))
            setups.append(wall)
            setup_ref.append(calibrate.to_reference(wl.KERNEL, wall, *kernels[-2:]))

        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            tracer.begin_op(f"op{attempted}")
            attempted += 1
            t = time.perf_counter()
            try:
                with tracer.span("bench.op"):
                    wl.operation(state, tracer)
                wall = time.perf_counter() - t
            except (TraceformError, RuntimeError, OperationFailed) as exc:
                failed += 1
                wall = None
                print(f"operation {attempted} failed: {exc!r}", file=sys.stderr)
            kernels.append(calibrate.kernel(wl.KERNEL))
            if wall is not None:
                op_times.append(wall)
                op_ref.append(calibrate.to_reference(wl.KERNEL, wall, kernels[-2], kernels[-1]))

        if args.trace:
            # one operation of every other workload, so that every layer is measured
            for name, other in modules.items():
                if name == args.workload:
                    continue
                tracer.begin_op(f"side-setup:{name}")
                side = other.setup(args.seed, run_dir / name, tracer)
                tracer.begin_op(f"side:{name}")
                with tracer.span("bench.side_op"):
                    other.operation(side, tracer)
    except CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not correct or not op_times:
        print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                          "metrics": {}}))
        return 1

    op_s = statistics.median(op_ref)
    setup_s = statistics.median(setup_ref)
    print(f"{args.workload}: op_s {op_s:.4f} reference s over {len(op_ref)} operations, "
          f"wall {statistics.median(op_times):.4f} s (min {min(op_times):.4f}, "
          f"max {max(op_times):.4f}); setup_s {setup_s:.4f} reference s, "
          f"wall {[round(s, 3) for s in setups]}; {wl.KERNEL} kernel "
          f"{statistics.median(kernels):.4f} s (min {min(kernels):.4f}, max {max(kernels):.4f}, "
          f"reference {calibrate.KERNELS[wl.KERNEL][1]} s)")
    if args.trace:
        values = tracer.medians()
        values["bench.traced_op_s"] = op_s
        values["bench.kernel_s"] = statistics.median(kernels)
        values["bench.op_self_s"] = values.pop("bench.op_s")
        values.update(probe.run())
        units = {"bench.traced_op_s": "s", "bench.op_self_s": "s", "bench.kernel_s": "s",
                 **probe.LAYER_METRICS}
        for module in modules.values():
            units.update(module.LAYER_METRICS)
        missing = sorted(set(units) - set(values))
        if missing:
            raise SystemExit(f"per-layer metrics not measured: {missing}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        tracer.write(HERE / "_traces" / f"{args.workload}-seed{args.seed}.json")
        wall = values["simulate.estimate_hitting_s"] + values["simulate.estimate_laplace_s"]
        print(f"exit estimates: {values['simulate.exit_cpu_s']:.3f} CPU s over {wall:.3f} wall s")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
