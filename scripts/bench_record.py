"""Run perfbench in two or more checkouts, seed by seed, and write the record.

For each workload and seed the checkouts run one after another, as separate
processes of their own unchanged ``perfbench/run.py``; the order rotates from
seed to seed, so with two checkouts each side runs first in half the pairs.
The record gives, per checkout, every run's metrics and failure counts, each
metric's median and quartiles over the seeds, and, for each later checkout,
how many seeds it beat the first one on.  It also states the machine (CPU
count, Python and numpy versions) and the git commit of each checkout.

Separate processes can differ in speed by more than a change's gain, so
after a workload's per-process runs the checkouts are also timed in this one
process, interleaved, where they see the same swings.  Each checkout's
``src/`` and ``perfbench/`` are imported under a module set of its own, put
in ``sys.modules`` before each of its turns.  There is one round per seed:
each checkout sets up from the seed and runs one checked warm-up operation,
then they take turns in that seed's order, each turn keeping the fastest of
``ROUND_OPS`` operations.  The ``interleaved`` entry holds each round's
fastest seconds per checkout and each later checkout's per-round ratio to the
first, with their median and quartiles.  This part writes nothing into a
checkout: no bytecode, and temporary run directories.  ``--seconds 0`` skips
the per-process runs, for a quick A/B.

Usage (from the repository root):
    python3 scripts/bench_record.py --checkout parent=../parent --checkout change=. \\
        --workload exit --workload geometry --seeds 1-10 --seconds 35 --out BENCH_6.json

The benchmark's metrics are all "lower is better", so a win is a strictly
lower value; ties count for neither side.
"""

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

METRICS = ("setup_s", "op_s", "peak_rss_mib")
ROUND_OPS = 5
WORKLOADS = {"geometry": "geometry", "exit": "exits", "walk": "walk", "cli": "cli"}
OWN = ("traceform", "workloads", "oracle", "spans", "calibrate", "probe")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", action="append", required=True, metavar="NAME=DIR",
                   help="a checkout to run; the first one is the baseline (repeat)")
    p.add_argument("--workload", action="append", required=True, choices=WORKLOADS,
                   help="workload name (repeat)")
    p.add_argument("--seeds", default="1-10", help="'a-b' or a comma list (default 1-10)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="timed loop length per run; 0 records the interleaved rounds alone")
    p.add_argument("--out", required=True, help="JSON record to write")
    return p.parse_args(argv)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def git_sha(path: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", str(path), "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("-dirty" if dirty else "")


def run_once(path: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["returncode"] = proc.returncode
    if proc.returncode != 0:
        result["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def per_process(checkouts: dict, workload: str, seeds: list, orders: list,
                seconds: float) -> dict:
    """Each checkout's own ``perfbench/run.py``, one process per run."""
    names = list(checkouts)
    runs = {name: [] for name in names}
    for seed, order in zip(seeds, orders):
        for name in order:
            res = run_once(checkouts[name], workload, seed, seconds)
            runs[name].append(res)
            vals = {m: res["metrics"].get(m, {}).get("value") for m in METRICS}
            print(f"{workload} seed {seed} {name}: {vals} failed {res['failed']}"
                  f"/{res['attempted']} correct {res['correct']}", file=sys.stderr)
    entry = {"per_seed": {}, "summary": {}, "wins": {}}
    for name in names:
        per = {m: [r["metrics"].get(m, {}).get("value") for r in runs[name]] for m in METRICS}
        per["attempted"] = [r["attempted"] for r in runs[name]]
        per["failed"] = [r["failed"] for r in runs[name]]
        per["correct"] = [r["correct"] for r in runs[name]]
        entry["per_seed"][name] = per
        entry["summary"][name] = {m: summary(per[m]) for m in METRICS if None not in per[m]}
    base = entry["per_seed"][names[0]]
    for name in names[1:]:
        other = entry["per_seed"][name]
        entry["wins"][name] = {
            m: sum(1 for x, y in zip(base[m], other[m])
                   if x is not None and y is not None and y < x)
            for m in METRICS
        }
    return entry


def _own_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] in OWN}


class Side:
    """One checkout's modules, workload state and tracer."""

    def __init__(self, name: str, checkout: Path, workload: str, seed: int, workdir: Path):
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


def interleaved(checkouts: dict, workload: str, seeds: list, orders: list) -> dict:
    """One round per seed, the checkouts taking turns in one process."""
    names = list(checkouts)
    fastest = {name: [] for name in names}
    for seed, order in zip(seeds, orders):
        with tempfile.TemporaryDirectory() as tmp:
            sides = {name: Side(name, path, workload, seed, Path(tmp) / name)
                     for name, path in checkouts.items()}
            for name in order:
                fastest[name].append(sides[name].run(ROUND_OPS))
            del sides  # this round's states go before the next round's set up
        print(f"{workload} seed {seed} interleaved: "
              + ", ".join(f"{name} {fastest[name][-1]:.5f} s" for name in order), file=sys.stderr)
    ratios = {name: [y / x for x, y in zip(fastest[names[0]], fastest[name])]
              for name in names[1:]}
    return {"ops_per_turn": ROUND_OPS, "fastest_s": fastest,
            "ratio": {name: {"per_round": r, **summary(r)} for name, r in ratios.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {}
    for item in args.checkout:
        name, _, path = item.partition("=")
        checkouts[name] = Path(path).resolve()
    names = list(checkouts)
    seeds = parse_seeds(args.seeds)
    orders = [names[i % len(names):] + names[:i % len(names)] for i in range(len(seeds))]
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g}",
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "checkouts": {name: {"git_sha": git_sha(path)} for name, path in checkouts.items()},
        "baseline": names[0],
        "workloads": {},
    }
    for workload in args.workload:
        entry = record["workloads"][workload] = {"seeds": seeds, "order": orders}
        if args.seconds > 0:
            entry.update(per_process(checkouts, workload, seeds, orders, args.seconds))
        entry["interleaved"] = interleaved(checkouts, workload, seeds, orders)
        # written after every workload, so a cut run keeps what it measured
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
