"""Run perfbench in two or more checkouts, seed by seed, and write the record.

For each workload and seed the checkouts run one after another, as separate
processes of their own unchanged ``perfbench/run.py``; the order rotates from
seed to seed, so with two checkouts each side runs first in half the pairs.
The record gives, per checkout, every run's metrics and failure counts, each
metric's median and quartiles over the seeds, and, for each later checkout,
how many seeds it beat the first one on.  It also states the machine (CPU
count, Python and numpy versions) and the git commit of each checkout.

Usage (from the repository root):
    python3 scripts/bench_record.py --checkout parent=../parent --checkout change=. \\
        --workload exit --workload geometry --seeds 1-10 --seconds 35 --out BENCH_6.json

The benchmark's metrics are all "lower is better", so a win is a strictly
lower value; ties count for neither side.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = ("setup_s", "op_s", "peak_rss_mib")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", action="append", required=True, metavar="NAME=DIR",
                   help="a checkout to run; the first one is the baseline (repeat)")
    p.add_argument("--workload", action="append", required=True, help="workload name (repeat)")
    p.add_argument("--seeds", default="1-10", help="'a-b' or a comma list (default 1-10)")
    p.add_argument("--seconds", type=float, default=35.0, help="timed loop length per run")
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
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {}
    for item in args.checkout:
        name, _, path = item.partition("=")
        checkouts[name] = Path(path).resolve()
    names = list(checkouts)
    seeds = parse_seeds(args.seeds)
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
        runs = {name: [] for name in names}
        orders = []
        for i, seed in enumerate(seeds):
            order = names[i % len(names):] + names[:i % len(names)]
            orders.append(order)
            for name in order:
                res = run_once(checkouts[name], workload, seed, args.seconds)
                runs[name].append(res)
                vals = {m: res["metrics"].get(m, {}).get("value") for m in METRICS}
                print(f"{workload} seed {seed} {name}: {vals} failed {res['failed']}"
                      f"/{res['attempted']} correct {res['correct']}", file=sys.stderr)
        entry = {"seeds": seeds, "order": orders, "per_seed": {}, "summary": {}, "wins": {}}
        for name in names:
            per = {m: [r["metrics"].get(m, {}).get("value") for r in runs[name]] for m in METRICS}
            per["attempted"] = [r["attempted"] for r in runs[name]]
            per["failed"] = [r["failed"] for r in runs[name]]
            per["correct"] = [r["correct"] for r in runs[name]]
            entry["per_seed"][name] = per
            entry["summary"][name] = {m: summary(per[m]) for m in METRICS
                                      if None not in per[m]}
        base = entry["per_seed"][names[0]]
        for name in names[1:]:
            other = entry["per_seed"][name]
            entry["wins"][name] = {
                m: sum(1 for x, y in zip(base[m], other[m])
                       if x is not None and y is not None and y < x)
                for m in METRICS
            }
        record["workloads"][workload] = entry
        # written after every workload, so a cut run keeps what it measured
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
