"""The helper scripts under scripts/."""

import fcntl
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env(tmp_path):
    return dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))


DEMOS = {
    "feller_ladder": (["--widths", "0.5", "--decades", "2"], "d,alpha,numeric,limit"),
    "hitting_battery": (["--cases", "3", "--paths", "2000"], "a,b,x0,estimate,stderr,truth,z"),
    "darning_occupation": (["--horizon", "200", "--burn-in", "20"],
                           "atom,mass,occupied,stderr,chain_stationary"),
}


@pytest.mark.parametrize("script", DEMOS)
def test_demo_script_writes_its_csv(tmp_path, script):
    """Each demo script runs on small arguments and writes its CSV, by
    default into the working directory."""
    args, header = DEMOS[script]
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / f"{script}.py"), *args],
                          env=_env(tmp_path), capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{script}.csv").read_text().splitlines()[0] == header


def test_output_digest_runs_one_at_a_time(tmp_path):
    """A digest started while another holds the lock exits 1 with one line,
    before it writes anything; its fixed work directory is left alone."""
    env = _env(tmp_path)
    out = tmp_path / "digest.txt"
    with open(tmp_path / "traceform-output-digest.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "output_digest.py"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "another run" in proc.stderr
    assert not out.exists() and not (tmp_path / "traceform-output-digest").exists()


def test_output_digest_imports_its_own_checkout(tmp_path):
    """The digest imports the traceform of its own checkout, whatever
    ``PYTHONPATH`` holds: a package of that name there that raises on import
    is never reached, and the run gets as far as the lock."""
    fake = tmp_path / "elsewhere" / "traceform"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("raise ImportError('the traceform on PYTHONPATH')\n")
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=str(fake.parent))
    with open(tmp_path / "traceform-output-digest.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "output_digest.py"),
             "--out", str(tmp_path / "digest.txt")],
            env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "another run" in proc.stderr


def test_bench_record_interleaves_two_checkouts_read_only(tmp_path):
    """With ``--seconds 0``, two copies of this checkout are timed in one
    process, a round per seed in the rotated order: each side imports its
    own traceform (the script refuses another), the record gets each round's
    ratio with their median and quartiles, and nothing is written into
    either copy."""
    skip = shutil.ignore_patterns("__pycache__", "_run", "_traces")
    for name in ("a", "b"):
        for part in ("src", "perfbench"):
            shutil.copytree(REPO_ROOT / part, tmp_path / name / part, ignore=skip)
    before = sorted(p for p in tmp_path.rglob("*"))
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_record.py"),
         "--checkout", "a=a", "--checkout", "b=b", "--workload", "geometry",
         "--seeds", "1-2", "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["workloads"]["geometry"]
    assert sorted(entry) == ["interleaved", "order", "seeds"]
    assert entry["order"] == [["a", "b"], ["b", "a"]]
    rounds = entry["interleaved"]
    assert rounds["ops_per_turn"] == 5
    assert [len(rounds["fastest_s"][name]) for name in ("a", "b")] == [2, 2]
    ratio = rounds["ratio"]["b"]
    assert len(ratio["per_round"]) == 2 and list(ratio) == ["per_round", "median", "q1", "q3"]
    assert ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert sorted(p for p in tmp_path.rglob("*")) == sorted(before + [out])


def test_bench_record_takes_one_seed(tmp_path):
    """One seed gives one round, whose ratio is its own median and quartiles."""
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_record.py"),
         "--checkout", f"a={REPO_ROOT}", "--checkout", f"b={REPO_ROOT}",
         "--workload", "geometry", "--seeds", "1", "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    ratio = json.loads(out.read_text())["workloads"]["geometry"]["interleaved"]["ratio"]["b"]
    assert ratio["median"] == ratio["q1"] == ratio["q3"] == ratio["per_round"][0]


def test_bench_record_runs_every_process_before_any_round(tmp_path, monkeypatch):
    """A child's peak RSS starts at the recording process's own peak, which
    the interleaved rounds raise past a workload's, so every workload's
    per-process runs come before the first round."""
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # the script sets it
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  REPO_ROOT / "scripts" / "bench_record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    steps = []
    monkeypatch.setattr(record, "git_sha", lambda path: None)
    monkeypatch.setattr(record, "per_process",
                        lambda checkouts, workload, *rest: steps.append(("runs", workload)) or {})
    monkeypatch.setattr(record, "interleaved",
                        lambda checkouts, workload, *rest: steps.append(("rounds", workload)) or {})
    out = tmp_path / "record.json"
    assert record.main(["--checkout", "a=a", "--checkout", "b=b", "--workload", "exit",
                        "--workload", "geometry", "--seeds", "1", "--seconds", "1",
                        "--out", str(out)]) == 0
    assert steps == [("runs", "exit"), ("runs", "geometry"),
                     ("rounds", "exit"), ("rounds", "geometry")]
    assert list(json.loads(out.read_text())["workloads"]) == ["exit", "geometry"]
