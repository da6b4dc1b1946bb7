"""The helper scripts under scripts/."""

import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_output_digest_runs_one_at_a_time(tmp_path):
    """A digest started while another holds the lock exits 1 with one line,
    before it writes anything; its fixed work directory is left alone."""
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "digest.txt"
    with open(tmp_path / "traceform-output-digest.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "output_digest.py"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "another run" in proc.stderr
    assert not out.exists() and not (tmp_path / "traceform-output-digest").exists()


def test_ab_interleaved_runs_two_checkouts_read_only(tmp_path):
    """Two rounds of one geometry operation a side, on two copies of this
    checkout: each side imports its own traceform (the script refuses
    another), a line per round and the median ratio are printed, and
    nothing is written into either copy."""
    skip = shutil.ignore_patterns("__pycache__", "_run", "_traces")
    copies = []
    for name in ("a", "b"):
        for part in ("src", "perfbench"):
            shutil.copytree(REPO_ROOT / part, tmp_path / name / part, ignore=skip)
        copies.append(tmp_path / name)
    before = sorted(p for p in tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "ab_interleaved.py"), *map(str, copies),
         "--workload", "geometry", "--rounds", "2", "--ops", "1"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["round 1 (A first)", "round 2 (B first)"]
    assert len(lines) == 3 and lines[2].startswith("geometry: B/A median")
    assert sorted(p for p in tmp_path.rglob("*")) == before
