"""The helper scripts under scripts/."""

import fcntl
import os
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
