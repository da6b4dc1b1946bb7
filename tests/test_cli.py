"""Command-line surface: artifacts, manifests, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform.cli import _json_text, build_parser, main
from traceform.trace import trace_measure_dict

from helpers import HUGE_N, ZeroSteps, refuse_huge


def run(*argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    saved = dict(os.environ)
    if env:
        os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([str(a) for a in argv])
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return rc, out.getvalue(), err.getvalue()


def run_child(*argv):
    """``traceform`` run in a child process of this checkout's ``src/``,
    for an input that could hang: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "traceform.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.returncode, proc.stdout, proc.stderr


MEMBER_CSV = "x,value\n0.0,0.0\n0.375,0.375\n0.625,0.375\n1.0,0.75\n"


class TestSetCommands:
    def test_build_writes_set_and_manifest(self, tmp_path):
        rc, out, _ = run("set", "build", "--svc-depth", "1", "--out", tmp_path)
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "set.json"]
        assert str(tmp_path / "set.json") in out
        data = json.loads((tmp_path / "set.json").read_text())
        assert data["components"] == [["3/8", "5/8"]]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "set build"
        assert manifest["artifacts"] == ["set.json"]
        assert manifest["config"]["svc_depth"] == 1
        assert len(manifest["config_sha256"]) == 64

    def test_build_from_components(self, tmp_path):
        rc, _, _ = run("set", "build", "--components", "1/8,1/4;1/2,3/4",
                       "--window", "0,1", "--tails", "AllF,AllG", "--out", tmp_path)
        assert rc == 0
        data = json.loads((tmp_path / "set.json").read_text())
        assert data["tail_left"] == "AllF" and data["tail_right"] == "AllG"
        assert len(data["components"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ("set", "build", "--svc-depth", "3", "--out", tmp_path)
        run(*argv)
        first = [(tmp_path / n).read_bytes() for n in ("set.json", "manifest.json")]
        run(*argv)
        second = [(tmp_path / n).read_bytes() for n in ("set.json", "manifest.json")]
        assert first == second

    def test_validate_reports_density(self, tmp_path):
        rc, out, _ = run("set", "validate", "--svc-depth", "1", "--delta", "1/4",
                         "--out", tmp_path)
        assert rc == 0
        assert "ok=False" in out
        rep = json.loads((tmp_path / "validation.json").read_text())
        assert rep["measure_dense"] is False
        assert rep["no_shared_endpoints"] is True
        assert rep["no_isolated_f_points"] is True
        assert ["0", "3/8"] in rep["violations"]

    def test_validate_dense_case(self, tmp_path):
        rc, out, _ = run("set", "validate", "--svc-depth", "3", "--delta", "1/5",
                         "--out", tmp_path)
        assert rc == 0
        assert "ok=True" in out
        assert json.loads((tmp_path / "validation.json").read_text())["ok"] is True

    def test_outdir_env_var(self, tmp_path):
        rc, out, _ = run("set", "build", "--svc-depth", "2",
                         env={"TRACEFORM_OUTDIR": str(tmp_path)})
        assert rc == 0
        assert (tmp_path / "set.json").exists()
        assert out.strip().splitlines()[0].startswith(str(tmp_path))

    def test_out_flag_beats_env(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        rc, _, _ = run("set", "build", "--svc-depth", "1", "--out", a,
                       env={"TRACEFORM_OUTDIR": str(b)})
        assert rc == 0
        assert (a / "set.json").exists()
        assert not b.exists()


class TestTransformCommands:
    def test_scale_eval(self, tmp_path):
        rc, _, _ = run("scale", "eval", "--svc-depth", "1",
                       "--points", "0,3/8,1/2,1", "--out", tmp_path)
        assert rc == 0
        assert (tmp_path / "scale.csv").read_text() == (
            "x,scale\n0.0,0.0\n0.375,0.0\n0.5,0.125\n1.0,0.25\n")
        meta = json.loads((tmp_path / "scale.json").read_text())
        assert meta["case"] == "CaseIII"
        assert meta["window_image"] == ["0", "1/4"]

    def test_darn_map(self, tmp_path):
        rc, _, _ = run("darn", "map", "--svc-depth", "1", "--anchor", "0",
                       "--out", tmp_path)
        assert rc == 0
        info = json.loads((tmp_path / "darn_map.json").read_text())
        assert (info["lo"], info["hi"]) == ("0", "3/4")
        assert info["bounded_left"] is False and info["bounded_right"] is False
        assert info["collapsed"] == [{"index": 0, "position": "3/8", "width": "1/4"}]


class TestEnergyCommands:
    def test_full_energy_artifact(self, tmp_path):
        u = tmp_path / "u.csv"
        u.write_text(MEMBER_CSV)
        rc, out, _ = run("energy", "full", "--svc-depth", "1", "--u", u,
                         "--out", tmp_path)
        assert rc == 0
        assert "value=0.375" in out
        rep = json.loads((tmp_path / "energy.json").read_text())
        assert rep["value"] == 0.375
        assert rep["form"] == "full"
        assert [0.375, 0.625, 0.0] in rep["breakdown"]

    def test_decompose_artifacts(self, tmp_path):
        u = tmp_path / "u.csv"
        u.write_text(MEMBER_CSV)
        rc, out, _ = run("decompose", "--svc-depth", "1", "--u", u, "--out", tmp_path)
        assert rc == 0
        assert "case=CaseIII" in out
        dec = json.loads((tmp_path / "decompose.json").read_text())
        assert dec["case"] == "CaseIII"
        u1 = tf.GridFunction.from_csv((tmp_path / "u1.csv").read_text())
        u2 = tf.GridFunction.from_csv((tmp_path / "u2.csv").read_text())
        total = tf.GridFunction.from_csv(MEMBER_CSV)
        assert u1.values + u2.values == pytest.approx(total.values, abs=1e-12)


class TestTraceCommands:
    def test_trace_energy(self, tmp_path):
        phi = tmp_path / "phi.csv"
        phi.write_text("x,value\n0.0,0.0\n0.375,0.375\n0.625,0.625\n1.0,1.0\n")
        rc, out, _ = run("trace", "energy", "--svc-depth", "1", "--phi", phi,
                         "--out", tmp_path)
        assert rc == 0
        assert "value=0.5" in out
        rep = json.loads((tmp_path / "trace_energy.json").read_text())
        assert rep["value"] == 0.5
        assert [0.375, 0.625, 0.125] in rep["breakdown"]

    def test_jump_table(self, tmp_path):
        rc, _, _ = run("trace", "jump-table", "--svc-depth", "1", "--out", tmp_path)
        assert rc == 0
        assert (tmp_path / "jump_table.csv").read_text() == (
            "a_n,b_n,d_n,weight\n0.375,0.625,0.25,2.0\n")


class TestFellerCommand:
    def test_ladder_csv(self, tmp_path):
        rc, _, _ = run("feller", "--d", "1/2", "--alpha-ladder", "1,10,100",
                       "--out", tmp_path)
        assert rc == 0
        lines = (tmp_path / "feller.csv").read_text().splitlines()
        assert lines[0] == "alpha,numeric,limit"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [1.0, 10.0, 100.0]
        numeric = [float(r[1]) for r in rows]
        assert numeric == sorted(numeric)
        assert all(float(r[2]) == 1.0 for r in rows)
        assert numeric[-1] == pytest.approx(tf.feller_numeric(0.5, 100.0), rel=1e-15)


class TestEquivalenceCommand:
    def test_member_sample(self, tmp_path):
        u = tmp_path / "m.csv"
        u.write_text(MEMBER_CSV)
        rc, _, _ = run("equivalence", "--svc-depth", "1", "--samples", u,
                       "--out", tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "equivalence.json").read_text())
        assert rep["ok"] is True
        assert rep["samples"][0]["l2"] == [0.17578125, 0.17578125]
        assert rep["samples"][0]["energy"] == [0.375, 0.375]


class TestSimulateEstimate:
    def test_bm_writes_numbered_paths(self, tmp_path):
        rc, _, _ = run("simulate", "bm", "--n", "3", "--dt", "0.01",
                       "--horizon", "0.05", "--seed", "7", "--out", tmp_path)
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("bm_*.csv"))
        assert names == ["bm_0000.csv", "bm_0001.csv", "bm_0002.csv"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == names

    def test_darning_path_feeds_occupation(self, tmp_path):
        rc, _, _ = run("simulate", "darning", "--svc-depth", "1",
                       "--h", "0.0234375", "--x0", "0.1", "--horizon", "50",
                       "--seed", "4", "--out", tmp_path)
        assert rc == 0
        path_file = tmp_path / "path.csv"
        sample = tf.PathSample.from_csv(path_file.read_text())
        assert sample.horizon == 50.0
        rc, out, _ = run("estimate", "occupation", "--path", path_file,
                         "--target", "0.375", "--target", "0,0.2",
                         "--burn-in", "5", "--out", tmp_path)
        assert rc == 0
        rows = json.loads((tmp_path / "occupation.json").read_text())
        assert [r["target"] for r in rows] == [
            "occupation of point 0.375", "occupation of interval [0.0, 0.2]"]
        assert all(0 <= r["estimate"] <= 1 and r["n"] == 20 for r in rows)
        assert "occupation of point 0.375" in out

    def test_gap_shortcut_and_workers(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w4"
        rc, out, _ = run("estimate", "hitting", "--gap", "0,1", "--x0", "0.25",
                         "--n", "200", "--seed", "7", "--out", a)
        assert rc == 0
        assert "left=" in out and "right=" in out
        rep = json.loads((a / "estimate.json").read_text())
        assert rep["left"]["n"] == 200
        assert rep["left"]["estimate"] + rep["right"]["estimate"] == 1.0
        assert rep["left"]["target"] == "exit at 0.0 (left endpoint)"
        rc, _, _ = run("estimate", "hitting", "--gap", "0,1", "--x0", "0.25",
                       "--n", "200", "--seed", "7", "--workers", "4", "--out", b)
        assert rc == 0
        assert (a / "estimate.json").read_bytes() == (b / "estimate.json").read_bytes()

    def test_manifest_does_not_depend_on_workers(self, tmp_path):
        manifests = []
        for workers in ([], ["--workers", "1"], ["--workers", "3"]):
            rc, _, _ = run("estimate", "laplace", "--gap", "0,1", "--x0", "0.25", "--alpha", "1",
                           "--n", "300", "--seed", "7", *workers, "--out", tmp_path)
            assert rc == 0
            manifests.append((tmp_path / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1] == manifests[2]
        assert "workers" not in json.loads(manifests[0])["config"]

    def test_laplace_artifact(self, tmp_path):
        rc, _, _ = run("estimate", "laplace", "--gap", "0,1", "--x0", "0.5",
                       "--alpha", "2", "--n", "200", "--seed", "7", "--out", tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "estimate.json").read_text())
        assert rep["left"]["target"].startswith("exp(-2.0 tau)")


class TestErrorHandling:
    def test_validation_error_is_exit_2(self, tmp_path):
        rc, _, err = run("set", "build", "--components", "0.1,0.9", "--out", tmp_path)
        assert rc == 2
        assert "validation error" in err
        assert "--components requires --window" in err

    def test_precondition_error_is_exit_3(self, tmp_path):
        rc, _, err = run("estimate", "hitting", "--gap", "0,1", "--x0", "2.5",
                         "--n", "10", "--seed", "1", "--out", tmp_path)
        assert rc == 3
        assert "precondition violated" in err
        assert "lies in F" in err

    def test_workers_below_one_is_exit_3(self, tmp_path):
        rc, _, err = run("estimate", "hitting", "--gap", "0,1", "--x0", "0.5",
                         "--n", "10", "--seed", "1", "--workers", "0", "--out", tmp_path)
        assert rc == 3
        assert "workers must be at least 1" in err

    def test_step_cap_is_exit_5(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroSteps())
        rc, _, err = run("estimate", "hitting", "--gap", "0,1", "--x0", "0.5",
                         "--n", "10", "--seed", "1", "--dt", "0.001", "--out", tmp_path)
        assert rc == 5
        assert err.startswith("error: exit walk exceeded its step cap")
        assert "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()

    def test_io_error_is_exit_4(self, tmp_path):
        rc, _, err = run("energy", "full", "--svc-depth", "1",
                         "--u", tmp_path / "missing.csv", "--out", tmp_path)
        assert rc == 4
        assert "io error" in err
        assert "missing.csv" in err


FLAT_ON_F_CSV = "x,value\n0.0,0.0\n0.375,0.0\n0.625,1.0\n1.0,1.0\n"  # a subspace member
ZERO_ON_F_CSV = "x,value\n0.0,0.0\n0.375,0.0\n0.5,1.0\n0.625,0.0\n1.0,0.0\n"


class TestArtifactsMatchTheLibrary:
    """Each artifact equals what the library itself gives on the same inputs."""

    SVC1 = tf.svc_complement(1)

    def grid(self, tmp_path, text, name="u.csv"):
        (tmp_path / name).write_text(text)
        return tmp_path / name, tf.GridFunction.from_csv(text, iset=self.SVC1)

    def test_darn_function(self, tmp_path):
        path, u = self.grid(tmp_path, MEMBER_CSV)
        assert run("darn", "function", "--svc-depth", "1", "--u", path, "--out", tmp_path)[0] == 0
        assert (tmp_path / "darned.csv").read_text() == tf.darn_function(
            u, tf.DarningMap(self.SVC1)).to_csv()

    @pytest.mark.parametrize("form, text, energy", [
        ("subspace", FLAT_ON_F_CSV, tf.subspace_energy), ("part", ZERO_ON_F_CSV, tf.part_energy)])
    def test_energy_forms(self, tmp_path, form, text, energy):
        path, u = self.grid(tmp_path, text)
        rc, out, _ = run("energy", form, "--svc-depth", "1", "--u", path, "--out", tmp_path)
        report = energy(u, None, iset=self.SVC1)
        assert rc == 0 and out.splitlines()[-1] == f"value={report.value!r}"
        assert (tmp_path / "energy.json").read_text() == _json_text(report.to_dict())

    @pytest.mark.parametrize("subspace", [False, True])
    def test_energy_measure(self, tmp_path, subspace):
        path, u = self.grid(tmp_path, MEMBER_CSV)
        rc, _, _ = run("energy", "measure", "--svc-depth", "1", "--u", path, "--interval", "0,1/2",
                       *["--subspace"] * subspace, "--out", tmp_path)
        value = tf.energy_measure(u, (0.0, 0.5), iset=self.SVC1, subspace=subspace)
        assert rc == 0 and json.loads((tmp_path / "energy_measure.json").read_text()) == {
            "interval": ["0", "1/2"], "subspace": subspace, "value": value}

    @pytest.mark.parametrize("complement", [False, True])
    def test_trace_subspace(self, tmp_path, complement):
        text = MEMBER_CSV if complement else FLAT_ON_F_CSV
        path, g = self.grid(tmp_path, text, "phi.csv")
        flags = ["--complement", "--psi", path] if complement else []
        rc, _, _ = run("trace", "subspace", "--svc-depth", "1", "--phi", path, *flags,
                       "--out", tmp_path)
        phi = tf.TraceFunction(self.SVC1, g.grid, g.values)
        report = (tf.trace_complement_energy(phi, phi) if complement
                  else tf.trace_subspace_energy(phi))
        assert rc == 0
        assert (tmp_path / "trace_energy.json").read_text() == _json_text(report.to_dict())

    def test_trace_measure(self, tmp_path):
        assert run("trace", "measure", "--svc-depth", "2", "--out", tmp_path)[0] == 0
        assert (tmp_path / "trace_measure.json").read_text() == _json_text(
            trace_measure_dict(tf.svc_complement(2)))

    def test_simulate_xs(self, tmp_path):
        rc, _, _ = run("simulate", "xs", "--svc-depth", "1", "--h", "0.015625", "--x0", "0.5",
                       "--horizon", "5", "--seed", "4", "--boundary", "absorb,reflect",
                       "--out", tmp_path)
        path = tf.simulate_xs(tf.ScaleFunction(self.SVC1), 0.015625, 0.5, 5.0, 4,
                              boundary=("absorb", "reflect"))
        assert rc == 0 and (tmp_path / "path.csv").read_text() == path.to_csv()

    def test_scale_eval_default_step(self, tmp_path):
        assert run("scale", "eval", "--svc-depth", "1", "--out", tmp_path)[0] == 0
        sf = tf.ScaleFunction(self.SVC1)
        rows = (tmp_path / "scale.csv").read_text().splitlines()
        assert rows == ["x,scale"] + [f"{k / 64!r},{float(sf(Fraction(k, 64)))!r}"
                                      for k in range(65)]


REPO_ROOT = Path(__file__).resolve().parents[1]

WALK = ["simulate", "walk", "--speed", "{d}/speed.json", "--h", "0.0234375", "--x0", "0.1",
        "--seed", "1"]
HIT = ["estimate", "hitting", "--gap", "0,1", "--x0", "0.5", "--n", "10", "--seed", "1"]
LAPLACE = ["estimate", "laplace", "--gap", "0,1", "--x0", "0.5", "--n", "10", "--seed", "1"]
BM = ["simulate", "bm", "--n", "1", "--seed", "1"]
EQUIV = ["equivalence", "--svc-depth", "1", "--samples", "{d}/u.csv"]

# (argv, exit code, whether it runs in a child process: a walk that a missing
# check would let run for ever fails on the timeout there, and a warning reaches
# stderr as it would from the shell, not pytest's capture); "{d}" is the input
# directory
EDGE_INPUTS = {
    "walk horizon nan": (WALK + ["--horizon", "nan"], 3, True),
    "walk horizon inf": (WALK + ["--horizon", "inf"], 3, True),
    "walk h nan": (WALK[:4] + ["--h", "nan", "--x0", "0.1", "--horizon", "1", "--seed", "1"], 3,
                   False),
    "walk speed not json": (["simulate", "walk", "--speed", "{d}/u.csv", *WALK[4:],
                             "--horizon", "1"], 2, False),
    "hitting dt 0": (HIT + ["--dt", "0"], 3, False),
    "hitting dt -1": (HIT + ["--dt=-1"], 3, False),
    "hitting dt nan": (HIT + ["--dt", "nan"], 3, False),
    "hitting dt inf": (HIT + ["--dt", "inf"], 3, False),
    "bm dt nan": (BM + ["--dt", "nan", "--horizon", "1"], 3, False),
    "bm horizon nan": (BM + ["--dt", "0.1", "--horizon", "nan"], 3, False),
    "bm x0 nan": (BM + ["--dt", "0.1", "--horizon", "1", "--x0", "nan"], 3, False),
    "bm dt 1e-300": (BM + ["--dt", "1e-300", "--horizon", "1"], 3, False),
    "bm dt subnormal": (BM + ["--dt", "5e-324", "--horizon", "1"], 3, False),
    "bm seed -1": (BM[:4] + ["--seed=-1", "--dt", "0.1", "--horizon", "1"], 3, False),
    "hitting seed -1": (HIT[:-2] + ["--seed=-1"], 3, False),
    "laplace alpha nan": (LAPLACE + ["--alpha", "nan"], 3, False),
    "laplace alpha inf": (LAPLACE + ["--alpha", "inf"], 3, False),
    "darning x0 nan": (["simulate", "darning", "--svc-depth", "1", *WALK[4:6], "--x0", "nan",
                        "--horizon", "1", "--seed", "1"], 3, False),
    "scale step 0": (["scale", "eval", "--svc-depth", "1", "--step", "0"], 3, False),
    "scale step negative": (["scale", "eval", "--svc-depth", "1", "--step=-1/4"], 3, False),
    "scale step 1e-8": (["scale", "eval", "--svc-depth", "1", "--step", "1/100000000"], 3, True),
    "svc-depth ignores tails": (["set", "build", "--svc-depth", "1", "--tails", "AllG,AllG"], 2,
                                False),
    "svc-depth ignores period": (["set", "build", "--svc-depth", "1", "--period", "2"], 2, False),
    "set ignores window": (["set", "build", "--set", "{d}/set.json", "--window", "0,1"], 2, False),
    "no set ignores window": (["energy", "full", "--u", "{d}/u.csv", "--window", "0,1"], 2, False),
    "gap ignores svc-depth": (HIT + ["--svc-depth", "1"], 2, False),
    "set not utf-8": (["set", "build", "--set", "{d}/bad.bin"], 2, False),
    "grid not utf-8": (["energy", "full", "--u", "{d}/bad.bin"], 2, False),
    "feller alpha past float range": (["feller", "--d", "1", "--alpha-ladder", "1e400"], 2,
                                      False),
    "feller d past float range": (["feller", "--d", "1e400", "--alpha-ladder", "1"], 2, False),
    "feller d 1e999999999": (["feller", "--d", "1e999999999", "--alpha-ladder", "1"], 2, True),
    "feller d -1e999999999": (["feller", "--d=-1e999999999", "--alpha-ladder", "1"], 2, True),
    # decided before a Fraction is built, which took seconds for the first and
    # never ended for the second; the last two exited 1 with an OverflowError
    "feller d 1e-10000000": (["feller", "--d", "1e-10000000", "--alpha-ladder", "1"], 2, True),
    "feller d 0e999999999": (["feller", "--d", "0e999999999", "--alpha-ladder", "1"], 3, True),
    "feller d 1e-310": (["feller", "--d", "1e-310", "--alpha-ladder", "1"], 3, True),
    "feller d 1e-400": (["feller", "--d", "1e-400", "--alpha-ladder", "1"], 2, True),
    "jump table of a subnormal gap": (["trace", "jump-table", "--components", "0,5e-324",
                                       "--window", "0,1"], 3, True),
    "component end below float range": (["set", "build", "--components", "0,1e-400",
                                         "--window", "0,1"], 2, False),
    # exponents past the decimal module's limit, read by their float alone; a
    # Fraction of any of them never ends
    "feller d 1e10**18": (["feller", "--d", "1e1000000000000000000", "--alpha-ladder", "1"], 2,
                          True),
    "feller d 1e-10**18": (["feller", "--d", "1e-1000000000000000000", "--alpha-ladder", "1"], 2,
                           True),
    "feller d 0e10**18": (["feller", "--d", "0e1000000000000000000", "--alpha-ladder", "1"], 3,
                          True),
    "component end a ratio below float range": (["set", "build", "--components",
                                                 f"0,1/1{'0' * 400}", "--window", "0,1"], 2,
                                                False),
    "scale step past the point cap": (["scale", "eval", "--svc-depth", "1", "--step",
                                       "1/2000000"], 3, False),
    "subspace energy without a set": (["energy", "subspace", "--u", "{d}/u.csv"], 2, False),
    "feller empty alpha ladder": (["feller", "--d", "1", "--alpha-ladder", ","], 2, False),
    "scale point past float range": (["scale", "eval", "--svc-depth", "1", "--points", "1e400"],
                                     2, False),
    "hitting gap past float range": (["estimate", "hitting", "--gap=0,1e400", *HIT[4:]], 2,
                                     False),
    "hitting gap too wide for its step": (["estimate", "hitting", "--gap=-1e200,1e200", *HIT[4:]],
                                          3, False),
    "measure interval past float range": (["energy", "measure", "--u", "{d}/u.csv",
                                           "--interval", "0,1e400"], 2, False),
    "occupation target past float range": (["estimate", "occupation", "--path", "{d}/path.csv",
                                            "--target=-1e400"], 2, False),
    "occupation target empty": (["estimate", "occupation", "--path", "{d}/path.csv",
                                 "--target=1,-1"], 3, False),
    "equivalence tol nan": (EQUIV + ["--tol", "nan"], 3, False),
    "equivalence tol inf": (EQUIV + ["--tol", "inf"], 3, False),
    "equivalence tol negative": (EQUIV + ["--tol=-1e-12"], 3, False),
    "energy of a subnormal cell": (["energy", "full", "--u", "{d}/subnormal.csv"], 3, True),
    "measure of an overflowing slope": (["energy", "measure", "--u", "{d}/huge.csv",
                                         "--interval", "0,1"], 3, True),
}


@pytest.mark.parametrize("case", list(EDGE_INPUTS))
def test_edge_input_fails_on_one_line(case, tmp_path):
    """Each input exits 2 or 3 with one stderr line and writes nothing."""
    argv, code, child = EDGE_INPUTS[case]
    speed = tf.pushforward_speed(tf.DarningMap(tf.svc_complement(1), z=0), "lebesgue")
    (tmp_path / "speed.json").write_text(json.dumps(speed.to_dict()))
    (tmp_path / "set.json").write_text(json.dumps(tf.svc_complement(1).to_dict()))
    (tmp_path / "u.csv").write_text(MEMBER_CSV)
    (tmp_path / "bad.bin").write_bytes(b"\xff\xfe")
    (tmp_path / "subnormal.csv").write_text("x,value\n0,0\n5e-324,1\n1,2\n")
    (tmp_path / "huge.csv").write_text("x,value\n0,0\n1e-300,1e300\n1,2\n")
    (tmp_path / "path.csv").write_text(next(tf.bm_paths(1, 0.1, 1.0, 0.0, seed=1)).to_csv())
    argv = [a.format(d=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
    rc, _, err = (run_child if child else run)(*argv)
    assert rc == code, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("argv, message", [
    (["feller", "--d", "1e-400", "--alpha-ladder", "1"],
     "validation error: '1e-400' is below the float range"),
    (["feller", "--d", "1e-310", "--alpha-ladder", "1"], "precondition violated: gap width is "
     "too small: its weight 1/(2 d) is past the float range"),
    (["feller", "--d", "0e999999999", "--alpha-ladder", "1"],
     "precondition violated: gap width must be positive and finite, got 0"),
    (["feller", "--d", "1/1" + "0" * 400, "--alpha-ladder", "1"],
     f"validation error: '1/1{'0' * 400}' is below the float range"),
    (["set", "build", "--svc-depth", "1", "--window", "1,0"],
     "precondition violated: window must satisfy w0 < w1, got (1, 0)"),
    (["set", "build", "--svc-depth", "1", "--window", "1/2,-3/4"],
     "precondition violated: window must satisfy w0 < w1, got (1/2, -3/4)"),
], ids=["d below floats", "weight past floats", "d zero", "d ratio below floats",
        "window reversed", "window ratios"])
def test_refusal_message(argv, message, tmp_path):
    """Each number in a message reads as it was given, never as a repr; in a
    child, as reading 0e999999999 never ended."""
    rc, _, err = run_child(*argv, "--out", tmp_path / "out")
    assert (rc, err) == (2 if message.startswith("validation") else 3, message + "\n")


def test_failed_write_leaves_no_file(monkeypatch, tmp_path):
    """An artifact whose rename fails is removed: the run exits 4 on one line."""
    def refuse(src, dst):
        raise OSError(f"cannot rename to {Path(dst).name}")

    monkeypatch.setattr(os, "replace", refuse)
    rc, _, err = run("set", "build", "--svc-depth", "1", "--out", tmp_path)
    assert (rc, err) == (4, "io error: cannot rename to set.json\n")
    assert list(tmp_path.iterdir()) == []


def test_exit_sample_too_large_to_allocate(monkeypatch, tmp_path):
    """A path count whose sample cannot be allocated exits 3 on one line,
    where it ended in a MemoryError traceback; the allocation is made to
    fail, never asked for, and no thread starts."""
    monkeypatch.setattr(np, "empty", refuse_huge(np.empty))
    monkeypatch.setattr(tf.simulate.threading, "Thread", None)
    rc, _, err = run(*HIT[:6], "--n", str(HUGE_N), *HIT[8:], "--out", tmp_path / "out")
    assert (rc, err) == (3, f"precondition violated: path count n = {HUGE_N} is too large: "
                            "its exit sample cannot be allocated\n")
    assert not (tmp_path / "out").exists()


def test_small_decimals_read_as_their_value(tmp_path):
    """A tiny decimal inside the float range is read exactly, and a zero
    with any exponent as 0; the feller series keeps the digits at c d = 1e-8.
    The zero runs in a child, as reading it never ended."""
    rc, _, err = run("feller", "--d", "1e-8", "--alpha-ladder", "1", "--out", tmp_path)
    numeric = float((tmp_path / "feller.csv").read_text().splitlines()[1].split(",")[1])
    assert rc == 0 and numeric == pytest.approx(1e-8 / 6, rel=1e-12)
    rc, _, err = run_child("set", "build", "--components", "0e999999999,1e-300", "--window", "0,1",
                           "--out", tmp_path)
    assert rc == 0, err
    assert json.loads((tmp_path / "set.json").read_text())["components"][0][0] == "0"


ONE_OF = "specify the set by exactly one of --set, --svc-depth, --components"


@pytest.mark.parametrize("argv, message", [
    (HIT + ["--svc-depth", "1"], f"{ONE_OF}, --gap"),
    (HIT[:2] + HIT[4:], f"{ONE_OF}, --gap"),
    (HIT + ["--window", "0,1"], "--window is read only with --components or --svc-depth"),
    (HIT + ["--tails", "AllF,AllF"], "--tails is read only with --components"),
    (HIT + ["--period", "1"], "--period is read only with --components"),
    (["set", "build"], ONE_OF),
    (["estimate", "occupation", "--path", "{d}/path.csv", "--target", "0,1,2"],
     "expected 'a,b', got '0,1,2'"),
], ids=["gap and svc-depth", "no source", "gap and window", "gap and tails", "gap and period",
        "no source without --gap", "three-value target"])
def test_gap_is_one_of_the_set_sources(argv, message, tmp_path):
    """--gap is decided with the other set sources, by the same rules; each
    two-value flag is read as exactly two values."""
    (tmp_path / "path.csv").write_text(next(tf.bm_paths(1, 0.1, 1.0, 0.0, seed=1)).to_csv())
    rc, _, err = run(*[a.format(d=tmp_path) for a in argv], "--out", tmp_path / "out")
    assert (rc, err) == (2, f"validation error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_an_empty_source_is_not_given(tmp_path):
    """A source given as empty text counts as not given, for --gap as for the others."""
    rc, _, err = run(*HIT, "--set", "", "--out", tmp_path)
    assert (rc, err) == (0, "")
    assert json.loads((tmp_path / "estimate.json").read_text())["left"]["n"] == 10


@pytest.mark.parametrize("rows", ["0,0.5,300\n1,0.5,0\n", "0,0.5,7\n1,0.5,0\n",
                                  "0,0.5,0\nnan,0.5,0\n", "0,nan,0\n1,0.5,0\n",
                                  "0,0.5,0\n1,inf,0\n"],
                         ids=["flag 300", "flag 7", "nan time", "nan state", "inf state"])
def test_bad_path_csv_is_exit_2(rows, tmp_path):
    (tmp_path / "path.csv").write_text("t,x,flag\n" + rows)
    rc, _, err = run("estimate", "occupation", "--path", tmp_path / "path.csv",
                     "--target", "0,1", "--batches", "2", "--out", tmp_path / "out")
    assert rc == 2, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("density, carrier, code", [
    ("NaN", "1", 2), ("Infinity", "1", 2), ("1", "Infinity", 2), ("0", "1", 3),
], ids=["nan density", "inf density", "inf carrier end", "zero density"])
def test_speed_that_cannot_walk_fails_on_one_line(density, carrier, code, tmp_path):
    """``json.loads`` reads NaN and Infinity, so a walk's speed may hold them;
    a NaN or zero density used to walk forever, hence the child and its timeout."""
    (tmp_path / "speed.json").write_text(
        f'{{"carrier": [0, {carrier}], "density_pieces": [[0, 1, {density}]], "atoms": []}}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "traceform.cli", "simulate", "walk",
                           "--speed", str(tmp_path / "speed.json"), "--h", "0.25", "--x0", "0.5",
                           "--horizon", "1", "--seed", "1", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, text, message", [
    (["set", "build", "--set"],
     '{"window": [0, "inf"], "components": [], "tail_left": "AllF", "tail_right": "AllF"}',
     "every end must be a finite real number"),
    (["simulate", "walk", *WALK[4:], "--horizon", "1", "--speed"],
     '{"carrier": [0, "inf"], "density_pieces": [], "atoms": []}',
     "carrier must be finite, got (0, inf)"),
], ids=["set build --set", "simulate walk --speed"])
def test_infinity_as_text_is_exit_2(argv, text, message, tmp_path):
    """The JSON codec reads "inf" back as a float, which the finiteness checks refuse."""
    (tmp_path / "in.json").write_text(text)
    rc, _, err = run(*argv, tmp_path / "in.json", "--out", tmp_path / "out")
    assert rc == 2 and err.startswith(f"validation error: {message}")
    assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()


# the cheapest command that reads each flag of two comma-separated values; the
# drawn texts go last, as --flag=TEXT, so that a leading "-" stays a value
TWO_VALUE_FLAGS = {
    "--window": ["set", "build", "--svc-depth", "1"],
    "--components": ["set", "build", "--window", "0,1"],
    "--tails": ["set", "build", "--components", "1/4,1/2", "--window", "0,1"],
    "--gap": HIT[:2] + HIT[4:6] + ["--n", "1", "--seed", "1"],
    "--interval": ["energy", "measure", "--u", "{d}/u.csv"],
    "--target": ["estimate", "occupation", "--path", "{d}/path.csv", "--batches", "2"],
    "--boundary": WALK + ["--horizon", "1"],
}
VALUES = st.one_of(
    st.sampled_from(["", " ", "0", "1", "-1", "1/2", "3/8", " 5/8 ", "1/0", "1e400",
                     "-1e999999999", "1e-5", "inf", "nan", "x", "AllF", "AllG", "Periodic",
                     "reflect", "absorb", " absorb "]),
    st.fractions(-4, 4, max_denominator=64).map(str),
    st.text("0123456789./-+e_ ", max_size=8))
PAIRS = st.tuples(VALUES, VALUES).map(",".join)
FLAG_TEXTS = st.one_of(PAIRS, st.lists(PAIRS, max_size=3).map(";".join),
                       st.lists(VALUES, max_size=3).map(",".join), st.text(max_size=8))


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    speed = tf.pushforward_speed(tf.DarningMap(tf.svc_complement(1), z=0), "lebesgue")
    (d / "speed.json").write_text(json.dumps(speed.to_dict()))
    (d / "u.csv").write_text(MEMBER_CSV)
    (d / "path.csv").write_text(next(tf.bm_paths(1, 0.1, 1.0, 0.0, seed=1)).to_csv())
    return d


@pytest.mark.parametrize("flag", list(TWO_VALUE_FLAGS))
@settings(max_examples=40, deadline=None)
@given(texts=st.lists(FLAG_TEXTS, min_size=1, max_size=2))
def test_two_value_flags_fail_on_one_line(flag, texts, flag_inputs):
    """Any text for a two-value flag runs, or exits 2 or 3 on one stderr line
    and writes nothing."""
    # --target is repeatable and may be left out; every other flag is given once
    texts = texts[1:] if flag == "--target" else texts[:1]
    argv = [a.format(d=flag_inputs) for a in TWO_VALUE_FLAGS[flag]]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc, _, err = run(*argv, *(f"{flag}={text}" for text in texts), "--out", out)
        assert rc in (0, 2, 3), err
        assert len(err.splitlines()) == (rc != 0) and "Traceback" not in err
        assert out.exists() == (rc == 0)


SET_FLAGS = "--set --svc-depth --components --window --tails --period"
WALK_FLAGS = "--h! --x0! --horizon! --seed! --boundary --holding='exponential'"
EXIT_FLAGS = "--n! --seed! --dt --correct=False --workers"

# Each leaf command's options as the parser held them before the command table:
# flag, "!" if required, "=default" if not None; then the extra parsed defaults.
LEAF_OPTIONS = {
    "set build": f"{SET_FLAGS} --out",
    "set validate": f"{SET_FLAGS} --out --delta!",
    "scale eval": f"{SET_FLAGS} --out --anchor --points --step",
    "darn map": f"{SET_FLAGS} --out --anchor",
    "darn function": f"{SET_FLAGS} --out --anchor --u!",
    "energy full": f"{SET_FLAGS} --out --u! --v form='full'",
    "energy subspace": f"{SET_FLAGS} --out --u! --v form='subspace'",
    "energy part": f"{SET_FLAGS} --out --u! --v form='part'",
    "energy measure": f"{SET_FLAGS} --out --u! --interval! --subspace=False",
    "decompose": f"{SET_FLAGS} --out --u! --anchor --harmonic=False",
    "trace energy": f"{SET_FLAGS} --out --phi!",
    "trace subspace": f"{SET_FLAGS} --out --phi! --psi --complement=False",
    "trace jump-table": f"{SET_FLAGS} --out",
    "trace measure": f"{SET_FLAGS} --out",
    "feller": "--out --d! --alpha-ladder!",
    "equivalence": f"{SET_FLAGS} --out --anchor --samples! --tol=1e-12",
    "simulate bm": "--out --n! --dt! --horizon! --x0=0.0 --seed!",
    "simulate walk": f"--out --speed! {WALK_FLAGS}",
    "simulate xs": f"--out {SET_FLAGS} --anchor {WALK_FLAGS}",
    "simulate darning": f"--out {SET_FLAGS} --anchor {WALK_FLAGS}",
    "estimate hitting": f"{SET_FLAGS} --out --gap --x0! {EXIT_FLAGS}",
    "estimate laplace": f"{SET_FLAGS} --out --gap --x0! --alpha! {EXIT_FLAGS}",
    "estimate occupation": "--out --path! --target=[] --burn-in=0.0 --batches=20",
}


def _leaf_parsers(parser, path=""):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path.strip(), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, f"{path} {name}")


def test_leaf_commands_keep_their_options():
    found = {}
    for path, parser in _leaf_parsers(build_parser()):
        flags = [a.option_strings[0] + "!" * a.required
                 + ("" if a.default is None else f"={a.default!r}")
                 for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        flags += [f"{k}={v!r}" for k, v in sorted(parser._defaults.items()) if k != "func"]
        found[path] = " ".join(flags)
    assert found == LEAF_OPTIONS


@pytest.fixture
def console_script(tmp_path_factory, monkeypatch):
    """Put a `traceform` launcher first on PATH, built from the entry point
    that pyproject.toml declares, the way an installer writes one, and let
    it import the package from this source tree."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["traceform"]
    module, _, func = target.partition(":")
    bindir = tmp_path_factory.mktemp("bin")
    launcher = bindir / "traceform"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {func}\n"
                        f"sys.exit({func}())\n")
    launcher.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join(filter(None, [str(bindir), os.environ.get("PATH")])))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.usefixtures("console_script")
class TestConsoleScript:
    def test_version(self):
        proc = subprocess.run(["traceform", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("traceform ")

    def test_end_to_end_subprocess(self, tmp_path):
        proc = subprocess.run(
            ["traceform", "set", "build", "--svc-depth", "1", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "set.json").exists()
