"""cli: a fixed sequence of fifteen subcommands through ``traceform.cli.main``.

The commands run in this process, without a subprocess, into one output
directory, on the depth-5 fat-Cantor set (31 gaps) and small Monte Carlo
sizes, so that argument parsing, CSV and JSON encoding, atomic writes and
manifests dominate.  Input CSV files are written at set-up; every operation
reruns the same commands with the same arguments, so consecutive operations
must leave byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from traceform.cli import main

from oracle import (Geometry, batch_share, cell_energy, fat_cantor_gaps,
                    jump_sum, require, require_close, require_within_se)

DEPTH = 5
DELTA = Fraction(1, 8)
SCALE_STEP = Fraction(1, 64)
FELLER_D = Fraction(1, 4)
ALPHA_LADDER = (1, 10, 100, 1000)
HIT_N = 20_000
WALK_H, WALK_X0, WALK_HORIZON, WALK_BURN_IN, WALK_BATCHES = 3 / 1280, 0.1, 0.1, 0.01, 10
WALK_ATOM = 0.375  # the depth-1 gap (3/8, 5/8) collapses to F-length 3/8 from anchor 0
TOL = 1e-12
Z = 4.0

COMMANDS = {
    "set_build": "set build", "set_validate": "set validate", "scale_eval": "scale eval",
    "darn_map": "darn map", "darn_function": "darn function", "energy_full": "energy full",
    "decompose": "decompose", "trace_energy": "trace energy",
    "trace_jump_table": "trace jump-table", "trace_measure": "trace measure",
    "feller": "feller", "equivalence": "equivalence", "estimate_hitting": "estimate hitting",
    "simulate_darning": "simulate darning", "estimate_occupation": "estimate occupation",
}

KERNEL = "intervals"  # reference kernel (calibrate.py): Fraction geometry, parsing, files

LAYER_METRICS = {f"cli.{name}_s": "s" for name in COMMANDS}
LAYER_METRICS.update({"cli.bytes_written": "count", "cli.files_written": "count"})


class OperationFailed(Exception):
    """A command returned a nonzero exit code."""


@dataclass
class State:
    out: Path
    geo: Geometry
    gaps: list
    u: np.ndarray
    v: np.ndarray
    j: np.ndarray           # darning map at each node, anchor 0
    hit: tuple              # (a, b, x0, seed)
    walk_seed: int
    commands: list = field(default_factory=list)
    previous: dict | None = None


def _write_csv(path: Path, xs, vs) -> str:
    lines = ["x,value"] + [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, vs)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _read_csv(path: Path) -> list[list[str]]:
    with path.open() as fh:
        return list(csv.reader(fh))[1:]


def setup(seed: int, workdir: Path, tracer) -> State:
    rng = np.random.default_rng(seed)
    inputs = workdir / "inputs"
    out = workdir / "out"
    inputs.mkdir(parents=True)
    gaps = fat_cantor_gaps(DEPTH)
    geo = Geometry((0, 1), gaps)
    x = geo.grid
    coef = rng.normal(size=3)
    u = coef[0] * np.sin(3 * x) + coef[1] * x * x + coef[2] * np.cos(7 * x)
    j = geo.f_mass_from(0.0)
    y = j / j[-1]
    v, w = (sum(a * np.sin((k + 1) * math.pi * y) for k, a in enumerate(rng.normal(size=3)))
            for _ in range(2))
    u_csv = _write_csv(inputs / "u.csv", x, u)
    v_csv = _write_csv(inputs / "v.csv", x, v)
    w_csv = _write_csv(inputs / "w.csv", x, w)
    a = Fraction(int(rng.integers(-16, 16)), 16)
    b = a + Fraction(int(rng.integers(4, 33)), 16)
    x0 = float(a) + (0.5 + float(rng.uniform(-0.02, 0.02))) * float(b - a)
    st = State(out, geo, gaps, u, v, j, (float(a), float(b), x0, int(rng.integers(0, 2**31))),
               int(rng.integers(0, 2**31)))
    depth = ["--svc-depth", str(DEPTH)]
    d = float(b - a)
    args = {
        "set_build": depth,
        "set_validate": [*depth, "--delta", str(DELTA)],
        "scale_eval": [*depth, "--step", str(SCALE_STEP)],
        "darn_map": depth,
        "darn_function": [*depth, "--u", v_csv],
        "energy_full": ["--u", u_csv],
        "decompose": [*depth, "--u", u_csv],
        "trace_energy": [*depth, "--phi", u_csv],
        "trace_jump_table": depth,
        "trace_measure": depth,
        "feller": ["--d", str(FELLER_D), "--alpha-ladder", ",".join(map(str, ALPHA_LADDER))],
        "equivalence": [*depth, "--samples", v_csv, w_csv],
        "estimate_hitting": [f"--gap={a},{b}", f"--x0={x0!r}", "--n", str(HIT_N),
                             "--seed", str(st.hit[3]), "--dt", repr((d / 40) ** 2), "--correct"],
        "simulate_darning": ["--svc-depth", "1", "--h", repr(WALK_H), "--x0", repr(WALK_X0),
                             "--horizon", repr(WALK_HORIZON), "--seed", str(st.walk_seed)],
        "estimate_occupation": ["--path", str(out / "path.csv"), "--target", str(WALK_ATOM),
                                "--burn-in", repr(WALK_BURN_IN), "--batches", str(WALK_BATCHES)],
    }
    st.commands = [(name, [*COMMANDS[name].split(), *args[name], "--out", str(out)])
                   for name in COMMANDS]
    return st


def _run(name: str, argv: list[str], st: State, tracer) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        with tracer.span(f"cli.{name}"):
            rc = main(argv)
    if rc != 0:
        raise OperationFailed(f"traceform {COMMANDS[name]} returned {rc}: {buf.getvalue()}")
    printed = sorted(Path(line).name for line in buf.getvalue().splitlines()
                     if line.startswith(str(st.out)))
    manifest = json.loads((st.out / "manifest.json").read_text())
    require(manifest["artifacts"] == printed, f"{name}: manifest lists {manifest['artifacts']}, "
                                              f"the command wrote {printed}")
    canonical = json.dumps(manifest["config"], sort_keys=True)
    require(manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest(),
            f"{name}: config_sha256 is not the sha256 of the canonical config")
    require(manifest["command"] == COMMANDS[name], f"{name}: manifest command")
    require(manifest["config"]["out"] == str(st.out), f"{name}: manifest out")
    return printed


def operation(st: State, tracer) -> None:
    files = bytes_written = 0
    for name, argv in st.commands:
        printed = _run(name, argv, st, tracer)
        _CHECKS[name](st)
        names = printed + ["manifest.json"]
        files += len(names)
        bytes_written += sum((st.out / n).stat().st_size for n in names)
    tracer.count("cli.files_written", files)
    tracer.count("cli.bytes_written", bytes_written)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(st.out.iterdir())}
    if st.previous is not None:
        require(digests == st.previous, "a rerun of the same commands changed an output file")
    st.previous = digests


def _json(st: State, name: str):
    return json.loads((st.out / name).read_text())


def _values(st: State, name: str) -> tuple[np.ndarray, np.ndarray]:
    rows = np.array(_read_csv(st.out / name), dtype=float)
    return rows[:, 0], rows[:, 1]


def _check_set_build(st):
    comps = _json(st, "set.json")["components"]
    require(comps == [[str(a), str(b)] for a, b in st.gaps], "set.json components")


def _check_set_validate(st):
    longest_f = float(np.max(np.diff(st.geo.grid)[~st.geo.cell_in_g]))
    rep = _json(st, "validation.json")
    require(rep["measure_dense"] is (longest_f < DELTA) and rep["ok"] is rep["measure_dense"],
            "validation.json density verdict")


def _check_scale_eval(st):
    xs, s = _values(st, "scale.csv")
    require(xs.size == int(1 / SCALE_STEP) + 1, "scale.csv row count")
    require_close(s, np.interp(xs, st.geo.grid, st.geo.g_cum), TOL, "scale.csv values")


def _check_darn_map(st):
    info = _json(st, "darn_map.json")
    positions = [float(Fraction(c["position"])) for c in info["collapsed"]]
    require_close(positions, st.j[:-1][st.geo.cell_in_g], TOL, "darn_map.json collapsed points")
    require_close([float(Fraction(info["lo"])), float(Fraction(info["hi"]))],
                  [st.j[0], st.j[-1]], TOL, "darn_map.json image")


def _check_darn_function(st):
    keep = np.concatenate([[True], np.diff(st.j) > 0])
    xs, vals = _values(st, "darned.csv")
    require_close(xs, st.j[keep], TOL, "darned.csv nodes")
    require_close(vals, st.v[keep], TOL, "darned.csv values")


def _check_energy_full(st):
    require_close(_json(st, "energy.json")["value"], cell_energy(st.geo.grid, st.u), TOL,
                  "energy.json value")


def _check_decompose(st):
    x1, u1 = _values(st, "u1.csv")
    x2, u2 = _values(st, "u2.csv")
    grid = st.geo.grid
    require(np.array_equal(x1, grid) and np.array_equal(x2, grid), "decompose grids")
    require_close(u1 + u2, st.u, TOL, "decompose u1 + u2 = u")
    e_u = cell_energy(grid, st.u)
    require(abs(cell_energy(grid, u1, u2)) <= TOL * max(1.0, e_u), "decompose orthogonality")


def _check_trace_energy(st):
    grid = st.geo.grid
    want = cell_energy(grid, st.u, mask=~st.geo.cell_in_g) + jump_sum(grid, st.u, st.geo.cell_in_g)
    require_close(_json(st, "trace_energy.json")["value"], want, TOL, "trace_energy.json value")


def _check_trace_jump_table(st):
    rows = np.array(_read_csv(st.out / "jump_table.csv"), dtype=float)
    want = [(float(a), float(b), float(b - a), float(1 / (2 * (b - a)))) for a, b in st.gaps]
    require_close(rows, np.array(want), TOL, "jump_table.csv rows")


def _check_trace_measure(st):
    atoms = _json(st, "trace_measure.json")["atoms"]
    want = sorted([[str(e), str((b - a) / 2)] for a, b in st.gaps for e in (a, b)],
                  key=lambda t: Fraction(t[0]))
    require(atoms == want, "trace_measure.json atoms")


def _check_feller(st):
    rows = np.array(_read_csv(st.out / "feller.csv"), dtype=float)
    d = float(FELLER_D)
    want = []
    for alpha in ALPHA_LADDER:
        c = math.sqrt(2 * alpha)
        want.append((alpha, 1 / (2 * d) - alpha / (c * math.sinh(c * d)), 1 / (2 * d)))
    require_close(rows, np.array(want), 1e-9, "feller.csv ladder")


def _check_equivalence(st):
    require(_json(st, "equivalence.json")["ok"] is True, "equivalence.json is not ok")


def _check_estimate_hitting(st):
    a, b, x0, _ = st.hit
    est = _json(st, "estimate.json")
    left, right = est["left"], est["right"]
    require(left["n"] == HIT_N, "estimate.json path count")
    require_close(left["estimate"] + right["estimate"], 1.0, TOL, "left plus right exit")
    require_within_se(left["estimate"], (b - x0) / (b - a), left["stderr"], Z, 0.0,
                      "estimate.json hitting probability")


def _check_simulate_darning(st):
    t, _ = _values(st, "path.csv")
    require(bool(np.all(np.diff(t) > 0)) and t[-1] == WALK_HORIZON, "path.csv times")


def _check_estimate_occupation(st):
    t, x = _values(st, "path.csv")
    share, _ = batch_share(t, np.abs(x - WALK_ATOM) <= 1e-9, WALK_BURN_IN, WALK_HORIZON,
                           WALK_BATCHES)
    slack = 2 * float(np.max(np.diff(t))) * WALK_BATCHES / (WALK_HORIZON - WALK_BURN_IN)
    got = _json(st, "occupation.json")[0]["estimate"]
    require(abs(got - share) <= slack, f"occupation.json estimate {got!r} differs from {share!r}")


_CHECKS = {name: globals()[f"_check_{name}"] for name in COMMANDS}
