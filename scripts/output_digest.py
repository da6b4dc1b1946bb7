"""Write every deterministic output on seeded inputs, bit for bit, one line each.

A change that must not move any output runs this once against each checkout
and diffs the two files.  Inputs come from the generators in
``tests/helpers.py`` (random ``/240`` sets, fat-Cantor sets of every case,
periodic sets, float-endpoint sets) and from the ``cli`` workload of
``perfbench/``.  Per set it records every energy form, the energy measure,
the unit contraction, the trace measure (as ``traceform trace measure``
writes it, and as a speed measure with its float64 atom arrays), the trace
and darning transports, and the scalar scale and darning maps and their
inverses at every adapted node, given exactly and as floats.  It also
records the classes of the cells and nodes of the adapted grid, and its
darning images, on that grid and on a copy with one extra node
(``digest_grid_classes``), the scalar geometry at float probe points in G, in
F and past the window (``digest_probes``), and at exact ``Fraction`` probes
inside gaps, inside F-components and past the window (``digest_exact_probes``), and
the speed measures both scale functions and both darning maps push forward
there, with their float64 atom arrays (``digest_speeds``).  Every speed
measure recorded is followed by the holding means and absorbing flags of a
64-cell walk chain on it (``digest_chain``).  The
walk lines include two seeded ``simulate_xs`` paths on a ``/240`` set, with
reflecting and with absorbing ends, ``walk_paths`` on the darned speed of an
all-G set (infinite atoms) at every boundary pair, both holdings and a horizon
inside the first hold, each path with its horizon, absorption and seed, and the nodes and holding means of walk chains built
from the trace measures of fat-Cantor sets.  The exit lines give
library-level hitting and Laplace estimates (alpha 0.5 and 2) on one gap
and seed, at n = 50,000 and 100,000 and workers 1, 2 and None, with
estimate and stderr by ``repr``; each (n, workers) draws one
``exit_sample`` and reads all three from it.  The CLI
lines cover every leaf command, the ones the ``cli`` workload skips
included, and the ``format_help()`` text of every
parser at a fixed width of 100 columns.
The script digests the traceform of its own checkout: it puts that
checkout's ``src/`` first on ``sys.path`` and exits 1 if traceform is still
imported from anywhere else, so each checkout runs its own copy.
Each line is JSON: floats are written in hex, arrays as dtype, shape and raw
bytes, and a raised error as its type and message.  CLI artifacts are
written under one fixed temporary directory, because the manifests hash
their output paths, and are reported as sha256 digests, with the manifest
of each successful command hashed as soon as the command returns.  A run
holds an exclusive lock on a file beside that directory, so a second run
started while one is going exits at once with status 1; run the digests of
two checkouts one after the other.

Usage:
    python3 scripts/output_digest.py --out new.txt
    python3 ../parent/scripts/output_digest.py --out parent.txt
    diff parent.txt new.txt
"""

import argparse
import contextlib
import fcntl
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / part) for part in ("src", "tests", "perfbench", "perfbench/workloads")]

import numpy as np  # noqa: E402

import helpers as H  # noqa: E402
import traceform as tf  # noqa: E402
from traceform.cli import build_parser, main as cli_main  # noqa: E402
from traceform.simulate import (  # noqa: E402
    occupation_fractions, simulate_xs, walk_occupation, walk_paths)
from traceform.trace import trace_jump_energy, trace_local_energy, trace_measure_dict  # noqa: E402

if not Path(tf.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"output_digest: traceform came from {tf.__file__}, not {ROOT / 'src'}")

SEEDS = 60
WORK = Path(tempfile.gettempdir()) / "traceform-output-digest"
LOCK = WORK.with_suffix(".lock")


def canon(obj):
    if isinstance(obj, np.ndarray):
        return ["arr", str(obj.dtype), list(obj.shape), obj.tobytes().hex()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return ["f", float(obj).hex()]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, Fraction):
        return ["F", str(obj)]
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, tf.GridFunction):
        return canon([obj.grid, obj.values])
    if isinstance(obj, tf.TraceFunction):
        return canon([obj.nodes, obj.values])
    if isinstance(obj, tf.DarningMap):
        return canon(obj.image())
    if isinstance(obj, tf.SpeedMeasure):
        return canon([obj.to_dict(), *obj._atom_arrays])
    if isinstance(obj, tf.PathSample):
        return canon([obj.times, obj.states, obj.flags, obj.absorbed_at, obj.absorbed_time,
                      obj.horizon, obj.seed])
    if hasattr(obj, "to_dict"):
        return canon(obj.to_dict())
    return repr(obj)


class Digest:
    def __init__(self):
        self.lines = []

    def record(self, tag, fn):
        """Record fn()'s output, or the error it raises; return the output or None."""
        try:
            val = fn()
        except Exception as exc:
            self.lines.append(json.dumps([tag, ["error", type(exc).__name__, str(exc)]]))
            return None
        self.lines.append(json.dumps([tag, canon(val)]))
        return val


def fixed_sets():
    tails = [t for case in ("I", "II", "III") for t in H.TAILS_BY_CASE[case]]
    out = [tf.svc_complement(d, tails=t) for d in (1, 3, 6) for t in tails]
    out += [tf.periodic_fat_cantor(d, 2) for d in (1, 2, 3)]
    out += [tf.build_interval_set([(Fraction(1, 3), Fraction(2, 3))], (0, 1)),
            tf.build_interval_set([(0.1, 0.2), (0.30000000000000004, 0.7)], (0, 1))]
    return out


def digest_set(dg, t, iset, rng):
    rec = dg.record
    sf = tf.ScaleFunction(iset)
    u = H.random_gridfn(rng, iset)
    v = H.random_gridfn(rng, iset)
    rec(t + " cell_in_g", lambda: tf.gridfn.cell_in_g(u, iset))
    rec(t + " vanishes_on_f u", lambda: tf.vanishes_on_f(u, iset))
    rec(t + " is_in_subspace u", lambda: tf.is_in_subspace(u, iset))
    rec(t + " full", lambda: tf.dirichlet_energy(u, v))
    rec(t + " full self", lambda: tf.dirichlet_energy(u))
    s1 = H.random_subspace_member(rng, iset)
    s2 = H.random_subspace_member(rng, iset)
    rec(t + " subspace", lambda: tf.subspace_energy(s1, s2, iset=iset))
    rec(t + " subspace rejects", lambda: tf.subspace_energy(u, iset=iset))
    z1 = H.random_vanishing(rng, iset)
    z2 = H.random_vanishing(rng, iset)
    rec(t + " vanishes_on_f z", lambda: tf.vanishes_on_f(z1, iset))
    rec(t + " part", lambda: tf.part_energy(z1, z2, iset=iset))
    rec(t + " part rejects", lambda: tf.part_energy(u, iset=iset))
    rec(t + " energy_measure", lambda: tf.energy_measure(u, (0.1, 0.8), iset=iset, subspace=True))
    rec(t + " energy_measure full", lambda: tf.energy_measure(u, (0.1, 0.8)))
    rec(t + " unit_contraction", lambda: tf.unit_contraction(u))
    rec(t + " trace_measure", lambda: trace_measure_dict(iset))
    speed = rec(t + " trace_measure speed", lambda: tf.trace_measure(iset))
    digest_chain(dg, t + " trace_measure speed", speed)
    rec(t + " project u", lambda: tf.project_subspace(u, sf))
    rec(t + " project s", lambda: tf.project_subspace(s1, sf))
    c = H.random_complement_member(rng, sf)
    cf = H.random_complement_member(rng, sf, flat=True)
    rec(t + " is_in_complement", lambda: tf.is_in_complement(c, sf))
    for name, w in (("c", c), ("s", s1), ("u", u)):
        rec(f"{t} harmonic {name}", lambda: tf.decompose_harmonic(w, sf))
    phi = rec(t + " restrict u", lambda: tf.restrict_to_f(u, iset))
    if phi is not None:
        rec(t + " trace u", lambda: tf.trace_energy(phi))
        rec(t + " local u", lambda: trace_local_energy(phi))
        rec(t + " jump u", lambda: trace_jump_energy(phi))
        rec(t + " trace_subspace rejects", lambda: tf.trace_subspace_energy(phi))
        rec(t + " trace_complement rejects", lambda: tf.trace_complement_energy(phi))
    ps = rec(t + " restrict s", lambda: tf.restrict_to_f(s1, iset))
    if ps is not None:
        rec(t + " trace_subspace", lambda: tf.trace_subspace_energy(ps))
        rec(t + " jump s", lambda: trace_jump_energy(ps))
    pc = rec(t + " restrict cf", lambda: tf.restrict_to_f(cf, iset))
    pc2 = rec(t + " restrict cf2", lambda: tf.restrict_to_f(
        H.random_complement_member(rng, sf, flat=True), iset))
    if pc is not None and pc2 is not None:
        rec(t + " trace_complement", lambda: tf.trace_complement_energy(pc, pc2))
        rec(t + " trace_complement self", lambda: tf.trace_complement_energy(pc))
        rec(t + " local cf", lambda: trace_local_energy(pc))
    rtf = rec(t + " random trace", lambda: H.random_trace_fn(rng, iset))
    if rtf is not None:
        rec(t + " trace random", lambda: tf.trace_energy(rtf))
        rec(t + " local random", lambda: trace_local_energy(rtf))
        rec(t + " jump random", lambda: trace_jump_energy(rtf))
    dm = rec(t + " darning map", lambda: tf.DarningMap(iset))
    maps = [("scale", sf)] + ([("darn", dm)] if dm is not None else [])
    digest_node_maps(dg, t, iset, maps)
    # a generator of its own, so the lines after these draw what they drew before
    digest_probes(dg, t, iset, np.random.default_rng([int(v) for v in t.split(".")]))
    digest_grid_classes(dg, t, iset, dm)
    if dm is None:
        return
    uh = rec(t + " darn cf", lambda: tf.darn_function(cf, dm))
    rec(t + " darn u", lambda: tf.darn_function(u, dm))
    if pc is not None:
        rec(t + " darn_trace cf", lambda: tf.darn_trace(pc, dm))
    if phi is not None:
        rec(t + " darn_trace u", lambda: tf.darn_trace(phi, dm))
    if uh is not None:
        rec(t + " undarn", lambda: tf.undarn_function(uh, dm))
        rec(t + " darned energy", lambda: tf.darned_energy(uh))
    rec(t + " equivalence", lambda: tf.equivalence_report(
        [cf, H.random_complement_member(rng, sf, flat=True)], dm))


def digest_grid_classes(dg, t, iset, dm):
    """``classify`` of the cells and of the nodes, the darning map's array
    images and ``darn_function`` of a function constant on each component
    closure, on the adapted grid and on a copy with one extra node."""
    adapted = tf.adapted_grid(iset)
    extra = np.union1d(adapted, [(adapted[0] + adapted[1]) / 2])
    for kind, grid in (("adapted", adapted), ("extra", extra)):
        dg.record(f"{t} classify cells {kind}", lambda: iset.classify((grid[:-1] + grid[1:]) / 2))
        dg.record(f"{t} classify nodes {kind}", lambda: iset.classify(grid, nodes=True))
        if dm is not None:
            dg.record(f"{t} darn images {kind}", lambda: dm(grid))
            dg.record(f"{t} darn constant {kind}", lambda: tf.darn_function(
                tf.GridFunction(grid, np.cos(dm(grid))), dm))


def digest_node_maps(dg, t, iset, maps):
    """Each scalar map and its inverse at every adapted node, given exactly
    and as the float node of the adapted grid."""
    w0, w1 = iset.window
    exact = sorted({w0, w1} | {p for p in iset.endpoints if w0 <= p <= w1})
    for kind, nodes in (("exact", exact), ("float", tf.adapted_grid(iset).tolist())):
        for name, f in maps:
            ys = dg.record(f"{t} {name} {kind} nodes", lambda: [f(x) for x in nodes])
            if ys is not None:
                dg.record(f"{t} {name} inverse {kind} nodes", lambda: [f.inverse(y) for y in ys])


def each(fn, xs):
    """fn at every point; a point that raises gives its error type and message."""
    out = []
    for x in xs:
        try:
            out.append(fn(x))
        except Exception as exc:
            out.append(["error", type(exc).__name__, str(exc)])
    return out


def digest_probes(dg, t, iset, rng):
    """The scalar geometry at float probe points: ends and points a few ulps
    off them, gap interiors, and points past the window (two and a half
    periods for periodic sets).  Covers ``lebesgue`` from the left window
    edge, ``component_index``, ``in_g``, the scale and darning maps and their
    inverses, a scale function with a float anchor and a darning map with an
    explicit float anchor."""
    rec = dg.record
    w0, w1 = iset.window
    beyond = 2.5 * float(iset.period) if iset.period is not None else 0.5
    xs = H.probe_points(iset, rng, beyond).tolist()
    for which in ("G", "F"):
        rec(f"{t} probe lebesgue {which}", lambda: each(
            lambda x: iset.lebesgue(w0, x, which) if x >= w0 else iset.lebesgue(x, w0, which), xs))
    rec(f"{t} probe component_index", lambda: each(iset.component_index, xs))
    rec(f"{t} probe in_g", lambda: each(iset.in_g, xs))
    span = float(w1 - w0)
    maps = [("scale", tf.ScaleFunction(iset)),
            ("scale float anchor", tf.ScaleFunction(iset, anchor=float(w0) + 0.3 * span))]
    for name, make in (("darn", lambda: tf.DarningMap(iset)),
                       ("darn float z", lambda: tf.DarningMap(iset, z=_float_z(iset)))):
        dm = rec(f"{t} probe {name} map", make)
        if dm is not None:
            maps.append((name, dm))
    digest_maps(dg, f"{t} probe", maps, xs)
    # exact probes from a generator of their own, so the float probes keep their draws
    seed = [int(v) for v in t.split(".")] + [1]
    digest_exact_probes(dg, t, iset, maps, np.random.default_rng(seed))
    digest_speeds(dg, t, maps)


def digest_maps(dg, tag, maps, xs):
    """Each map and its inverse at every point of ``xs``."""
    for name, f in maps:
        ys = dg.record(f"{tag} {name}", lambda: each(f, xs))
        dg.record(f"{tag} {name} inverse", lambda: each(
            lambda y: y if isinstance(y, list) else f.inverse(y), ys))


def digest_exact_probes(dg, t, iset, maps, rng):
    """The scalar geometry at exact interior probes: ``Fraction`` points
    inside gaps, inside F-components and past either window edge (two and a
    half periods for periodic sets), through ``lebesgue`` from the left
    window edge, ``component_index``, ``in_g`` and the maps of
    ``digest_probes``."""
    w0, w1 = iset.window
    beyond = Fraction(5, 2) * iset.period if iset.period is not None else Fraction(1, 2)

    def inside(pieces, n):
        picks = rng.permutation(len(pieces))[:n].tolist()
        return [lo + (hi - lo) * Fraction(int(k), 997)
                for i in picks for lo, hi in [pieces[i]] for k in rng.integers(1, 997, size=2)]

    xs = inside(iset.components, 8) + inside(iset.f_components, 8)
    xs += [w0 - beyond * Fraction(int(k), 997) for k in rng.integers(1, 998, size=4)]
    xs += [w1 + beyond * Fraction(int(k), 997) for k in rng.integers(1, 998, size=4)]
    for which in ("G", "F"):
        dg.record(f"{t} exact probe lebesgue {which}", lambda: each(
            lambda x: iset.lebesgue(w0, x, which) if x >= w0 else iset.lebesgue(x, w0, which), xs))
    dg.record(f"{t} exact probe component_index", lambda: each(iset.component_index, xs))
    dg.record(f"{t} exact probe in_g", lambda: each(iset.in_g, xs))
    digest_maps(dg, f"{t} exact probe", maps, xs)


def digest_speeds(dg, t, maps):
    """The pushforward of Lebesgue measure under each scale function, and
    of every source under each darning map."""
    for name, f in maps:
        if isinstance(f, tf.ScaleFunction):
            tag = f"{t} speed {name}"
            digest_chain(dg, tag, dg.record(tag, lambda: tf.scale_pushforward_speed(f)))
            continue
        for source in ("lebesgue", "f_indicator"):
            tag = f"{t} speed {name} {source}"
            digest_chain(dg, tag, dg.record(tag, lambda: tf.pushforward_speed(f, source)))


def digest_chain(dg, tag, speed):
    """The holding means and absorbing flags of the walk chain on a recorded
    speed measure with 64 cells; none when the measure raised."""
    if speed is None:
        return
    lo, hi = (float(x) for x in speed.carrier)

    def fields():
        chain = tf.build_chain(speed, (hi - lo) / 64)
        return [chain.holds, chain.absorbing]

    dg.record(tag + " chain", fields)


def _float_z(iset):
    """The float midpoint of the last F-component of the window."""
    lo, hi = iset.f_components[-1] if iset.f_components else iset.window
    return (float(lo) + float(hi)) / 2


def digest_walks(dg):
    speed = tf.pushforward_speed(tf.DarningMap(tf.svc_complement(1), z=0), "lebesgue")
    targets = [0.375, (0.0, 0.2)]
    for seed in (1, 5, 9):
        dg.record(f"walk_occupation {seed}", lambda: walk_occupation(
            speed, 3 / 128, 0.1, 100.0, seed=seed, targets=targets, burn_in=10.0))
        path = walk_paths(speed, 3 / 128, 0.1, 100.0, seed=seed)
        dg.record(f"occupation_fractions {seed}", lambda: occupation_fractions(
            path, targets=targets, burn_in=10.0))
    iset = tf.build_interval_set([(Fraction(30, 240), Fraction(90, 240)),
                                  (Fraction(120, 240), Fraction(200, 240))], (0, 1))
    dg.record("simulate_xs 240", lambda: simulate_xs(
        tf.ScaleFunction(iset, anchor=0), 1 / 96, 0.3, 5.0, seed=3))
    dg.record("simulate_xs 240 absorb", lambda: simulate_xs(
        tf.ScaleFunction(iset, anchor=0), 1 / 96, 0.3, 5.0, seed=3, boundary=("absorb", "absorb")))
    # infinite atoms at both carrier ends; the walk starts on an atom whose
    # first hold, 0.0061 on average, outlasts the 1e-3 horizon
    allg = tf.pushforward_speed(tf.DarningMap(tf.svc_complement(1, tails=(tf.Tail.ALL_G,) * 2)),
                                "lebesgue")
    ends = ("reflect", "absorb")
    for boundary in [(left, right) for left in ends for right in ends]:
        for holding in ("exponential", "deterministic"):
            for horizon in (1e-3, 5.0):
                dg.record(f"walk_paths allg {'-'.join(boundary)} {holding} {horizon}",
                          lambda: walk_paths(allg, 3 / 128, 0.1875, horizon, seed=4,
                                             boundary=boundary, holding=holding))
    for d in (1, 3, 5):
        # a WalkChain has no to_dict and its repr shortens the arrays
        dg.record(f"build_chain trace svc{d}", lambda: _chain_fields(tf.build_chain(
            tf.trace_measure(tf.svc_complement(d)), 2**-(2 * d))))


def digest_exits(dg):
    """Exit estimates at criterion 6's corrected setting: one sample per
    (n, workers), read for its hitting and Laplace lines."""
    a, b = Fraction(-1, 4), Fraction(3, 2)
    gap = tf.build_interval_set([(a, b)], (a, b))
    dt = (float(b - a) / 40) ** 2
    for n in (50_000, 100_000):
        for workers in (1, 2, None):
            exits = tf.exit_sample(gap, 0.3, n, 17, dt=dt, correct=True, workers=workers)
            calls = [("hitting", exits.hitting)]
            calls += [(f"laplace {alpha}", lambda alpha=alpha: exits.laplace(alpha))
                      for alpha in (0.5, 2.0)]
            for name, fn in calls:
                dg.record(f"exit {name} n={n} workers={workers}",
                          lambda: [[repr(r.estimate), repr(r.stderr)] for r in fn()])


def _chain_fields(chain):
    return [chain.nodes, chain.holds, chain.absorbing, chain.atom_nodes]


def digest_cli(dg):
    import cli as workload

    from spans import Tracer

    for seed in (1, 2, 3):
        shutil.rmtree(WORK, ignore_errors=True)
        st = workload.setup(seed, WORK, Tracer(False))
        inputs = WORK / "inputs"
        u_csv, v_csv, w_csv = (str(inputs / f"{n}.csv") for n in "uvw")
        speed_json = inputs / "speed.json"
        speed_json.write_text(json.dumps(tf.pushforward_speed(
            tf.DarningMap(tf.svc_complement(1), z=0), "lebesgue").to_dict()))
        # a subspace member (flat on F) and a function vanishing on F
        grid, in_g = st.geo.grid, st.geo.cell_in_g
        s_csv = workload._write_csv(inputs / "s.csv", grid, np.sin(3 * st.geo.g_cum))
        mids = ((grid[:-1] + grid[1:]) / 2)[in_g]
        z_grid = np.sort(np.concatenate([grid, mids]))
        z_val = np.where(np.isin(z_grid, mids), np.interp(z_grid, mids, np.diff(grid)[in_g]), 0.0)
        z_csv = workload._write_csv(inputs / "z.csv", z_grid, z_val)
        walk = ["--x0", "0.3", "--horizon", "5", "--seed", str(seed)]
        extra = [
            ["energy", "subspace", "--svc-depth", "5", "--u", u_csv],
            ["energy", "part", "--svc-depth", "5", "--u", u_csv],
            ["energy", "measure", "--svc-depth", "5", "--u", u_csv, "--interval", "0.1,0.9",
             "--subspace"],
            ["decompose", "--svc-depth", "5", "--u", u_csv, "--harmonic"],
            ["trace", "subspace", "--svc-depth", "5", "--phi", u_csv],
            ["trace", "energy", "--svc-depth", "5", "--phi", v_csv],
            ["energy", "subspace", "--svc-depth", "5", "--u", s_csv, "--v", s_csv],
            ["energy", "part", "--svc-depth", "5", "--u", z_csv],
            ["trace", "subspace", "--svc-depth", "5", "--phi", s_csv],
            ["trace", "subspace", "--svc-depth", "5", "--phi", v_csv, "--psi", w_csv,
             "--complement"],
            ["set", "build", "--components", "1/8,3/8;1/2,5/6", "--window", "0,1",
             "--tails", "Periodic,Periodic", "--period", "1"],
            ["simulate", "bm", "--n", "2", "--dt", "0.01", "--horizon", "0.2", "--x0", "0.25",
             "--seed", str(seed)],
            ["simulate", "walk", "--speed", str(speed_json), "--h", repr(3 / 128), *walk,
             "--boundary", "reflect,absorb"],
            ["simulate", "xs", "--components", "1/8,3/8;1/2,5/6", "--window", "0,1",
             "--h", repr(1 / 96), *walk, "--holding", "deterministic"],
            ["estimate", "laplace", "--gap=-1/2,1", "--x0", "0.1", "--alpha", "2",
             "--n", "3000", "--seed", str(seed), "--correct"],
        ]
        runs = [argv for _, argv in st.commands]
        runs += [argv + ["--out", str(st.out / f"extra{k}")] for k, argv in enumerate(extra)]
        for argv in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli_main(argv)
            dg.lines.append(json.dumps([f"cli {seed} {' '.join(argv[:2])}", rc, buf.getvalue()]))
            if rc == 0:
                # the workload's commands share one output directory, so hash
                # each manifest before the next command overwrites it
                manifest = Path(argv[argv.index("--out") + 1]) / "manifest.json"
                dg.lines.append(json.dumps([f"cli {seed} {' '.join(argv[:2])} manifest",
                                            hashlib.sha256(manifest.read_bytes()).hexdigest()]))
        for p in sorted(st.out.rglob("*")):
            if p.is_file():
                dg.lines.append(json.dumps([f"cli {seed} file", str(p.relative_to(WORK)),
                                            hashlib.sha256(p.read_bytes()).hexdigest()]))
    shutil.rmtree(WORK, ignore_errors=True)


def digest_help(dg):
    """The ``format_help()`` text of every parser of the command tree."""
    os.environ["COLUMNS"] = "100"

    def walk(parser, path):
        dg.lines.append(json.dumps([f"help {path}", parser.format_help()]))
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}")

    walk(build_parser(), "traceform")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    with open(LOCK, "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"output_digest: another run holds {LOCK}; run one digest at a time",
                  file=sys.stderr)
            return 1
        return digest_all(args.out)


def digest_all(out: Path) -> int:
    dg = Digest()
    fixed = fixed_sets()
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        isets = [H.random_iset(rng, case) for case in (None, "I", "II", "III")]
        if seed < len(fixed):
            isets.append(fixed[seed])
        for k, iset in enumerate(isets):
            digest_set(dg, f"{seed}.{k}", iset, rng)
    digest_walks(dg)
    digest_exits(dg)
    digest_cli(dg)
    digest_help(dg)
    out.write_text("\n".join(dg.lines) + "\n")
    print(f"{len(dg.lines)} outputs -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
