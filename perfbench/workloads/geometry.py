"""geometry: the deterministic pipeline on four depth-6 fat-Cantor sets.

The four sets carry every tail kind: AllF/AllF (Case III), AllG/AllF
(Case II), AllG/AllG (Case I) and a periodic fat Cantor set (Case I,
Periodic tails).  The interval, transform, gridfn, energy, decompose, trace
and darning modules do nearly all the work and no Monte Carlo runs.  The seed
draws only function values, so the work per operation is the same for every
seed.  The maps called once per grid node (``lebesgue``, ``component_index``,
the scale and darning maps and their inverses) run on the Case III set only.

Depth 6 (63 gaps, 128 nodes per set) keeps one operation near 2 s on two
cores, so a 35 s run times about thirteen.  At depth 7 one operation takes 6 to
8.5 s: a run would hold three set-ups of that length and one or two timed
operations, too few for a median to smooth the machine's speed swings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import traceform as tf
from traceform.gridfn import cell_in_g
from traceform.intervals import Tail

from oracle import (Geometry, cell_energy, cell_l2, fat_cantor_gaps, jump_sum, require,
                    require_close)

DEPTH = 6
TOL = 1e-12
TAILS = ((Tail.ALL_F, Tail.ALL_F), (Tail.ALL_G, Tail.ALL_F), (Tail.ALL_G, Tail.ALL_G))
PERIOD = 2

KERNEL = "intervals"  # reference kernel (calibrate.py): the pipeline is Fraction-bound

LAYER_METRICS = {name: "s" for name in (
    "intervals.build_s", "intervals.lebesgue_s", "intervals.component_index_s",
    "transforms.scale_s", "transforms.scale_inverse_s", "transforms.darn_s",
    "transforms.darn_inverse_s",
    "gridfn.from_callable_s", "gridfn.cell_in_g_s", "gridfn.darn_function_s",
    "gridfn.undarn_function_s",
    "energy.dirichlet_s", "energy.subspace_s", "energy.part_s",
    "decompose.project_subspace_s",
    "trace.restrict_to_f_s", "trace.trace_energy_s", "trace.trace_subspace_s",
    "trace.trace_complement_s",
    "darning.darn_trace_s", "darning.equivalence_report_s",
)}


@dataclass
class Item:
    """One set, its transforms, the seeded inputs and the benchmark's own values."""

    iset: tf.IntervalSet
    sf: tf.ScaleFunction
    dm: tf.DarningMap
    geo: Geometry
    u_coef: tuple           # a, k, phase of sum a sin(k x + phase), plus a quadratic term
    v: np.ndarray           # complement-type sample: constant on each gap closure
    w: tf.GridFunction      # vanishes on F: values only at gap midpoints
    s_want: np.ndarray      # scale function at each node
    j_want: np.ndarray      # darning map at each node
    g_mass_want: Fraction   # exact G-mass of the window
    probe_nodes: bool       # call the per-node maps on this set

    def u_fn(self, x):
        a, k, ph, q = self.u_coef
        return (a[:, None] * np.sin(k[:, None] * x + ph[:, None])).sum(axis=0) + q * x * x


def _build_sets():
    sets = [tf.svc_complement(DEPTH, tails=t) for t in TAILS]
    sets.append(tf.periodic_fat_cantor(DEPTH, PERIOD))
    return sets


def setup(seed: int, workdir, tracer):
    rng = np.random.default_rng(seed)
    with tracer.span("intervals.build"):
        sets = _build_sets()
    core = fat_cantor_gaps(DEPTH)
    core_mass = Fraction(1, 2) * (1 - Fraction(1, 2**DEPTH))
    items = []
    for i, iset in enumerate(sets):
        periodic = iset.tail_left is Tail.PERIODIC
        gaps = core + [(Fraction(1), Fraction(PERIOD))] if periodic else core
        window = (0, PERIOD) if periodic else (0, 1)
        geo = Geometry(window, gaps)
        sf = tf.ScaleFunction(iset)
        dm = tf.DarningMap(iset)
        u_coef = (rng.normal(size=4), rng.uniform(1, 12, size=4),
                  rng.uniform(0, 2 * math.pi, size=4), float(rng.normal()))
        j_want = geo.f_mass_from(float(dm.z))
        lo, hi = j_want[0], j_want[-1]
        amp = rng.normal(size=3)
        y = (j_want - lo) / (hi - lo)
        v = sum(amp[k] * np.sin((k + 1) * math.pi * y) for k in range(3))
        mids = np.array([(float(a) + float(b)) / 2 for a, b in gaps])
        w_grid = np.union1d(geo.grid, mids)
        w_vals = np.where(np.isin(w_grid, mids), rng.normal(size=w_grid.size), 0.0)
        items.append(Item(
            iset=iset, sf=sf, dm=dm, geo=geo, u_coef=u_coef, v=v,
            w=tf.GridFunction(w_grid, w_vals),
            s_want=geo.g_mass_from(float(sf.anchor)), j_want=j_want,
            g_mass_want=core_mass + (1 if periodic else 0),
            probe_nodes=i == 0,  # the Case III set
        ))
    return items


def operation(items, tracer) -> None:
    for item in items:
        _one_set(item, tracer)


def _contains(pre, xs, what):
    lo = np.array([float(p[0]) for p in pre])
    hi = np.array([float(p[1]) for p in pre])
    slack = TOL * np.maximum(1.0, np.abs(xs))
    require(bool(np.all((lo - slack <= xs) & (xs <= hi + slack))),
            f"{what}: a preimage misses the node it came from")


def _node_maps(it: Item, tracer) -> None:
    """Interval and transform maps called once per grid node, cell midpoint or
    node image, each checked against the running sums."""
    iset, sf, dm, geo = it.iset, it.sf, it.dm, it.geo
    grid = geo.grid
    nodes = grid.tolist()
    mids = ((grid[:-1] + grid[1:]) / 2).tolist()
    w0 = iset.window[0]
    with tracer.span("intervals.component_index"):
        idx = [iset.component_index(m) for m in mids]
    require([i is not None for i in idx] == geo.cell_in_g.tolist(),
            "component_index disagrees with the gap list")
    with tracer.span("intervals.lebesgue"):
        g_mass = [iset.lebesgue(w0, x) for x in nodes]
    require_close([float(m) for m in g_mass], geo.g_cum, TOL, "lebesgue G-mass")

    with tracer.span("transforms.scale"):
        s = [sf(x) for x in nodes]
    require_close([float(y) for y in s], it.s_want, TOL, "scale function")
    with tracer.span("transforms.scale_inverse"):
        pre = [sf.inverse(y) for y in s]
    _contains(pre, grid, "scale inverse")
    with tracer.span("transforms.darn"):
        j = [dm(x) for x in nodes]
    require_close([float(y) for y in j], it.j_want, TOL, "darning map")
    with tracer.span("transforms.darn_inverse"):
        pre = [dm.inverse(y) for y in j]
    _contains(pre, grid, "darning inverse")


def _one_set(it: Item, tracer) -> None:
    iset, sf, dm, geo = it.iset, it.sf, it.dm, it.geo
    grid = geo.grid
    require(iset.g_mass_window == it.g_mass_want,
            f"window G-mass {iset.g_mass_window} != {it.g_mass_want}")

    with tracer.span("gridfn.from_callable"):
        u = tf.from_callable(it.u_fn, iset)
    require(np.array_equal(u.grid, grid), "from_callable grid is not the adapted grid")
    uv = u.values
    with tracer.span("gridfn.cell_in_g"):
        in_g = cell_in_g(u, iset)
    require(np.array_equal(in_g, geo.cell_in_g), "cell_in_g disagrees with the gap list")
    if it.probe_nodes:
        _node_maps(it, tracer)

    # orthogonal decomposition u = u1 + u2
    with tracer.span("decompose.project_subspace"):
        dec = tf.project_subspace(u, sf)
    u1, u2 = dec.u1.values, dec.u2.values
    e_u = cell_energy(grid, uv)
    require(np.array_equal(dec.u1.grid, grid) and np.array_equal(dec.u2.grid, grid),
            "decomposition changed the grid")
    require_close(u1 + u2, uv, TOL, "u1 + u2 = u")
    require(bool(np.all(np.diff(u1)[~geo.cell_in_g] == 0.0)), "u1 is not flat on F-cells")
    cross = cell_energy(grid, u1, u2)
    require(abs(cross) <= TOL * max(1.0, e_u), f"E(u1, u2) = {cross:.3e} is not zero")
    require_close(cell_energy(grid, u1) + cell_energy(grid, u2), e_u, TOL,
                  "E(u) = E(u1) + E(u2)")

    with tracer.span("energy.dirichlet"):
        energies = [tf.dirichlet_energy(f, g).value
                    for f, g in ((u, u), (dec.u1, dec.u1), (dec.u2, dec.u2), (dec.u1, dec.u2))]
    require_close(energies, [e_u, cell_energy(grid, u1), cell_energy(grid, u2), cross],
                  TOL, "dirichlet_energy")
    with tracer.span("energy.subspace"):
        e_sub = tf.subspace_energy(dec.u1, iset=iset).value
    require_close(e_sub, cell_energy(grid, u1, mask=geo.cell_in_g), TOL, "subspace_energy")
    with tracer.span("energy.part"):
        e_part = tf.part_energy(it.w, iset=iset).value
    require_close(e_part, cell_energy(it.w.grid, it.w.values), TOL, "part_energy")

    # trace forms on F; every node of the adapted grid lies in F
    v = tf.GridFunction(grid, it.v)
    with tracer.span("trace.restrict_to_f"):
        phi = tf.restrict_to_f(u, iset)
        phi1 = tf.restrict_to_f(dec.u1, iset)
        psi = tf.restrict_to_f(v, iset)
    require(all(np.array_equal(t.nodes, grid) for t in (phi, phi1, psi)),
            "restrict_to_f dropped a node of F")
    with tracer.span("trace.trace_energy"):
        e_tr = tf.trace_energy(phi).value
    local = cell_energy(grid, uv, mask=~geo.cell_in_g)
    require_close(e_tr, e_u, TOL, "trace_energy against the cell sum")
    require_close(e_tr, local + jump_sum(grid, uv, geo.cell_in_g), TOL,
                  "trace_energy against local plus jump parts")
    with tracer.span("trace.trace_subspace"):
        e_ts = tf.trace_subspace_energy(phi1).value
    require_close(e_ts, jump_sum(grid, u1, geo.cell_in_g), TOL, "trace_subspace_energy")
    with tracer.span("trace.trace_complement"):
        e_tc = tf.trace_complement_energy(psi).value
    e_v = cell_energy(grid, it.v)
    require_close(e_tc, cell_energy(grid, it.v, mask=~geo.cell_in_g), TOL,
                  "trace_complement_energy")

    # darning: the line side and the trace side must agree node for node
    keep = np.concatenate([[True], np.diff(it.j_want) > 0])
    with tracer.span("gridfn.darn_function"):
        vh = tf.darn_function(v, dm)
    require_close(vh.grid, it.j_want[keep], TOL, "darn_function nodes")
    require_close(vh.values, it.v[keep], TOL, "darn_function values")
    with tracer.span("darning.darn_trace"):
        ph = tf.darn_trace(psi, dm)
    require(np.array_equal(ph.grid, vh.grid) and np.array_equal(ph.values, vh.values),
            "darn_trace and darn_function disagree")
    with tracer.span("gridfn.undarn_function"):
        back = tf.undarn_function(vh, dm)
    require_close(back(grid), it.v, TOL, "undarn_function(darn_function(v)) at v's nodes")
    with tracer.span("darning.equivalence_report"):
        rep = tf.equivalence_report([v], dm)
    s0 = rep.samples[0]
    sup = float(np.max(np.abs(it.v)))
    l2 = cell_l2(grid, it.v)
    require(rep.ok, "equivalence_report is not ok")
    require_close([s0.sup_line, s0.sup_darned], [sup, sup], TOL, "sup norm under darning")
    require_close([s0.energy_line, s0.energy_darned], [e_v, e_v], TOL, "energy under darning")
    require_close([s0.l2_line, s0.l2_darned], [l2, l2], TOL, "L2 norm under darning")
