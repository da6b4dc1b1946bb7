"""walk: speed-measure walks, one streaming and one recorded.

The streaming part is ``walk_occupation`` of the darned walk on the depth-1
fat-Cantor set, whose one atom sits at the collapsed gap (the setting of
acceptance criterion 7 on a shorter horizon).  The recorded part is one
``simulate_xs`` path of the scale-side walk on the depth-2 set, about three
million samples, followed by ``occupation_fractions`` on it.  Streaming keeps
memory constant while recording grows with the number of visits, so a gain
for one that costs the other shows in ``op_s`` or ``peak_rss_mib``.  Every
operation repeats the same walks with the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import traceform as tf
from traceform.simulate import build_chain, occupation_fractions, simulate_xs, walk_occupation
from traceform.transforms import scale_pushforward_speed

from oracle import batch_share, fat_cantor_gaps, require, require_close, require_within_se

OCC_DEPTH, OCC_H, OCC_X0, OCC_HORIZON, OCC_BURN_IN = 1, 3 / 1280, 0.1, 100.0, 10.0
XS_DEPTH, XS_H, XS_X0, XS_HORIZON, XS_BURN_IN = 2, 1 / 512, 0.1, 30.0, 1.0
BATCHES = 20
Z = 4.0
H_ALLOWANCE = 4  # the h-grid chains sit h (darned walk) and 3h (scale-side walk) from the exact shares

KERNEL = "arrays"  # reference kernel (calibrate.py): the walk engine is numpy-bound

LAYER_METRICS = {
    "transforms.pushforward_s": "s",
    "simulate.build_chain_s": "s",
    "simulate.walk_occupation_s": "s",
    "simulate.walk_time_per_s": "time/s",
    "simulate.simulate_xs_s": "s",
    "simulate.path_samples": "count",
    "simulate.occupation_fractions_s": "s",
}


@dataclass
class State:
    dm: tf.DarningMap
    sf: tf.ScaleFunction
    occ_seed: int
    xs_seed: int
    atoms: list[tuple[float, float]]      # (darned position, width = long-run share)
    f_pieces: list[tuple[float, float]]   # F-components of the depth-2 window
    f_share: float                        # m(F in window) / |window|


def setup(seed: int, workdir, tracer):
    rng = np.random.default_rng(seed)
    occ_set = tf.svc_complement(OCC_DEPTH)
    xs_set = tf.svc_complement(XS_DEPTH)
    dm = tf.DarningMap(occ_set)
    # the darned image of [0, 1] keeps F's length; each gap becomes an atom
    # at the F-length to its left, weighing its width, which is also its exact
    # long-run share of time since the window has length 1
    occ_gaps = fat_cantor_gaps(OCC_DEPTH)
    atoms = []
    for a, b in occ_gaps:
        f_left = a - sum((y - x for x, y in occ_gaps if y <= a), Fraction(0))
        atoms.append((float(f_left - Fraction(dm.z)), float(b - a)))
    xs_gaps = fat_cantor_gaps(XS_DEPTH)
    edges = [Fraction(0)] + [e for ab in xs_gaps for e in ab] + [Fraction(1)]
    f_pieces = [(float(edges[i]), float(edges[i + 1])) for i in range(0, len(edges), 2)]
    f_share = 1 - sum((b - a for a, b in xs_gaps), Fraction(0))
    return State(dm, tf.ScaleFunction(xs_set), int(rng.integers(0, 2**31)),
                 int(rng.integers(0, 2**31)), atoms, f_pieces, float(f_share))


def operation(st: State, tracer) -> None:
    with tracer.span("transforms.pushforward"):
        speed = tf.pushforward_speed(st.dm, "lebesgue")
        scale_speed = scale_pushforward_speed(st.sf)
    require([(float(p), float(m)) for p, m in speed.atoms] == st.atoms,
            "darned speed atoms differ from the collapsed gaps")
    with tracer.span("simulate.build_chain"):
        chain = build_chain(speed, OCC_H)
        scale_chain = build_chain(scale_speed, XS_H)
    lo, hi = (float(x) for x in speed.carrier)
    require(chain.nodes.size == round((hi - lo) / OCC_H) + 1, "chain node count")
    for k, (p, m) in zip(chain.atom_nodes, st.atoms):
        require_close(chain.holds[k], OCC_H * m + OCC_H**2, 1e-12, f"hold at the atom {p}")
    require(len(scale_chain.atom_nodes) == len(st.f_pieces),
            "scale-side chain has not one atom per F-component")

    with tracer.span("simulate.walk_occupation") as sp:
        occ = walk_occupation(speed, OCC_H, OCC_X0, OCC_HORIZON, st.occ_seed,
                              targets=[p for p, _ in st.atoms], burn_in=OCC_BURN_IN,
                              batches=BATCHES)
    if tracer.enabled:
        tracer.count("simulate.walk_time_per_s", OCC_HORIZON / sp.seconds)
    for res, (p, share) in zip(occ, st.atoms):
        require(res.n == BATCHES and res.warning is None, "walk_occupation batches")
        require_within_se(res.estimate, share, res.stderr, Z, H_ALLOWANCE * OCC_H,
                          f"occupation of the atom at {p}")

    with tracer.span("simulate.simulate_xs"):
        path = simulate_xs(st.sf, XS_H, XS_X0, XS_HORIZON, st.xs_seed)
    tracer.count("simulate.path_samples", path.times.size)
    require(bool(np.all(np.diff(path.times) > 0)), "recorded times do not strictly increase")
    require(path.times[-1] == XS_HORIZON, "recorded path does not end at the horizon")
    on_f = path.flags == 1
    share, se = batch_share(path.times, on_f, XS_BURN_IN, XS_HORIZON, BATCHES)
    require_within_se(share, st.f_share, se, Z, H_ALLOWANCE * XS_H, "time share on F plateaus")

    with tracer.span("simulate.occupation_fractions"):
        fr = occupation_fractions(path, st.f_pieces, burn_in=XS_BURN_IN, batches=BATCHES)
    # occupation_fractions gives each dwell to the slice where it starts, and
    # batch_share splits it at slice edges: they differ by at most the
    # longest dwell per slice
    slack = 2 * float(np.max(np.diff(path.times))) * BATCHES / (XS_HORIZON - XS_BURN_IN)
    total = sum(r.estimate for r in fr)
    require(abs(total - share) <= slack,
            f"occupation_fractions F-share {total!r} differs from {share!r} by more than {slack:.2e}")
