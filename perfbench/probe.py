"""Scaling probe: how three geometry kernels grow from depth 6 to depth 8.

On the Case III fat-Cantor set (AllF tails) the adapted grid has n = 2**(d+1)
nodes and m = 2**d - 1 gaps, so n grows fourfold from depth 6 to depth 8.
Each exponent is log(t8 / t6) / log(n8 / n6); both times are printed as its
base.  Each time is the median of REPEATS calls.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import traceform as tf
from traceform.gridfn import cell_in_g

from oracle import Geometry, fat_cantor_gaps, require, require_close

DEPTHS = (6, 8)
REPEATS = 3
KERNELS = ("intervals.lebesgue", "gridfn.cell_in_g", "gridfn.darn_function")

LAYER_METRICS = {f"{name}{suffix}": unit for name in KERNELS
                 for suffix, unit in ((f"_d{DEPTHS[0]}_s", "s"), (f"_d{DEPTHS[1]}_s", "s"),
                                      ("_exp", "1"))}


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run() -> dict[str, float]:
    seconds = {}
    nodes = {}
    for depth in DEPTHS:
        iset = tf.svc_complement(depth)
        dm = tf.DarningMap(iset)
        geo = Geometry((0, 1), fat_cantor_gaps(depth))
        u = tf.from_callable(np.sin, iset)
        require(np.array_equal(u.grid, geo.grid), f"depth-{depth} adapted grid")
        j = geo.f_mass_from(float(dm.z))
        v = tf.GridFunction(geo.grid, np.cos(3 * j))
        w0 = iset.window[0]
        xs = geo.grid.tolist()
        seconds["intervals.lebesgue", depth] = _median_seconds(
            lambda: [iset.lebesgue(w0, x) for x in xs])
        seconds["gridfn.cell_in_g", depth] = _median_seconds(lambda: cell_in_g(u, iset))
        seconds["gridfn.darn_function", depth] = _median_seconds(lambda: tf.darn_function(v, dm))
        keep = np.concatenate([[True], np.diff(j) > 0])
        require_close(tf.darn_function(v, dm).grid, j[keep], 1e-12, f"depth-{depth} darned nodes")
        nodes[depth] = geo.grid.size
    lo, hi = DEPTHS
    out = {}
    for name in KERNELS:
        t_lo, t_hi = seconds[name, lo], seconds[name, hi]
        out[f"{name}_d{lo}_s"] = t_lo
        out[f"{name}_d{hi}_s"] = t_hi
        out[f"{name}_exp"] = math.log(t_hi / t_lo) / math.log(nodes[hi] / nodes[lo])
    return out
