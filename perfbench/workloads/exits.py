"""exit: a fixed battery of Euler exit estimates on single gaps.

Settings are the ones acceptance criterion 6 validates: ``correct=True`` with
dt = (d/40)**2 for hitting and (d/50)**2 for Laplace, and the default
``workers``.  Gaps are drawn as criterion 6 draws them (left end k/16 with k
in [-16, 16), width m/16 with m in [4, 33)).  The start point sits at a
fraction of the gap drawn within +-0.02 of a fixed centre: the number of Euler
steps depends only on that fraction, so the work per operation is nearly the
same for every seed.  Every operation repeats the same estimates with the same
estimator seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import traceform as tf
from traceform.simulate import estimate_hitting, estimate_laplace

from oracle import require, require_close, require_within_se, sinh_kernel

HIT_N = 100_000
LAPLACE_N = 50_000
HIT_CENTRES = (0.3, 0.7)
LAPLACE_CENTRE = 0.35
ALPHAS = (0.5, 2.0)
JITTER = 0.02
Z = 4.0

KERNEL = "arrays"  # reference kernel (calibrate.py): the exit engine is numpy-bound

LAYER_METRICS = {
    "simulate.estimate_hitting_s": "s",
    "simulate.estimate_laplace_s": "s",
    "simulate.exit_paths_per_s": "paths/s",
    "simulate.exit_cpu_s": "s",
}


@dataclass
class Case:
    gap: tf.IntervalSet
    a: float
    b: float
    x0: float
    seed: int


def _draw(rng, centre: float) -> Case:
    a = Fraction(int(rng.integers(-16, 16)), 16)
    b = a + Fraction(int(rng.integers(4, 33)), 16)
    lam = centre + float(rng.uniform(-JITTER, JITTER))
    x0 = float(a) + lam * float(b - a)
    return Case(tf.build_interval_set([(a, b)], (a, b)), float(a), float(b), x0,
                int(rng.integers(0, 2**31)))


def setup(seed: int, workdir, tracer):
    rng = np.random.default_rng(seed)
    hits = [_draw(rng, c) for c in HIT_CENTRES]
    return hits, _draw(rng, LAPLACE_CENTRE)


def operation(state, tracer) -> None:
    hits, lap = state
    spans = []
    for c in hits:
        d = c.b - c.a
        with tracer.span("simulate.estimate_hitting") as sp:
            left, right = estimate_hitting(c.gap, c.x0, HIT_N, c.seed, dt=(d / 40) ** 2,
                                           correct=True)
        spans.append(sp)
        require(left.n == right.n == HIT_N, "hitting estimate used the wrong path count")
        require_close(left.estimate + right.estimate, 1.0, 1e-12, "left plus right exit")
        require_within_se(left.estimate, (c.b - c.x0) / d, left.stderr, Z, 0.0,
                          f"hitting ({c.a}, {c.b}) from {c.x0}")
    d = lap.b - lap.a
    for alpha in ALPHAS:
        with tracer.span("simulate.estimate_laplace") as sp:
            left, right = estimate_laplace(lap.gap, lap.x0, alpha, LAPLACE_N, lap.seed,
                                           dt=(d / 50) ** 2, correct=True)
        spans.append(sp)
        p, q = sinh_kernel(lap.a, lap.b, lap.x0, alpha)
        for res, truth, side in ((left, p, "left"), (right, q, "right")):
            require(res.n == LAPLACE_N, "Laplace estimate used the wrong path count")
            require_within_se(res.estimate, truth, res.stderr, Z, 0.0,
                              f"Laplace alpha={alpha} {side} on ({lap.a}, {lap.b}) "
                              f"from {lap.x0}")
    if tracer.enabled:
        paths = HIT_N * len(hits) + LAPLACE_N * len(ALPHAS)
        tracer.count("simulate.exit_paths_per_s", paths / sum(sp.seconds for sp in spans))
        tracer.count("simulate.exit_cpu_s", sum(sp.cpu_seconds for sp in spans))
