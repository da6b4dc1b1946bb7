"""Shared oracles and randomized generators for the test suite.

Everything here is an independent re-derivation: the density scan works
from the raw component list, the Feller integrand goes through adaptive
quadrature, and chain stationarity is solved by brute-force linear
algebra on the generator. None of it calls back into the code paths it
is used to check.
"""

from __future__ import annotations

import csv
import decimal
import io
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np
from hypothesis import strategies as st
from scipy import integrate

import traceform as tf
from traceform import Tail
from traceform.intervals import _encode
from traceform.simulate import (WALK_BLOCK, _batch_occupation, _check_batches, _exit_samples,
                                 _membership, default_exit_dt)


def window_f_components(iset):
    """F-components inside the window, derived from the raw component list."""
    pts = [iset.window[0]]
    for a, b in iset.components:
        pts.extend((a, b))
    pts.append(iset.window[1])
    out = []
    for lo, hi in zip(pts[::2], pts[1::2]):
        if hi > lo:
            out.append((lo, hi))
    return out


def g_window_mass_scan(iset, lo, hi):
    """G-mass of [lo, hi] inside the window, summed over every component."""
    total = 0
    for a, b in iset.components:
        left = a if a > lo else lo
        right = b if b < hi else hi
        if right > left:
            total = total + (right - left)
    return total


def scan_delta_dense(iset, delta):
    """Every window subinterval of length >= delta must carry G-mass.

    A subinterval misses G (in measure) exactly when it fits inside a
    single F-component, so the scan reduces to component lengths.
    """
    return all(hi - lo < delta for lo, hi in window_f_components(iset))


def stable_p(x, d, alpha):
    # sinh(c(d-x))/sinh(cd) without overflow, c = sqrt(2 alpha)
    c = math.sqrt(2.0 * alpha)
    return math.exp(-c * x) * (-math.expm1(-2.0 * c * (d - x))) / (-math.expm1(-2.0 * c * d))


def decimal_feller(d, alpha):
    """The gap weight 1/(2d) - alpha/(c sinh(cd)), c = sqrt(2 alpha), to 50
    digits, as (1 - x / sinh x) / (2 d) with x = cd.  Below x = 1 it is
    (sinh x - x) / (2 d sinh x), with sinh x - x summed as its series
    sum_k x^(2k+1)/(2k+1)!, so that no two terms cancel."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d, alpha = decimal.Decimal(d), decimal.Decimal(alpha)
        x = d * (2 * alpha).sqrt()
        if x >= 1:  # x / sinh x <= 0.86: nothing cancels
            e = (-x).exp()
            return float((1 - 2 * x * e / (1 - e * e)) / (2 * d))
        term = rest = x * x * x / 6
        k = 1
        while term > rest * decimal.Decimal("1e-55"):
            k += 1
            term = term * x * x / ((2 * k) * (2 * k + 1))
            rest += term
        return float(rest / (2 * d * (x + rest)))


def quad_feller(d, alpha):
    """alpha * integral_0^d (y/d) p_alpha(y) dy by adaptive quadrature.

    Resolvent identity: the harmonic kernels satisfy
    (1/2)(p_0 - p_alpha)'' = -alpha p_alpha with zero boundary data, so
    p_0 - p_alpha = alpha int G_0(., y) p_alpha(y) dy and taking half the
    flux at the far endpoint turns the Green kernel into q_0(y) = y/d.
    The left side's flux drop is exactly the killing weight 1/(2d) -
    c/(2 sinh(cd)).
    """
    c = math.sqrt(2.0 * alpha)

    def integrand(y):
        return alpha * (y / d) * stable_p(y, d, alpha)

    # p_alpha decays like exp(-cy): mass sits in a layer at the near end
    layer = min(30.0 / c, d / 2.0)
    val, _ = integrate.quad(
        integrand, 0.0, d, points=[layer], limit=400,
        epsabs=1e-14, epsrel=1e-12,
    )
    return val


def chain_stationary(chain):
    """Stationary law of the walk chain, solved from global balance.

    Builds the CTMC generator of the embedded symmetric walk with the
    chain's holding means and solves pi Q = 0 directly.
    """
    holds = np.asarray(chain.holds, dtype=float)
    k = holds.size
    assert not np.asarray(chain.absorbing).any(), "oracle covers reflecting chains only"
    P = np.zeros((k, k))
    P[0, 1] = 1.0
    P[k - 1, k - 2] = 1.0
    for i in range(1, k - 1):
        P[i, i - 1] = 0.5
        P[i, i + 1] = 0.5
    Q = P / holds[:, None]
    Q[np.diag_indices(k)] = -1.0 / holds
    A = np.vstack([Q.T, np.ones(k)])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def exit_chunk_untiled(a, b, x0, m, dt, rng, shift, step_block=128):
    """Exit side and exit time of m Euler paths, each step block drawn for
    every surviving path at once: the exit engine before it worked in tiles,
    kept as the oracle the tiled engine must match bit for bit."""
    lo = a + shift
    hi = b - shift
    scale = math.sqrt(dt)
    pos = np.full(m, float(x0))
    idx = np.arange(m)
    left = np.zeros(m, dtype=bool)
    tau = np.zeros(m)
    base = 0
    max_steps = max(10_000, int(200 * (b - a) ** 2 / dt))
    while idx.size:
        if base > max_steps:
            raise RuntimeError("exit walk exceeded its step cap")
        traj = pos[:, None] + scale * np.cumsum(
            rng.standard_normal((idx.size, step_block)), axis=1)
        out = (traj <= lo) | (traj >= hi)
        hit = out.any(axis=1)
        if hit.any():
            cols = np.argmax(out[hit], axis=1)
            rows = idx[hit]
            left[rows] = traj[hit, cols] <= lo
            tau[rows] = (base + cols + 1) * dt
        keep = ~hit
        pos = traj[keep, -1]
        idx = idx[keep]
        base += step_block
    return left, tau


def former_result_from_samples(samples, target):
    """``_result_from_samples`` in its former form: ``np.std(ddof=1)`` and
    ``.mean()``, which leave ``samples`` as they were."""
    n = samples.size
    std = float(np.std(samples, ddof=1)) if n > 1 else 0.0
    return tf.EstimatorResult(estimate=float(samples.mean()), stderr=std / math.sqrt(n), n=n,
                              target=target)


def former_exit_estimates(iset, x0, n, seed, dt=None, correct=False, workers=None, alpha=None):
    """``estimate_hitting`` (``alpha`` None) or ``estimate_laplace`` as each
    drew and reduced its own sample: the gap lookup, the default dt, the draw
    and the two sides."""
    i = iset.component_index(x0)
    lefts, rights = iset.float_ends
    a, b = float(lefts[i]), float(rights[i])
    if dt is None:
        dt = default_exit_dt(b - a)
    left, tau = _exit_samples(a, b, x0, n, dt, seed, correct, workers)
    if alpha is None:
        return (former_result_from_samples(left.astype(float), f"exit at {a} (left endpoint)"),
                former_result_from_samples((~left).astype(float),
                                           f"exit at {b} (right endpoint)"))
    damp = np.exp(-alpha * tau)
    return (former_result_from_samples(np.where(left, damp, 0.0),
                                       f"exp(-{alpha} tau) on exit at {a} (left endpoint)"),
            former_result_from_samples(np.where(left, 0.0, damp),
                                       f"exp(-{alpha} tau) on exit at {b} (right endpoint)"))


HUGE_N = 10**12  # exit paths: 931 GiB of exit sides alone


def refuse_huge(empty):
    """``np.empty`` failing, as it would, for an array of ``HUGE_N`` entries."""
    def allocate(shape, *args, **kwargs):
        if shape == HUGE_N:
            raise MemoryError(f"cannot allocate {HUGE_N} entries")
        return empty(shape, *args, **kwargs)
    return allocate


class ZeroSteps:
    """Generator stub whose steps are all zero: no exit path ever leaves."""

    def standard_normal(self, *, out):
        out.fill(0.0)
        return out


# ---------------------------------------------------------------------------
# randomized object generators

TAILS_BY_CASE = {
    "I": ((Tail.ALL_G, Tail.ALL_G),),
    "II": ((Tail.ALL_F, Tail.ALL_G), (Tail.ALL_G, Tail.ALL_F)),
    "III": ((Tail.ALL_F, Tail.ALL_F),),
}


def random_iset(rng, case=None, periodic_ok=True):
    """A random valid interval set, optionally pinned to a boundary case."""
    if case == "I" and periodic_ok and rng.random() < 0.4:
        return tf.periodic_fat_cantor(int(rng.integers(1, 4)), 2)
    if case is None:
        opts = (Tail.ALL_F, Tail.ALL_G)
        tails = (opts[rng.integers(0, 2)], opts[rng.integers(0, 2)])
    else:
        choices = TAILS_BY_CASE[case]
        tails = choices[int(rng.integers(0, len(choices)))]
    if rng.random() < 0.5:
        return tf.svc_complement(int(rng.integers(1, 5)), tails=tails)
    den = 240
    m = int(rng.integers(1, 4))
    pts = np.sort(rng.choice(np.arange(12, 229), size=2 * m, replace=False))
    comps = [
        (Fraction(int(pts[2 * i]), den), Fraction(int(pts[2 * i + 1]), den))
        for i in range(m)
    ]
    return tf.build_interval_set(comps, (0, 1), tails=tails)


def _gap_cells(iset):
    w0, w1 = (float(x) for x in iset.window)
    return [
        (max(float(a), w0), min(float(b), w1))
        for a, b in iset.components
    ]


def _merge_nodes(pairs):
    """pairs of (node, value) -> strictly increasing arrays, last write wins."""
    by_node = {}
    for x, v in pairs:
        by_node[float(x)] = float(v)
    grid = np.array(sorted(by_node))
    vals = np.array([by_node[x] for x in sorted(by_node)])
    return grid, vals


def random_gridfn(rng, iset, scale=1.0):
    """Arbitrary piecewise-linear function on an H-adapted grid."""
    w0, w1 = (float(x) for x in iset.window)
    k = int(rng.integers(0, 5))
    extra = rng.uniform(w0 + 1e-3, w1 - 1e-3, size=k)
    grid = tf.adapted_grid(iset, extra=extra)
    return tf.GridFunction(grid, rng.normal(0.0, scale, size=grid.size))


def random_subspace_member(rng, iset):
    """Constant on every F-component, free in the gaps."""
    pairs = []
    for lo, hi in window_f_components(iset):
        c = float(rng.normal())
        pairs.append((lo, c))
        pairs.append((hi, c))
    w0, w1 = (float(x) for x in iset.window)
    covered = {float(p) for p, _ in pairs}
    for edge in (w0, w1):
        if edge not in covered:
            pairs.append((edge, float(rng.normal())))
    for a, b in _gap_cells(iset):
        for x in rng.uniform(a + 1e-4, b - 1e-4, size=int(rng.integers(0, 3))):
            pairs.append((x, float(rng.normal())))
    return tf.GridFunction(*_merge_nodes(pairs))


def random_complement_member(rng, sf, flat=False):
    """Slope 0 on G (constant C in Case III), free slopes on F-cells.

    flat=True forces slope 0 on G in every case: the class that
    contraction stability and darning both operate on.
    """
    iset = sf.base
    case = tf.classify_case(iset)
    C = float(rng.normal()) if case is tf.Case.III and not flat else 0.0
    nodes = [float(x) for x in tf.adapted_grid(iset)]
    vals = [float(rng.normal())]
    for lo, hi in zip(nodes, nodes[1:]):
        mid = 0.5 * (lo + hi)
        slope = C if iset.in_g(mid) else float(rng.normal())
        vals.append(vals[-1] + slope * (hi - lo))
    return tf.GridFunction(np.array(nodes), np.array(vals))


def random_vanishing(rng, iset):
    """Zero on F, random bumps strictly inside the gaps."""
    pairs = []
    for lo, hi in window_f_components(iset):
        pairs.append((lo, 0.0))
        pairs.append((hi, 0.0))
    w0, w1 = (float(x) for x in iset.window)
    covered = {float(p) for p, _ in pairs}
    for edge in (w0, w1):
        if edge not in covered:
            pairs.append((edge, 0.0))
    for a, b in _gap_cells(iset):
        for x in rng.uniform(a + 1e-4, b - 1e-4, size=int(rng.integers(1, 3))):
            pairs.append((x, float(rng.normal())))
    return tf.GridFunction(*_merge_nodes(pairs))


def required_trace_nodes(iset):
    req = {float(e) for e in iset.endpoints}
    for lo, hi in window_f_components(iset):
        req.add(float(lo))
        req.add(float(hi))
    return sorted(req)


def random_trace_fn(rng, iset):
    """Random node data on F including every required endpoint."""
    nodes = set(required_trace_nodes(iset))
    for lo, hi in window_f_components(iset):
        lo_f, hi_f = float(lo), float(hi)
        if hi_f - lo_f > 1e-3:
            for x in rng.uniform(lo_f + 1e-4, hi_f - 1e-4, size=int(rng.integers(0, 3))):
                nodes.add(float(x))
    grid = np.array(sorted(nodes))
    return tf.TraceFunction(iset, grid, rng.normal(size=grid.size))


def _float_pair_set(xs):
    xs = sorted(xs)[: len(xs) // 2 * 2]
    return tf.build_interval_set(list(zip(xs[::2], xs[1::2])), (0, 1))


def _narrow_gap_set(m, j):
    # m gaps of width 1/(3 10^j) around non-dyadic centres, so no end is a float
    w = Fraction(1, 3 * 10**j)
    centres = [Fraction(2 * i + 1, 2 * m) + Fraction(1, 7000) for i in range(m)]
    return tf.build_interval_set([(c - w / 2, c + w / 2) for c in centres], (0, 1))


def _edge_set(seed):
    """A /240 set with a component at one or both window edges; an all-G tail
    may not meet such a component, so those sides are all-F or Periodic."""
    rng = np.random.default_rng(seed)
    pts = sorted(int(p) for p in rng.choice(np.arange(12, 229), size=4, replace=False))
    left, right = (bool(v) for v in rng.integers(0, 2, size=2)) if seed % 3 else (True, True)
    pts = [0 if left else pts[0]] + pts[1:3] + [240 if right else pts[3]]
    comps = [(Fraction(pts[0], 240), Fraction(pts[1], 240)),
             (Fraction(pts[2], 240), Fraction(pts[3], 240))]
    if left != right and rng.random() < 0.5:
        return tf.build_interval_set(comps, (0, 1), tails=(Tail.PERIODIC, Tail.PERIODIC))
    tails = (Tail.ALL_F if left else Tail.ALL_G, Tail.ALL_F if right else Tail.ALL_G)
    return tf.build_interval_set(comps, (0, 1), tails=tails)


def _mixed_set(seed):
    """Ends at /240 points and at 0.1-style decimals, each given as a float
    or as a ``Fraction`` (0.1 beside 1/3, say), in a window of ints, floats or
    Fractions, with all-F, all-G or Periodic tails."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    ks = sorted(int(k) for k in rng.choice(np.arange(1, 240), size=2 * m, replace=False))
    ends = []
    for k in ks:
        form = rng.integers(0, 3)
        ends.append(Fraction(k, 240) if form == 0 else k / 240 if form == 1
                    else float(np.nextafter(k / 240, 1.0)))
    window = [(0, 1), (0.0, 1.0), (Fraction(0), 1), (0, Fraction(1))][int(rng.integers(0, 4))]
    tails = [(Tail.ALL_F, Tail.ALL_F), (Tail.ALL_G, Tail.ALL_F), (Tail.ALL_F, Tail.ALL_G),
             (Tail.ALL_G, Tail.ALL_G), (Tail.PERIODIC, Tail.PERIODIC)][int(rng.integers(0, 5))]
    return tf.build_interval_set(list(zip(ends[::2], ends[1::2])), window, tails=tails)


_allf_or_allg = st.sampled_from([Tail.ALL_F, Tail.ALL_G])

# svc sets of every case, /240 sets (some with a component at a window edge),
# periodic sets, float-endpoint sets, sets mixing float and Fraction ends, a set
# with ends past 2, and gaps narrower than the endpoint slack
geometry_sets = st.one_of(
    st.builds(lambda d, tl, tr: tf.svc_complement(d, tails=(tl, tr)),
              st.integers(0, 7), _allf_or_allg, _allf_or_allg),
    st.integers(0, 10**6).map(lambda s: random_iset(np.random.default_rng(s))),
    st.integers(0, 10**6).map(_edge_set),
    st.builds(tf.periodic_fat_cantor, st.integers(0, 4), st.sampled_from([2, 3, Fraction(5, 2)])),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
             min_size=2, max_size=12, unique=True).map(_float_pair_set),
    st.integers(0, 10**6).map(_mixed_set),
    st.sampled_from([
        tf.build_interval_set([(0.1, Fraction(1, 3)), (Fraction(1, 2), 0.7)], (0, 1)),
        tf.build_interval_set([(Fraction(1, 3), 0.5)], (0.0, 1), tails=(Tail.ALL_G, Tail.ALL_G)),
        tf.build_interval_set([(0, 0.25), (Fraction(1, 3), 0.75)], (0, 1),
                              tails=(Tail.PERIODIC, Tail.PERIODIC)),
        # a float window whose length 1.0 - 0.1 rounds
        tf.build_interval_set([(0.2, 0.3), (Fraction(1, 2), 0.7)], (0.1, 1.0),
                              tails=(Tail.PERIODIC, Tail.PERIODIC)),
        # int ends beside Fraction and float ones
        tf.build_interval_set([(-1, 0), (Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 2), 1)],
                              (-2, 2)),
        tf.build_interval_set([(-1, 0), (0.25, Fraction(1, 3)), (Fraction(1, 2), 0.75)], (-2, 2),
                              tails=(Tail.ALL_F, Tail.ALL_G)),
        # ends past 2, where the endpoint slack exceeds 2e-12
        tf.build_interval_set([(0, 1), (3 / 2, 5 / 2), (3, 4)], (0, 5)),
    ]),
    st.builds(_narrow_gap_set, st.integers(1, 5), st.integers(9, 14)),
)


def probe_points(iset, rng, beyond=0.1):
    """Float ends, points a few ulps and a few slacks off them, midpoints of
    an adapted grid with random extra nodes, and uniform points reaching
    ``beyond`` past either window edge."""
    w0, w1 = (float(x) for x in iset.window)
    ends = np.concatenate(iset.float_ends)
    near = [ends]
    for k in range(1, 4):
        near += [ends + k * np.spacing(ends), ends - k * np.spacing(ends)]
    for off in (2e-12, 1e-11, 1e-9):
        near += [ends + off, ends - off]
    grid = tf.adapted_grid(iset, extra=rng.uniform(w0, w1, size=20))
    mids = (grid[:-1] + grid[1:]) / 2
    uniform = rng.uniform(w0 - beyond, w1 + beyond, size=100)
    return np.unique(np.concatenate(near + [grid, mids, uniform]))


# ---------------------------------------------------------------------------
# the Fraction oracle: the scalar geometry on the endpoint objects themselves


def _refuse_nan(x):
    """The library's refusal of a NaN query."""
    if x != x:
        raise tf.PreconditionError("query values must not be NaN")


def _refuse_infinite_point(oset, x):
    """A scalar map's refusal of an infinite point, which lies past the
    window on the tail to its side: the message of the array paths."""
    if x in (math.inf, -math.inf):
        tail = oset.tail_left if x < 0 else oset.tail_right
        on = "a Periodic" if tail is Tail.PERIODIC else f"an {tail.value}"
        raise tf.PreconditionError(f"point {x} must be finite on {on} tail")


class OracleSet:
    """The scalar geometry of an ``IntervalSet`` computed as Python computes
    it on the set's endpoint objects (``window`` and ``components``, exact
    ``Fraction`` values), compared one at a time, with the running G-masses
    kept as a tuple of numbers.  This was traceform's own scalar path before
    its exact integer table, and every scalar result of the table must equal
    it in type and bits, a float query taken as its Python float; an array
    result within 1e-12 of it.  The scale and darning inverses
    follow the rules the table brought: a float value is a plateau value or
    a collapsed point when it is that value's float, and past the scale
    image only when past the float of its edge, and then, where s has no
    values past that edge, only when more than 1e-12 max(1, |s1 - s0|) past
    it (closer, it is that edge value); a periodic value folds
    back into the image once, a float one onto a plateau or seam value within
    1e-12 max(1, |y|), and onto the whole plateau across the seam, as s(w0)
    on a Periodic left tail and s(w1) on a Periodic right one do; and a darning value
    past the collapsed point of a component at a window edge is that
    component.  It refuses what the library refuses, with the same message:
    NaN, a ``which`` other than "G" or "F", an infinite ``lebesgue`` end, lo
    > hi, a scale value past a tail where s takes none, an infinite one on a
    Periodic tail, and a darning value outside the window image."""

    def __init__(self, iset):
        self.iset = iset
        self.window = iset.window
        self.components = iset.components
        self.tail_left, self.tail_right, self.period = iset.tail_left, iset.tail_right, iset.period
        self.widths = tuple(b - a for a, b in self.components)
        self.g_prefix = tuple(accumulate(self.widths, initial=0))
        self.g_mass_window = self.g_prefix[-1]
        w0, w1 = self.window
        self.f_mass_window = (w1 - w0) - self.g_mass_window
        self.lefts = [a for a, _ in self.components]
        self.f_components = tuple(window_f_components(iset))
        skip = int(bool(self.components) and self.components[0][0] == w0)
        self.f_ranks = range(skip, skip + len(self.f_components))
        left = (w0,) if self.tail_left is Tail.ALL_G else ()
        right = (w1,) if self.tail_right is Tail.ALL_G else ()
        self.endpoints = left + tuple(e for ab in self.components for e in ab) + right

    def is_endpoint(self, x):
        _refuse_nan(x)
        i = bisect_left(self.endpoints, x)
        return i < len(self.endpoints) and self.endpoints[i] == x

    def component_index(self, x):
        _refuse_nan(x)
        i = bisect_right(self.lefts, x) - 1
        if i >= 0:
            a, b = self.components[i]
            if a < x < b:
                return i
        return None

    def in_g(self, x):
        _refuse_nan(x)
        w0, w1 = self.window
        if x < w0:
            if self.tail_left is not Tail.PERIODIC:
                return self.tail_left is Tail.ALL_G
            return self.in_g(x + self.period * max(0, math.ceil((w0 - x) / self.period)))
        if x > w1:
            if self.tail_right is not Tail.PERIODIC:
                return self.tail_right is Tail.ALL_G
            return self.in_g(x - self.period * max(0, math.ceil((x - w1) / self.period)))
        return self.component_index(x) is not None

    def _window_mass(self, lo, hi):
        def part(i):
            a, b = self.components[i]
            left = a if a > lo else lo
            right = b if b < hi else hi
            return right - left if right > left else 0

        first = max(bisect_right(self.lefts, lo) - 1, 0)
        last = bisect_left(self.lefts, hi) - 1
        if last < first:
            return 0
        total = part(first)
        if last > first:
            if last > first + 1:
                total = total + (self.g_prefix[last] - self.g_prefix[first + 1])
            total = total + part(last)
        return total

    def _periodic_mass(self, lo, hi):
        p, w0 = self.period, self.window[0]
        length = hi - lo
        k = math.floor(length / p)
        total = k * self.g_mass_window
        rem = length - k * p
        if rem > 0:
            phase = (lo - w0) % p
            if phase + rem <= p:
                total = total + self._window_mass(w0 + phase, w0 + phase + rem)
            else:
                total = total + self._window_mass(w0 + phase, w0 + p)
                total = total + self._window_mass(w0, w0 + (phase + rem - p))
        return total

    def _tail_mass(self, lo, hi, tail):
        if lo >= hi:
            return 0
        if tail is Tail.ALL_G:
            return hi - lo
        if tail is Tail.ALL_F:
            return 0
        return self._periodic_mass(lo, hi)

    def lebesgue(self, lo, hi, which="G"):
        if which not in ("G", "F"):
            raise tf.PreconditionError(f"which must be 'G' or 'F', got {which!r}")
        _refuse_nan(lo)
        _refuse_nan(hi)
        if not (-math.inf < lo < math.inf and -math.inf < hi < math.inf):
            raise tf.PreconditionError("lebesgue query endpoints must be finite")
        if hi < lo:
            raise tf.PreconditionError(f"query interval has lo {lo} > hi {hi}")
        w0, w1 = self.window
        g = self._tail_mass(lo, min(hi, w0), self.tail_left)
        mid_lo, mid_hi = max(lo, w0), min(hi, w1)
        if mid_hi > mid_lo:
            g = g + self._window_mass(mid_lo, mid_hi)
        g = g + self._tail_mass(max(lo, w1), hi, self.tail_right)
        return g if which == "G" else (hi - lo) - g


class OracleScale:
    """``ScaleFunction`` on an ``OracleSet``, with its levels and plateaus as tuples."""

    def __init__(self, oset, anchor=0):
        self.o, self.anchor = oset, anchor
        s0 = self(oset.window[0])
        self.levels = tuple(s0 + p for p in oset.g_prefix)
        self.plateaus = tuple((self.levels[k], lo, hi)
                              for k, (lo, hi) in zip(oset.f_ranks, oset.f_components))

    def __call__(self, x):
        _refuse_infinite_point(self.o, x)
        if x >= self.anchor:
            return self.o.lebesgue(self.anchor, x, "G")
        return -self.o.lebesgue(x, self.anchor, "G")

    def inverse(self, y):
        _refuse_nan(y)
        o = self.o
        (w0, w1), s0, s1 = o.window, self.levels[0], self.levels[-1]
        # a float value is past the image only when it is past the image's floats
        e0, e1 = (float(s0), float(s1)) if isinstance(y, float) else (s0, s1)
        # s(w0) on a Periodic left tail, and s(w1) on a Periodic right one,
        # fold as a value past them does, onto the plateau across the seam
        seam0, seam1 = (t is Tail.PERIODIC and o.g_mass_window > 0
                        for t in (o.tail_left, o.tail_right))
        below = y < e0 or seam0 and y == e0
        if not (below or y > e1 or seam1 and y == e1):
            return self._window_inverse(y)
        if (o.tail_left if below else o.tail_right) is Tail.ALL_G:
            if not -math.inf < y < math.inf:
                raise tf.PreconditionError(f"value {y} must be finite on an AllG tail")
            x = w0 + (y - s0) if below else w1 + (y - s1)
            return x, x
        if (o.tail_left if below else o.tail_right) is Tail.ALL_F or o.g_mass_window == 0:
            # a float within 1e-12 max(1, |s1 - s0|) of the float of the edge is that edge
            edge = s0 if below else s1
            if isinstance(y, float) and abs(y - float(edge)) <= 1e-12 * max(1.0, abs(float(s1 - s0))):
                return self._window_inverse(edge)
            side = "below" if below else "above"
            raise tf.PreconditionError(f"value {y} is {side} the range of the scale function")
        if not -math.inf < y < math.inf:
            raise tf.PreconditionError(f"value {y} must be finite on a Periodic tail")
        # a float folded back within 1e-12 max(1, |y|) of a plateau value takes
        # it; an exact value may be past the float range, and takes no slack
        per, p = o.g_mass_window, o.period
        slack = 1e-12 * max(1.0, abs(y)) if isinstance(y, float) else None
        if below:
            k = math.ceil((s0 - y) / per)
            y, shift = y + k * per, -k * p
        else:
            k = math.ceil((y - s1) / per)
            y, shift = y - k * per, k * p
        y = min(max(y, s0), s1)
        if isinstance(y, float):
            values = [float(s0)] + [float(v) for v, _, _ in self.plateaus] + [float(s1)]
            near = min(values, key=lambda v: (abs(y - v), -v))
            if abs(y - near) <= slack:
                if near in (values[0], values[-1]):
                    y = s0 if near == values[0] else s1
                else:
                    _, lo, hi = self.plateaus[values.index(near) - 1]
                    return lo + shift, hi + shift
        if y not in (s0, s1):
            lo, hi = self._window_inverse(y)
            return lo + shift, hi + shift
        # the seam: the F-component ending at w1, a period back, joined to the
        # one starting at w0
        fc = o.f_components
        lo = fc[-1][0] - p if fc and fc[-1][1] == w1 else w0
        hi = fc[0][1] if fc and fc[0][0] == w0 else w0
        if y == s1:
            shift = shift + p
        return lo + shift, hi + shift

    def _window_inverse(self, y):
        # a float value is a plateau value when it is that value's float
        key = (lambda t: float(t[0])) if isinstance(y, float) else (lambda t: t[0])
        k = bisect_left(self.plateaus, y, key=key)
        if k < len(self.plateaus) and key(self.plateaus[k]) == y:
            return self.plateaus[k][1], self.plateaus[k][2]
        # a float at the float of s(w0) may lie just below s(w0): component 0
        i = max(min(bisect_right(self.levels, y), len(self.o.components)) - 1, 0)
        x = self.o.components[i][0] + (y - self.levels[i])
        return x, x


class OracleDarning:
    """``DarningMap`` on an ``OracleSet``: collapsed positions and F-spans as tuples."""

    def __init__(self, oset, z):
        self.o, self.z = oset, z
        w0, w1 = oset.window
        self.ends = (self(w0), self(w1))
        j0 = self.ends[0]
        self.positions = tuple(j0 + ((a - w0) - p)
                               for (a, _), p in zip(oset.components, oset.g_prefix))
        self.spans = []
        for k, (lo, hi) in zip(oset.f_ranks, oset.f_components):
            j_lo = self.positions[k - 1] if k else j0
            self.spans.append((j_lo, j_lo + (hi - lo), lo, hi))

    def __call__(self, x):
        _refuse_infinite_point(self.o, x)
        if x >= self.z:
            return self.o.lebesgue(self.z, x, "F")
        return -self.o.lebesgue(x, self.z, "F")

    def inverse(self, y):
        _refuse_nan(y)
        lo, hi = self.ends
        slack = 1e-12 * max(1.0, abs(float(hi - lo)))
        if y < lo or y > hi:
            if not lo - slack <= y <= hi + slack:
                raise tf.PreconditionError(
                    f"value {y} is outside the window image [{lo}, {hi}] of the darning map")
            y = lo if y < lo else hi
        # a float value is compared with the floats of the collapsed points
        key = float if isinstance(y, float) else (lambda v: v)
        k = bisect_left(self.positions, y, key=key)
        hit = k < len(self.positions) and key(self.positions[k]) == y
        if hit or k not in self.o.f_ranks:  # no F-span past a component at a window edge
            return self.o.components[min(k, len(self.positions) - 1)]
        j_lo, _, x_lo, _ = self.spans[k - self.o.f_ranks.start]
        x = x_lo + (y - j_lo)
        return x, x


def svc_g_mass(depth, x):
    """G-mass of [0, x] for ``svc_complement(depth)`` on (0, 1), for x in
    [0, 1]: the construction walked down the pieces that hold x, one level at
    a time, with the total gap mass of a piece in closed form."""
    x = Fraction(x)

    def inside(i):  # gap mass of one piece of level i - 1, from steps i to depth
        return sum(Fraction(2**(j - i), 4**j) for j in range(i, depth + 1))

    lo, hi, total = Fraction(0), Fraction(1), Fraction(0)
    for i in range(1, depth + 1):
        mid, half = (lo + hi) / 2, Fraction(1, 2 * 4**i)
        if x <= mid - half:
            hi = mid - half
        elif x < mid + half:
            return total + inside(i + 1) + (x - (mid - half))
        else:
            total += inside(i + 1) + 2 * half
            lo = mid + half
    return total


# ---------------------------------------------------------------------------
# the former grid-function forms, kept as oracles for their fast paths


def adapted_nodes(iset):
    """float64 window edges and component ends, sorted and unique, from the
    window and the component list."""
    w0, w1 = iset.window
    return np.unique([float(x) for x in (w0, w1, *chain.from_iterable(iset.components))])


def is_adapted_isin(u, iset):
    """``is_adapted`` in its former form: the span is the window and
    ``np.isin`` finds every required node in the grid."""
    w0, w1 = (float(x) for x in iset.window)
    return u.span == (w0, w1) and bool(np.all(np.isin(adapted_nodes(iset), u.grid)))


def report_by_float(cells, contribs):
    """An energy breakdown in its former form: one ``float()`` per value."""
    return tuple((float(x0), float(x1), float(c)) for (x0, x1), c in zip(cells, contribs))


# ---------------------------------------------------------------------------
# the former loop forms of the energy, darning and walk-chain kernels, kept
# as oracles that their array passes must match bit for bit


def speed_measures(iset):
    """The speed measures a set gives: its trace measure on the line (a
    piece per F-component, infinite atoms at all-G edges), and its darning
    pushforwards of Lebesgue measure (atoms) and of 1_F dx (none), where F
    has mass in the window."""
    out = [tf.trace_measure(iset)]
    try:
        dm = tf.DarningMap(iset)
    except tf.PreconditionError:
        return out
    return out + [tf.pushforward_speed(dm, source) for source in ("lebesgue", "f_indicator")]


def energy_measure_loop(u, interval, iset=None, subspace=False):
    """``energy_measure`` in its former form: one cell at a time into a
    running Python total."""
    lo, hi = float(interval[0]), float(interval[1])
    lo, hi = max(lo, u.span[0]), min(hi, u.span[1])
    if hi <= lo:
        return 0.0
    total = 0.0
    gmask = tf.gridfn.cell_in_g(u, iset) if subspace else None
    for k in range(u.grid.size - 1):
        x0, x1 = float(u.grid[k]), float(u.grid[k + 1])
        left, right = max(x0, lo), min(x1, hi)
        if right <= left:
            continue
        if subspace and not gmask[k]:
            continue
        slope = float(u.slopes[k])
        total += slope * slope * (right - left)
    return total


def unit_contraction_loop(u):
    """``unit_contraction`` in its former form: crossings of 0 and 1 found
    cell by cell."""
    nodes = list(map(float, u.grid))
    for k in range(u.grid.size - 1):
        x0, x1 = float(u.grid[k]), float(u.grid[k + 1])
        v0, v1 = float(u.values[k]), float(u.values[k + 1])
        if v0 == v1:
            continue
        for level in (0.0, 1.0):
            if (v0 - level) * (v1 - level) < 0:
                nodes.append(x0 + (level - v0) / (v1 - v0) * (x1 - x0))
    refined = u.refine(np.asarray(nodes))
    return tf.GridFunction(refined.grid, np.clip(refined.values, 0.0, 1.0))


def tent_integral_loop(speed, y, h, atoms=True):
    """``SpeedMeasure.tent_integral`` at one float node in its former form:
    piece by piece, then atom by atom, into a running Python total; without
    the atoms when ``atoms`` is false."""
    total = 0.0
    ylo, yhi = y - h, y + h

    def prim(t):
        t = min(max(t, -h), h)
        return h * t - math.copysign(t * t, t) / 2

    for x0, x1, c in speed.density_pieces:
        left = max(x0, ylo)
        right = min(x1, yhi)
        if right > left:
            total += c * (prim(right - y) - prim(left - y))
    for p, m in speed.atoms if atoms else ():
        k = h - abs(p - y)
        if k > 0:
            if math.isinf(m):
                return math.inf
            total += k * m
    return float(total)


def chain_holds_loop(speed, h, boundary=("reflect", "reflect")):
    """``build_chain``'s holding means and absorbing flags in their former
    form: the density's tent integral node by node, then each atom snapped
    to its node, then the ends."""
    lo, hi = (float(x) for x in speed.carrier)
    nodes = lo + h * np.arange(round((hi - lo) / h) + 1)
    holds = np.array([tent_integral_loop(speed, float(y), h, atoms=False) for y in nodes])
    absorbing = np.zeros(nodes.size, dtype=bool)
    for p, m in speed.atoms:
        k = min(max(round((float(p) - lo) / h), 0), nodes.size - 1)
        if math.isinf(m):
            absorbing[k] = True
            holds[k] = math.inf
        else:
            holds[k] += h * float(m)
    for end, side in ((0, boundary[0]), (-1, boundary[1])):
        if side == "absorb":
            absorbing[end] = True
        elif not absorbing[end]:
            holds[end] *= 2
    return holds, absorbing


def darned_l2_loop(uh, speed):
    """``darned_l2`` in its former form: the density part piece by piece,
    then atom by atom into a running total."""
    total = 0.0
    for x0, x1, c in speed.density_pieces:
        piece = uh.refine([float(x0), float(x1)])
        mask = (piece.grid[:-1] >= float(x0) - 1e-15) & (piece.grid[1:] <= float(x1) + 1e-15)
        a = piece.values[:-1][mask]
        b = piece.values[1:][mask]
        lens = piece.cell_lengths[mask]
        total += float(c) * float(np.sum(lens * (a * a + a * b + b * b) / 3))
    values = uh(np.array([float(p) for p, _ in speed.atoms]))
    for (_, m), v in zip(speed.atoms, values):
        if isinstance(m, float) and math.isinf(m):
            if abs(v) > tf.gridfn.SUBSPACE_TOL:
                return math.inf
            continue
        total += float(m) * v * v
    return float(total)


def speed_mass(speed, lo, hi):
    """The finite mass of [lo, hi] under a speed measure, exactly: each
    density piece clipped to [lo, hi], then each finite atom in it."""
    total = 0
    for x0, x1, c in speed.density_pieces:
        left, right = max(x0, lo), min(x1, hi)
        if right > left:
            total += c * (right - left)
    return total + sum(m for p, m in speed.atoms if lo <= p <= hi and m != math.inf)


def trace_atoms_merged(iset):
    """``trace_measure``'s atoms in their former form: appended, sorted by
    position, and merged where two share a position."""
    atoms = []
    for a, b in iset.components:
        atoms += [(a, (b - a) / 2), (b, (b - a) / 2)]
    if iset.tail_left is Tail.ALL_G:
        atoms.append((iset.window[0], math.inf))
    if iset.tail_right is Tail.ALL_G:
        atoms.append((iset.window[1], math.inf))
    atoms.sort(key=lambda t: t[0])
    merged = []
    for p, m in atoms:
        if merged and merged[-1][0] == p:
            merged[-1] = (p, merged[-1][1] + m)
        else:
            merged.append((p, m))
    return tuple(merged)


# ---------------------------------------------------------------------------
# the former per-gap darning image and pushforward builders, kept as oracles
# for the speed measures and the image read from the tables


def collapsed_points(dm):
    """(index, position, width) of each collapsed component closure in the
    former form: one per component of the components tuple, its width b - a."""
    levels = dm._levels
    return [(i, levels.get(i + 1), b - a) for i, (a, b) in enumerate(dm.base.components)]


def darning_image_dict(dm):
    """``DarningMap.image()`` in its former form, ``DarningImage.to_dict``."""
    lo, hi = dm._ends
    return {
        "lo": _encode(lo),
        "hi": _encode(hi),
        "bounded_left": dm.base.tail_left is Tail.ALL_G,
        "bounded_right": dm.base.tail_right is Tail.ALL_G,
        "collapsed": [{"index": i, "position": _encode(p), "width": _encode(w)}
                      for i, p, w in collapsed_points(dm)],
    }


def pushed_through(speed, dm):
    """The image of ``speed`` under the darning map, one piece and one atom at
    a time: each density piece maps end to end and joins the previous image
    piece where the two meet with one density, and each atom goes to dm(p),
    the masses of atoms that land together summed.  Built through the
    validating constructor."""
    pieces, atoms = [], {}
    for lo, hi, c in speed.density_pieces:
        a, b = dm(lo), dm(hi)
        if pieces and pieces[-1][1:] == (a, c):
            a = pieces.pop()[0]
        pieces.append((a, b, c))
    for p, m in speed.atoms:
        y = dm(p)
        atoms[y] = atoms.get(y, 0) + m
    return tf.SpeedMeasure(map(dm, speed.carrier), pieces, sorted(atoms.items()))


def pushforward_per_gap(dm, source="lebesgue"):
    """``pushforward_speed`` in its former form: an atom per collapsed point,
    through the validating constructor."""
    lo, hi = dm._ends
    if not lo < hi:
        raise tf.PreconditionError("darning image is a single point: F has no mass in the window")
    atoms = []
    if source == "lebesgue":
        atoms = [(p, w) for _, p, w in collapsed_points(dm)]
        if dm.base.tail_left is Tail.ALL_G:
            atoms.insert(0, (lo, math.inf))
        if dm.base.tail_right is Tail.ALL_G:
            atoms.append((hi, math.inf))
    return tf.SpeedMeasure((lo, hi), ((lo, hi, 1),), tuple(atoms))


def scale_pushforward_per_plateau(sf):
    """``scale_pushforward_speed`` in its former form: an atom per plateau
    (value, lo, hi) of s, through the validating constructor."""
    iset = sf.base
    lo, hi = sf.window_image()
    if not lo < hi:
        raise tf.PreconditionError(
            "scale image of the window is a single point: G has no mass there "
            "(the whole window collapses)"
        )
    plateaus = [(sf._levels.get(k), *iset._f_pair(k)) for k in iset.f_ranks]
    atoms = [(v, b - a) for v, a, b in plateaus]
    return tf.SpeedMeasure((lo, hi), ((lo, hi, 1),), tuple(atoms))


# ---------------------------------------------------------------------------
# the former placement of an int pair, kept as the oracle of ``_Table.place``


def former_placed(table, x):
    """``table.place(x)`` as ``IntervalSet._g_periodic_mass`` placed a query
    before the table took pairs: an int pair (n, d) by its own division, as
    the ``Fraction`` it stands for, any other number by the table."""
    if type(x) is not tuple:
        return table.place(x)
    f, r = divmod(x[0] * table.den, x[1])
    return x if r else (f, table.den), f, f + (r > 0), *x


# ---------------------------------------------------------------------------
# former per-call forms: each expression as it stood before the work it
# repeated on every call was taken out, kept as the oracle that the present
# form must match bit for bit, error messages included


def former_fold(iset, xs, which):
    """``transforms._fold``, clipping every point and masking each tail."""
    w0, w1 = (float(v) for v in iset.window)
    xin = np.clip(xs, w0, w1)
    gain = np.zeros(xs.shape)
    for out, tail in ((xs < w0, iset.tail_left), (xs > w1, iset.tail_right)):
        if tail is Tail.PERIODIC:
            p = float(iset.period)
            k = np.floor((xs[out] - w0) / p)
            xin[out] = np.clip(xs[out] - k * p, w0, w1)
            gain[out] = k * float(iset.g_mass_window if which == "G" else iset.f_mass_window)
        elif (tail is Tail.ALL_G) == (which == "G"):
            gain[out] = xs[out] - xin[out]
    return xin, gain


def former_closure_index(iset, points):
    """``IntervalSet.closure_index``, widening the ends on every call."""
    xs = np.asarray(points, dtype=float)
    lefts, rights = iset.float_ends
    if not lefts.size:
        return np.full(xs.shape, -1, dtype=np.intp)
    slack = iset.end_slack
    i = np.searchsorted(lefts - slack, xs, side="right") - 1
    c = np.maximum(i, 0)
    return np.where((i >= 0) & (xs <= rights[c] + slack[c]), i, -1)


def former_classify_nodes(iset, points):
    """``IntervalSet.classify(points, nodes=True)`` on the former closure index."""
    xs = np.asarray(points, dtype=float)
    lefts, rights = iset.float_ends
    if not lefts.size:
        return np.full(xs.shape, -1, dtype=np.intp)
    i = former_closure_index(iset, xs)
    c = np.maximum(i, 0)
    return np.where(np.minimum(xs - lefts[c], rights[c] - xs) > iset.end_slack[c], i, -1)


def former_grid_checks(grid, values):
    """The checks of ``GridFunction``, in order, on the float arrays; raises
    the first one's ``ValidationError``."""
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    if grid.ndim != 1 or values.ndim != 1:
        raise tf.ValidationError("grid and values must be one-dimensional")
    if grid.size != values.size:
        raise tf.ValidationError(
            f"grid has {grid.size} nodes but values has {values.size} entries")
    if grid.size < 2:
        raise tf.ValidationError("a grid function needs at least two nodes")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, as the checks ran
        increasing = np.all(np.diff(grid) > 0)
    if not increasing:
        raise tf.ValidationError("grid nodes must be strictly increasing")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise tf.ValidationError("grid nodes and values must be finite")


def former_trace_checks(iset, nodes, values):
    """The checks of ``TraceFunction``, in order: those of ``GridFunction``,
    then its own two; raises the first one's ``ValidationError``."""
    former_grid_checks(nodes, values)
    nodes = np.asarray(nodes, dtype=float)
    missing = former_missing_nodes(nodes, iset).tolist()
    if missing:
        raise tf.ValidationError(f"trace nodes must include {missing}")
    inside = np.flatnonzero(former_classify_nodes(iset, nodes) >= 0)
    if inside.size:
        raise tf.ValidationError(f"trace node {nodes[inside[0]]} lies inside a gap, not in F")


def former_missing_nodes(grid, iset):
    """``gridfn._missing_nodes``, looking up every node of the adapted grid."""
    nodes = iset._adapted
    at = grid[np.minimum(np.searchsorted(grid, nodes), grid.size - 1)]
    return nodes[at != nodes]


def former_collapse_nodes(nodes, values, dm):
    """``gridfn._collapse_nodes``, mapping the nodes on every call."""
    ys, closure = dm._images(nodes)
    keep = np.concatenate([[True], (closure[1:] < 0) | (closure[1:] != closure[:-1])])
    return tf.GridFunction(ys[keep], values[keep])


def former_gap_jumps(phi):
    """``trace.gap_jumps``, interpolating the extension at every float end."""
    lefts, rights = phi.iset.float_ends
    return phi.extension(lefts) - phi.extension(rights)


def former_darn_check(u, dm):
    """``darn_function``'s constancy check: per component, max minus min of
    the values at the ends of its cells, by ``ufunc.at`` on every grid."""
    iset = dm.base
    tf.gridfn.require_adapted(u, iset)
    comp = iset.classify((u.grid[:-1] + u.grid[1:]) / 2)
    g = comp >= 0
    hi = np.full(iset.gap_widths.size, -np.inf)
    lo = np.full(iset.gap_widths.size, np.inf)
    for col in (u.values[:-1], u.values[1:]):
        np.maximum.at(hi, comp[g], col[g])
        np.minimum.at(lo, comp[g], col[g])
    spread = hi - lo
    tf.gridfn._refuse_gap(iset, spread > tf.gridfn.SUBSPACE_TOL, lambda i, a, b: (
        f"function is not constant on component {i} = ({a}, {b}); "
        f"value spread {float(spread[i]):.3e} exceeds tol {tf.gridfn.SUBSPACE_TOL}"))
    return former_collapse_nodes(u.grid, u.values, dm)


def former_undarn_function(uh, dm):
    """``undarn_function`` pulling back through the inverse and the map on
    every call."""
    lo, hi = (float(v) for v in dm._ends)
    if abs(uh.span[0] - lo) > dm._slack or abs(uh.span[1] - hi) > dm._slack:
        raise tf.PreconditionError(
            f"function span {uh.span} does not match the darning image [{lo}, {hi}]")
    ys, positions = uh.grid, dm._tables[0]
    at_collapsed = (np.abs(ys - positions[tf.transforms._nearest(ys, positions)]) <= 1e-12
                    if positions.size else np.zeros(ys.shape, dtype=bool))
    xlo, _ = dm.inverse(ys[~at_collapsed])
    grid = np.union1d(tf.adapted_grid(dm.base), xlo)
    return tf.GridFunction(grid, uh(dm(grid)))


def former_slopes(u):
    """``GridFunction.slopes``, diffing the grid a second time."""
    with np.errstate(over="ignore"):
        return np.diff(u.values) / np.diff(u.grid)


def former_evaluate(u, x):
    """``GridFunction.__call__``, its span check by two ``np.any``."""
    xs = np.asarray(x, dtype=float)
    lo, hi = u.span
    slack = 1e-12 * max(1.0, abs(hi - lo))
    if np.any(xs < lo - slack) or np.any(xs > hi + slack):
        raise tf.PreconditionError(f"evaluation point outside the span [{lo}, {hi}]")
    out = np.interp(xs, u.grid, u.values)
    return float(out) if np.isscalar(x) else out


def former_trace_match(uh, phih):
    """``SampleEquivalence.trace_match``: both transports refined onto the
    union of their grids."""
    common = np.union1d(uh.grid, phih.grid)
    return float(np.max(np.abs(uh.refine(common).values - phih.refine(common).values)))


def _former_csv_writer(header):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    return buf, writer


def former_grid_csv(u):
    """``GridFunction.to_csv`` through ``csv.writer``."""
    buf, writer = _former_csv_writer(["x", "value"])
    for x, v in zip(u.grid, u.values):
        writer.writerow([repr(float(x)), repr(float(v))])
    return buf.getvalue()


def former_path_csv(path):
    """``PathSample.to_csv`` through ``csv.writer``."""
    buf, writer = _former_csv_writer(["t", "x", "flag"])
    for t, x, f in zip(path.times, path.states, path.flags):
        writer.writerow([repr(float(t)), repr(float(x)), int(f)])
    return buf.getvalue()


def former_jump_table_csv(iset):
    """``trace.jump_table_csv`` through ``csv.writer``."""
    buf, writer = _former_csv_writer(["a_n", "b_n", "d_n", "weight"])
    for row in tf.jump_table(iset):
        writer.writerow([repr(v) for v in row])
    return buf.getvalue()


def former_scale_csv(pairs):
    """The ``scale.csv`` rows ``scale eval`` built by hand, from (x, s(x)) floats."""
    rows = ["x,scale"]
    rows += [f"{x!r},{s!r}" for x, s in pairs]
    return "\n".join(rows) + "\n"


def former_feller_csv(triples):
    """The ``feller.csv`` rows ``feller`` built by hand, from (alpha, numeric, limit) floats."""
    rows = ["alpha,numeric,limit"]
    for alpha, numeric, limit in triples:
        rows.append(f"{alpha!r},{numeric!r},{limit!r}")
    return "\n".join(rows) + "\n"


def former_visit_blocks(chain, k0, horizon, rng, holding):
    """``_visit_blocks`` in its former form: the start node as a pending
    first block, and an absorption and a horizon cut as two ends, the
    absorbing node's dwell held at 0.0 until the remaining time is known."""
    if holding not in ("exponential", "deterministic"):
        raise tf.PreconditionError(
            f"holding must be 'exponential' or 'deterministic', got {holding!r}")
    n_top = chain.nodes.size - 1
    if n_top < 1:
        raise tf.PreconditionError("walk needs at least two grid nodes")
    exp_holds = holding == "exponential"
    t = 0.0
    ku = k0
    pending = np.array([k0])
    while True:
        if pending is not None:
            pos = pending
            pending = None
        else:
            steps = 2 * rng.integers(0, 2, size=WALK_BLOCK, dtype=np.int64) - 1
            unfolded = ku + np.cumsum(steps)
            ku = int(unfolded[-1])
            m = unfolded % (2 * n_top)
            pos = np.minimum(m, 2 * n_top - m)
        absorbed = chain.absorbing[pos]
        cut = None
        if np.any(absorbed):
            cut = int(np.argmax(absorbed))
            pos = pos[: cut + 1]
        dwell = chain.holds[pos].copy()
        if cut is not None:
            dwell[-1] = 0.0
        if exp_holds:
            finite = np.isfinite(dwell)
            draws = rng.standard_exponential(pos.size)
            dwell[finite] = dwell[finite] * draws[finite]
        arr = t + np.concatenate([[0.0], np.cumsum(dwell[:-1])])
        if cut is not None:
            if arr[-1] >= horizon:
                cut = None
            else:
                dwell[-1] = horizon - arr[-1]
                yield pos, arr, dwell
                return
        end_time = arr[-1] + dwell[-1]
        if end_time >= horizon:
            j = int(np.argmax(arr + dwell >= horizon))
            pos = pos[: j + 1]
            arr = arr[: j + 1]
            dwell = dwell[: j + 1]
            dwell[-1] = horizon - arr[-1]
            yield pos, arr, dwell
            return
        t = end_time
        yield pos, arr, dwell


def former_walk_start(chain, x0, horizon, seed):
    """The set-up each former walk repeated: the horizon, start and seed
    checks, the start node and the generator."""
    if not 0 < horizon < math.inf:
        raise tf.PreconditionError(f"horizon must be positive and finite, got {horizon}")
    lo, hi = chain.lo, float(chain.nodes[-1])
    if not lo <= x0 <= hi:
        raise tf.PreconditionError(f"start point {x0} is outside the carrier [{lo}, {hi}]")
    if seed < 0:
        raise tf.PreconditionError(f"seed must be nonnegative, got {seed}")
    return int(round((x0 - lo) / chain.h)), np.random.default_rng(seed)


def former_walk_chain(chain, x0, horizon, seed, holding):
    """``_walk_chain`` in its former form: node coordinates recorded as
    states, with an empty-path fallback and the last state carried to the
    horizon."""
    k0, rng = former_walk_start(chain, x0, horizon, seed)
    times, states = [], []
    absorbed_at = absorbed_time = None
    last_state = float(chain.nodes[k0])
    for pos, arr, dwell in former_visit_blocks(chain, k0, horizon, rng, holding):
        keep = dwell > 0
        if chain.absorbing[pos[-1]] and absorbed_at is None:
            absorbed_at = float(chain.nodes[pos[-1]])
            absorbed_time = float(arr[-1])
            keep[-1] = True
        if np.any(keep):
            times.append(arr[keep])
            states.append(chain.nodes[pos[keep]])
            last_state = float(states[-1][-1])
    if times:
        t_all = np.concatenate(times)
        x_all = np.concatenate(states)
    else:
        t_all = np.array([0.0])
        x_all = np.array([float(chain.nodes[k0])])
    if t_all[-1] < horizon:
        t_all = np.append(t_all, horizon)
        x_all = np.append(x_all, last_state)
    flags = np.zeros(t_all.size, dtype=np.int8)
    if absorbed_time is not None:
        flags[t_all >= absorbed_time] = 2
    path = tf.PathSample(t_all, x_all, flags, seed=seed)
    assert (path.horizon, path.absorbed_at, path.absorbed_time) == \
        (horizon, absorbed_at, absorbed_time)
    return path


def former_simulate_xs(sf, h, x0, horizon, seed, boundary=("reflect", "reflect"),
                       holding="exponential"):
    """``simulate_xs`` in its former form: the node of each recorded state
    recovered by rounding it back onto the grid."""
    speed = tf.scale_pushforward_speed(sf)
    chain = tf.build_chain(speed, h, boundary)
    path = former_walk_chain(chain, float(sf(x0)), horizon, seed, holding)
    img_lo, img_hi = (float(v) for v in speed.carrier)
    xs, _ = sf.inverse(np.clip(chain.nodes, img_lo, img_hi))
    flags = np.zeros(chain.nodes.size, dtype=np.int8)
    atoms = list(chain.atom_nodes)
    _, _, f_lo, f_hi = sf._tables
    xs[atoms] = (f_lo + f_hi) / 2
    flags[atoms] = 1
    idx = np.rint((path.states - chain.lo) / h).astype(int)
    mapped_flags = flags[idx]
    mapped_flags[path.flags == 2] = 2
    absorbed_at = None
    if path.absorbed_at is not None:
        absorbed_at = float(xs[int(round((path.absorbed_at - chain.lo) / h))])
    mapped = tf.PathSample(path.times, xs[idx], mapped_flags, seed=seed)
    assert (mapped.horizon, mapped.absorbed_at, mapped.absorbed_time) == \
        (horizon, absorbed_at, path.absorbed_time)
    return mapped


def former_walk_occupation(speed, h, x0, horizon, seed, targets, boundary=("reflect", "reflect"),
                           holding="exponential", burn_in=0.0, batches=20):
    """``walk_occupation`` over ``former_visit_blocks``, with its former set-up."""
    if not 0 < horizon < math.inf:
        raise tf.PreconditionError(f"horizon must be positive and finite, got {horizon}")
    _check_batches(burn_in, horizon, batches)
    chain = tf.build_chain(speed, h, boundary)
    k0, rng = former_walk_start(chain, x0, horizon, seed)
    member = [_membership(chain.nodes, tg) for tg in targets]
    blocks = ((arr, dwell, [row[pos] for row in member])
              for pos, arr, dwell in former_visit_blocks(chain, k0, horizon, rng, holding))
    return _batch_occupation(blocks, targets, burn_in, horizon, batches)
