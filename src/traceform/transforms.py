"""Scale functions, darning maps, and speed measures built from an interval set.

The scale function accumulates G-mass, so it is affine with slope one across
each G-component and flat across F.  The darning map does the opposite: it
accumulates F-mass, collapsing the closure of each G-component to a single
point of the image.  Pushforwards of Lebesgue measure under either map are
piecewise-constant densities plus atoms, represented by ``SpeedMeasure``.
Both read the map's tables, the exact atoms only when asked; the darning
map's ``image()`` gives the same collapsed points as a dict for JSON.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import sub

import numpy as np

from .errors import PreconditionError, ValidationError
from .intervals import (IntervalSet, Real, Tail, _combine, _decode, _encode, _float_end, _number,
                        _read_only)


class Case(Enum):
    """Range of the scale function: infinite on both sides, one side, or neither.

    CaseI and CaseII are exactly the sets whose G has infinite total mass; the
    associated diffusion is recurrent in CaseI and transient otherwise.
    """

    I = "CaseI"
    II = "CaseII"
    III = "CaseIII"


def classify_case(obj) -> Case:
    """Classify an ``IntervalSet`` (or anything exposing ``.base``)."""
    iset = obj.base if hasattr(obj, "base") else obj
    left = iset.side_mass_infinite("left")
    right = iset.side_mass_infinite("right")
    if left and right:
        return Case.I
    if left or right:
        return Case.II
    return Case.III


def _fold(iset: IntervalSet, xs: np.ndarray, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Move float points into the window.  Returns the window points and the
    mass of ``which`` ("G" or "F") from each window point to its original,
    as the tails declare it."""
    w0, w1 = (float(v) for v in iset.window)
    below, above = xs < w0, xs > w1
    gain = np.zeros(xs.shape)
    if not (below.any() or above.any()):  # as np.clip gives them, -0.0 kept
        return xs.copy(), gain
    xin = np.clip(xs, w0, w1)
    for out, tail in ((below, iset.tail_left), (above, iset.tail_right)):
        if tail is Tail.PERIODIC:
            _check_finite(xs[out], "point")
            p = float(iset.period)
            k = np.floor((xs[out] - w0) / p)
            xin[out] = np.clip(xs[out] - k * p, w0, w1)
            gain[out] = k * float(iset.g_mass_window if which == "G" else iset.f_mass_window)
        elif (tail is Tail.ALL_G) == (which == "G"):
            gain[out] = xs[out] - xin[out]
    return xin, gain


def _check_finite(xs: np.ndarray, what: str) -> None:
    """Refuse the first infinite entry of points or values folded by a Periodic tail."""
    far = xs[np.isinf(xs)]
    if far.size:
        raise PreconditionError(f"{what} {far[0]} must be finite on a Periodic tail")


def _exact(anchor: Real, name: str) -> Real:
    """A float anchor as its exact value, as a float end of a set is taken."""
    if isinstance(anchor, float) and not math.isfinite(anchor):
        raise PreconditionError(f"{name} must be finite, got {anchor}")
    return Fraction(anchor) if isinstance(anchor, float) else anchor


def _queries(x) -> np.ndarray:
    """A query ndarray as float64; NaN has no image or preimage."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise PreconditionError("query values must not be NaN")
    return xs


def _nearest(ys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the nearest of the sorted, nonempty ``values`` to each y; the
    higher one on a tie."""
    k = np.searchsorted(values, ys)
    above, below = np.minimum(k, values.size - 1), np.maximum(k - 1, 0)
    return np.where(ys - values[below] < values[above] - ys, below, above)


def _snap(ys: np.ndarray, values: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Each y within ``slack`` of the nearest of the sorted ``values``
    becomes that value."""
    near = values[_nearest(ys, values)]
    return np.where(np.abs(ys - near) <= slack, near, ys)


class ScaleFunction:
    """s(x) = signed G-mass between the anchor and x; s(anchor) = 0.

    A float anchor is taken as its exact value, so scalar calls are exact
    for exact input.  A float ndarray maps elementwise through the float64
    tables, by bisection.
    """

    def __init__(self, base: IntervalSet, anchor: Real = 0):
        self.base = base
        self.anchor = _exact(anchor, "scale anchor")

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self._map(_queries(x))
        return self.base._mass_from(self._anchor, x, "G")

    @cached_property
    def _anchor(self) -> tuple:
        return self.base._ends.place(self.anchor)

    @cached_property
    def _levels(self):
        # s at each component's left end, then at w1: s(w0) plus the running G-mass
        iset = self.base
        return iset._anchored(self(iset.window[0]), iset._prefix)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        # float64 levels, plateau values, plateau lows and plateau highs
        levels, ranks = self._levels.floats(), self.base.f_ranks
        return (levels, levels[ranks.start:ranks.stop], *self.base._f_floats)

    @cached_property
    def _level_floats(self) -> list:
        # the float levels as a list, bisected by the scalar inverse
        return self._tables[0].tolist()

    @cached_property
    def _snap_values(self) -> np.ndarray:
        # float64 s(w0), the plateau values and s(w1): a float folded back snaps to these
        levels, values = self._tables[:2]
        return np.concatenate([levels[:1], values, levels[-1:]])

    def window_image(self) -> tuple[Real, Real]:
        return self._levels.get(0), self._levels.get(-1)

    @cached_property
    def _slack(self) -> float:  # as DarningMap._slack
        s0, s1 = self.window_image()
        return 1e-12 * max(1.0, abs(float(s1 - s0)))

    def _map(self, xs: np.ndarray) -> np.ndarray:
        iset = self.base
        levels = self._tables[0]
        xin, gain = _fold(iset, xs, "G")
        lefts, rights = iset.float_ends
        if not lefts.size:
            return levels[0] + gain
        i = np.searchsorted(lefts, xin, side="right") - 1
        c = np.maximum(i, 0)
        inside = (i >= 0) & (xin < rights[c])
        return np.where(inside, levels[c] + (xin - lefts[c]), levels[i + 1]) + gain

    def inverse(self, y):
        """Full preimage of y, clipped to the window.

        Returns (lo, hi); lo == hi when y is hit inside a G-component, and the
        closed F-component on which s plateaus at y otherwise.  Values never
        attained by s raise ``PreconditionError``; a float value is past the
        window's image when it is past the float of s(w0) or s(w1), and where
        s takes no values past it (an all-F tail, or Periodic with no G-mass),
        a float within 1e-12 max(1, |s(w1) - s(w0)|) of it is that edge value.  With
        Periodic tails a value past the window's image is folded back by
        whole periods, once; one that lands on the seam value s(w0) = s(w1) -
        period mass gives the whole plateau across the seam, the F-stretches
        either side of the seam point joined.  A float value folded back that
        lands within 1e-12 max(1, |y|) of a plateau value or of the seam value
        is taken as that value, and a float value equal to the float of a
        plateau value is that plateau.  A float ndarray gives a pair of arrays.
        """
        if isinstance(y, np.ndarray):
            return self._inverse_map(_queries(y))
        iset, levels = self.base, self._levels
        nums, floats = levels.nums, self._level_floats
        v, f, c, _, _ = levels.place(y)
        if isinstance(y, float):  # past the image's floats, as the array path clips
            if y != y:
                raise PreconditionError("query values must not be NaN")
            below, above = y < floats[0], y > floats[-1]
        else:
            below, above = f < nums[0], c > nums[-1]
        if below or above:
            return self._tail_inverse(y, below)
        # the first plateau value at or above y, then the left end of the
        # component whose image holds y; a float y is a plateau value when it
        # equals that value's float, as in the array path
        ranks = iset.f_ranks
        if isinstance(y, float):
            k = bisect_left(floats, y, ranks.start, ranks.stop)
            if k < ranks.stop and floats[k] == y:
                return iset._f_pair(k)
        else:
            k = max(bisect_left(nums, c), ranks.start)
            if k < ranks.stop and f == c == nums[k]:
                return iset._f_pair(k)
        # a float equal to the float of s(w0) may lie just below s(w0)
        i = max(min(bisect_right(nums, f), len(iset._lo)) - 1, 0)
        x = _number(_combine((iset._lo[i], iset.den),
                               _combine(v, _float_end(nums[i], levels.den, v), sub)))
        return x, x

    def _tail_inverse(self, y, below: bool):
        iset = self.base
        w0, w1 = iset.window
        s0, s1 = self.window_image()
        tail = iset.tail_left if below else iset.tail_right
        if tail is Tail.ALL_G:
            x = w0 - (s0 - y) if below else w1 + (y - s1)
            return x, x
        if tail is Tail.ALL_F or iset.g_prefix[-1] == 0:
            edge = s0 if below else s1
            if isinstance(y, float) and abs(y - float(edge)) <= self._slack:
                return self.inverse(edge)  # rounded a hair past the image's edge
            side = "below" if below else "above"
            raise PreconditionError(f"value {y} is {side} the range of the scale function")
        if not math.isfinite(y):
            raise PreconditionError(f"value {y} must be finite on a Periodic tail")
        per_mass, p = iset.g_mass_window, iset.period
        if below:
            k = math.ceil((s0 - y) / per_mass)
            yk, shift = y + k * per_mass, -k * p
        else:
            k = math.ceil((y - s1) / per_mass)
            yk, shift = y - k * per_mass, k * p
        # a float fold can round a hair past the image: that is its edge
        yk = s0 if yk < s0 else s1 if yk > s1 else yk
        if isinstance(yk, float):
            # and a hair off a plateau value or the seam value, which it takes,
            # by the array path's rule; the scalar inverse finds that plateau
            ends = self._snap_values
            near = _snap(np.array([yk]), ends, np.array(1e-12 * max(1.0, abs(y))))[0]
            yk = s0 if near == ends[0] else s1 if near == ends[-1] else float(near)
        if yk == s0 or yk == s1:
            lo, hi = self._seam()
            if yk == s1:
                shift = shift + p
        else:
            lo, hi = self.inverse(yk)
        return lo + shift, hi + shift

    def _seam(self):
        """The plateau of s(w0) across the seam point w0: the last F-stretch of
        the period before, and the first of this one, either of them empty
        when a component touches that window edge."""
        iset = self.base
        w0, ranks, (lows, highs) = iset.window[0], iset.f_ranks, iset._f_ends
        m = len(iset._lo)
        lo = lows.get(m) - iset.period if m in ranks else w0
        return lo, highs.get(0) if 0 in ranks else w0

    def _inverse_map(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        iset = self.base
        levels, values, lows, highs = self._tables
        s0, s1 = levels[0], levels[-1]
        w0, w1 = (float(v) for v in iset.window)
        sides = ((ys < s0, iset.tail_left, "below", s0, w0),
                 (ys > s1, iset.tail_right, "above", s1, w1))
        yin, shift = np.clip(ys, s0, s1), np.zeros(ys.shape)
        folded = np.zeros(ys.shape, dtype=bool)
        for out, tail, side, s_edge, _ in sides:
            if not out.any():
                continue
            if tail is Tail.ALL_F or (tail is Tail.PERIODIC and iset.g_prefix[-1] == 0):
                far = ys[out][np.abs(ys[out] - s_edge) > self._slack]  # the rest clip onto it
                if far.size:
                    raise PreconditionError(f"value {far[0]} is {side} the range of the scale function")
            elif tail is Tail.PERIODIC:
                _check_finite(ys[out], "value")
                # whole periods back into the window's image, counted as the scalar
                # path does; the subtraction rounds, so within 1e-12 of a whole
                # number of periods, or of a plateau value that many out, is that value
                per, d = float(iset.g_mass_window), ys[out] - s_edge
                slack = 1e-12 * np.maximum(1.0, np.abs(ys[out]))
                k = np.sign(d) * np.ceil((np.abs(d) - slack) / per)
                back = np.clip(ys[out] - k * per, s0, s1)
                yin[out] = _snap(back, self._snap_values, slack)
                shift[out] = k * float(iset.period)
                folded |= out
        x = np.zeros(ys.shape)
        lefts = iset.float_ends[0]
        if lefts.size:
            i = np.minimum(np.searchsorted(levels, yin, side="right"), lefts.size) - 1
            x = lefts[i] + (yin - levels[i])
        lo, hi = x, x
        if values.size:
            k = np.minimum(np.searchsorted(values, yin), values.size - 1)
            flat = values[k] == yin
            lo, hi = np.where(flat, lows[k], x), np.where(flat, highs[k], x)
        if folded.any():
            seam = folded & ((yin == s0) | (yin == s1))  # folded onto the seam value
            seam_lo, seam_hi = (float(v) for v in self._seam())
            p = np.where(yin == s1, float(iset.period), 0.0)
            lo, hi = np.where(seam, seam_lo + p, lo), np.where(seam, seam_hi + p, hi)
        lo, hi = lo + shift, hi + shift
        for out, tail, _, s_edge, w_edge in sides:
            if tail is Tail.ALL_G:
                lo[out] = hi[out] = w_edge + (ys[out] - s_edge)
        return lo, hi


class DarningMap:
    """j(x) = signed F-mass between the anchor z and x; constant on each
    closed G-component, strictly increasing across F.

    The anchor must lie in F but not at a component endpoint.  When omitted it
    is chosen deterministically: the left end of the first positive-length
    F-component if that end is not a component endpoint, else that
    component's midpoint.  A float anchor is taken as its exact value.
    """

    def __init__(self, base: IntervalSet, z: Real | None = None):
        self.base = base
        if z is None:
            z = self._default_anchor(base)
        self.z = _exact(z, "darning anchor")
        self._check_anchor(z)

    @cached_property
    def _anchor(self) -> tuple:
        return self.base._ends.place(self.z)

    @staticmethod
    def _default_anchor(iset: IntervalSet) -> Real:
        if not iset.f_ranks:
            raise PreconditionError(
                "no valid darning anchor: F has no positive-length part in the window"
            )
        lo, hi = iset._f_pair(iset.f_ranks.start)
        return lo if not iset.is_endpoint(lo) else (lo + hi) / 2

    def _check_anchor(self, z: Real) -> None:
        if self.base.in_g(z):
            raise PreconditionError(f"darning anchor {z} lies in G")
        if self.base.is_endpoint(z):
            raise PreconditionError(
                f"darning anchor {z} is a component endpoint; it must be interior to F"
            )

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self._images(_queries(x))[0]
        return self.base._mass_from(self._anchor, x, "F")

    @cached_property
    def _ends(self) -> tuple[Real, Real]:
        w0, w1 = self.base.window
        return self(w0), self(w1)

    @cached_property
    def _levels(self):
        # j at the left end of the F-stretch of each rank: j(w0), then each
        # collapsed point; then j at w1, the far end of the last F-stretch
        return self.base._anchored(self._ends[0], self.base._f_before)

    def _collapsed(self):
        """(position, width) of each collapsed component closure, exactly."""
        levels, widths = self._levels, self.base._g_widths
        return zip(map(levels.value, levels.nums[1:-1]), map(widths.value, widths.nums))

    def image(self) -> dict:
        """For JSON: the window's image [lo, hi], whether each end is bounded
        (an all-G tail), and each collapsed point's index, position and width."""
        (lo, hi), iset = self._ends, self.base
        return {"lo": _encode(lo), "hi": _encode(hi),
                "bounded_left": iset.tail_left is Tail.ALL_G,
                "bounded_right": iset.tail_right is Tail.ALL_G,
                "collapsed": [{"index": i, "position": _encode(p), "width": _encode(w)}
                              for i, (p, w) in enumerate(self._collapsed())]}

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        # float64 collapsed positions, then per F-component its image span
        # (j_lo, j_hi) and its ends (x_lo, x_hi)
        iset, j = self.base, self._levels.floats()
        ranks = iset.f_ranks
        return (j[1:-1], j[ranks.start:ranks.stop], j[ranks.start + 1:ranks.stop + 1],
                *iset._f_floats)

    @cached_property
    def _level_floats(self) -> list:
        # j(w0), the float collapsed points and j(w1) as a list, bisected by
        # the scalar inverse
        return self._levels.floats().tolist()

    def _images(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """j of float points, and the index of the component whose closure
        holds each window point, else -1 (``IntervalSet.closure_index``, the
        lookup under ``classify(nodes=True)``).  Points of a closure map to
        exactly its collapsed position.  Other points are measured from the
        nearer end of their F span, so a window edge maps to exactly the
        float of its exact image."""
        iset = self.base
        positions, j_lo, j_hi, x_lo, x_hi = self._tables
        xin, gain = _fold(iset, xs, "F")
        ys = np.full(xs.shape, float(self._ends[0]))
        if x_lo.size:
            k = np.clip(np.searchsorted(x_lo, xin, side="right") - 1, 0, x_lo.size - 1)
            ys = np.where(xin - x_lo[k] <= x_hi[k] - xin, j_lo[k] + (xin - x_lo[k]),
                          j_hi[k] - (x_hi[k] - xin))
        closure = iset.closure_index(xin)
        if positions.size:
            ys = np.where(closure >= 0, positions[np.maximum(closure, 0)], ys)
        return ys + gain, closure

    @cached_property
    def _adapted_images(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_read_only, self._images(self.base._adapted)))

    @cached_property
    def _slack(self) -> float:
        lo, hi = self._ends
        return 1e-12 * max(1.0, abs(float(hi - lo)))

    def inverse(self, y):
        """Full preimage of y within the window: a point of F, or the closed
        component interval when y is a collapsed point.  A float ndarray
        gives a pair of arrays."""
        if isinstance(y, np.ndarray):
            return self._inverse_map(_queries(y))
        iset, levels = self.base, self._levels
        nums, floats, m = levels.nums, self._level_floats, len(iset._lo)
        v, f, c, _, _ = levels.place(y)
        below = f < nums[0]
        if below or nums[-1] < c:
            # float inputs that went through the forward map can land one
            # ulp outside the exact rational image; clamp those, reject more
            if floats[0] - self._slack <= y <= floats[-1] + self._slack:
                y = self._ends[0 if below else 1]
                v, f, c, _, _ = levels.place(y)
            else:
                self._raise_outside(y)
        if isinstance(y, float):  # compared with the floats, as in the array path
            if y != y:
                raise PreconditionError("query values must not be NaN")
            k = bisect_left(floats, y, 1, m + 1) - 1  # collapsed points below y
            hit = k < m and floats[k + 1] == y
        else:
            k = bisect_left(nums, c, 1, m + 1) - 1
            hit = k < m and f == c == nums[k + 1]
        if hit or k not in iset.f_ranks:
            # a component at a window edge leaves no F span there: y is off its
            # collapsed point only by the rounding of a float image
            k = min(k, m - 1)
            return iset._f_pair(k)[1], iset._f_pair(k + 1)[0]
        # y lies on the F span of rank k, between collapsed points k - 1 and k
        x = _number(_combine((iset._f_ends[0].nums[k], iset.den),
                               _combine(v, _float_end(nums[k], levels.den, v), sub)))
        return x, x

    def _raise_outside(self, y):
        lo, hi = self._ends
        raise PreconditionError(
            f"value {y} is outside the window image [{lo}, {hi}] of the darning map"
        )

    def _inverse_map(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        positions, j_lo, j_hi, x_lo, x_hi = self._tables
        lo, hi = (float(v) for v in self._ends)
        slack = self._slack
        bad = (ys < lo - slack) | (ys > hi + slack)
        if bad.any():
            self._raise_outside(ys[bad][0])
        y = np.clip(ys, lo, hi)
        # as in the scalar path: k collapsed points lie below y, or y is the k-th
        k = np.searchsorted(positions, y)
        x = np.zeros(y.shape)
        if x_lo.size:
            f = np.clip(k - self.base.f_ranks.start, 0, j_lo.size - 1)
            x = np.where(y - j_lo[f] <= j_hi[f] - y, x_lo[f] + (y - j_lo[f]),
                         x_hi[f] - (j_hi[f] - y))
        if not positions.size:
            return x, x
        lefts, rights = self.base.float_ends
        ranks = self.base.f_ranks
        hit = (k < ranks.start) | (k >= ranks.stop)  # as in the scalar path
        k = np.minimum(k, positions.size - 1)
        hit |= positions[k] == y
        return np.where(hit, lefts[k], x), np.where(hit, rights[k], x)


def _ordered_sum(terms: np.ndarray, start: float = 0.0) -> float:
    """start + terms[0] + terms[1] + ..., added left to right as a running
    Python total adds them (``np.sum`` adds pairwise)."""
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


def _float_columns(rows, k: int) -> tuple[np.ndarray, ...]:
    """The float64 columns of a sequence of k-tuples."""
    return tuple(np.array([[float(v) for v in row] for row in rows]).reshape(-1, k).T)


class SpeedMeasure:
    """Piecewise-constant density plus point atoms on a finite carrier.

    The carrier ends, densities and atom positions are finite; atom masses
    live in (0, inf], and an infinite atom marks an absorbing point.
    Immutable; equal when carrier, density pieces and atoms are.  Numeric
    readers use the float64 tables ``_piece_arrays`` (lo, hi, c) and
    ``_atom_arrays`` (positions, masses); the exact ``density_pieces`` and
    ``atoms`` tuples serve equality and JSON.
    """

    def __init__(self, carrier, density_pieces=(), atoms=()):
        self.__dict__.update(carrier=tuple(carrier), atoms=tuple(tuple(a) for a in atoms),
                             density_pieces=tuple(tuple(p) for p in density_pieces))
        self._check()

    @classmethod
    def _from_table(cls, carrier, pieces, exact_pieces, atoms, exact_atoms) -> "SpeedMeasure":
        """A measure from float64 tables, unchecked: ``pieces`` holds the lo,
        hi and c of its density pieces and ``atoms`` the positions and masses
        of its atoms, each in order and apart.  ``exact_pieces()`` and
        ``exact_atoms()`` make the exact tuples on first use."""
        self = cls.__new__(cls)
        self.__dict__.update(carrier=carrier, _piece_arrays=pieces, _atom_arrays=atoms,
                             _exact=(exact_pieces, exact_atoms))
        return self

    @cached_property
    def density_pieces(self) -> tuple[tuple[Real, Real, Real], ...]:
        return self._exact[0]()

    @cached_property
    def atoms(self) -> tuple[tuple[Real, Real], ...]:
        return self._exact[1]()

    def __setattr__(self, name, value):
        raise AttributeError(f"SpeedMeasure is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, SpeedMeasure):
            return NotImplemented
        return (self.carrier, self.density_pieces, self.atoms) == (
            other.carrier, other.density_pieces, other.atoms)

    def __hash__(self):
        return hash((self.carrier, self.density_pieces, self.atoms))

    def _check(self):
        lo, hi = self.carrier
        if not lo < hi:
            raise ValidationError(f"carrier must satisfy lo < hi, got ({lo}, {hi})")
        if not -math.inf < lo < hi < math.inf:
            raise ValidationError(f"carrier must be finite, got ({lo}, {hi})")
        prev = None
        for x0, x1, c in self.density_pieces:
            if not x0 < x1:
                raise ValidationError(f"density piece ({x0}, {x1}) has nonpositive length")
            if x0 < lo or x1 > hi:
                raise ValidationError(f"density piece ({x0}, {x1}) leaves the carrier")
            if c < 0:
                raise ValidationError(f"density {c} is negative")
            if not c < math.inf:
                raise ValidationError(f"density {c} is not finite")
            if prev is not None and x0 < prev:
                raise ValidationError("density pieces overlap")
            prev = x1
        seen = set()
        for p, m in self.atoms:
            if not lo <= p <= hi:
                raise ValidationError(f"atom at {p} leaves the carrier")
            if not m > 0:
                raise ValidationError(f"atom mass {m} must be positive")
            if p in seen:
                raise ValidationError(f"duplicate atom at {p}")
            seen.add(p)

    def _tent_density(self, ys: np.ndarray, h: float) -> np.ndarray:
        """The integral of the tent kernel (h - |xi - y|)+ against the density
        at every point y of ``ys``: per point, the pieces added in order."""
        def prim(t):
            # antiderivative of (h - |tau|) on [-h, h], clamped outside
            t = np.clip(t, -h, h)
            return h * t - np.copysign(t * t, t) / 2

        total = np.zeros(ys.shape)
        for x0, x1, c in zip(*(a.tolist() for a in self._piece_arrays)):
            left = np.maximum(x0, ys - h)
            right = np.minimum(x1, ys + h)
            total += np.where(right > left, c * (prim(right - ys) - prim(left - ys)), 0.0)
        return total

    @cached_property
    def _piece_arrays(self) -> tuple[np.ndarray, ...]:
        return _float_columns(self.density_pieces, 3)  # lo, hi and c, in piece order

    @cached_property
    def _atom_arrays(self) -> tuple[np.ndarray, ...]:
        return _float_columns(self.atoms, 2)  # positions and masses, in atom order

    def to_dict(self) -> dict:
        return {
            "carrier": [_encode(self.carrier[0]), _encode(self.carrier[1])],
            "density_pieces": [[_encode(a), _encode(b), _encode(c)] for a, b, c in self.density_pieces],
            "atoms": [[_encode(p), _encode(m)] for p, m in self.atoms],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpeedMeasure":
        try:
            carrier = tuple(_decode(x) for x in d["carrier"])
            pieces = tuple(tuple(_decode(x) for x in p) for p in d["density_pieces"])
            atoms = tuple((_decode(p), _decode(m)) for p, m in d["atoms"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ValidationError(f"malformed speed measure description: {exc}") from exc
        return cls(carrier, pieces, atoms)


PUSHFORWARD_SOURCES = ("lebesgue", "f_indicator", "trace")


def _unit_density(lo: Real, hi: Real) -> tuple:
    """The float64 piece table and the exact thunk of density one on [lo, hi]."""
    return (np.array([float(lo)]), np.array([float(hi)]), np.ones(1)), lambda: ((lo, hi, 1),)


def _gap_atoms(iset: IntervalSet, carrier, positions, masses, exact) -> tuple:
    """The float64 atom table and the exact thunk of a set's gap atoms, in
    order between the infinite atoms that an all-G tail puts at the carrier's
    ends: ``positions`` and ``masses`` are the gap atoms' floats, ``exact()``
    their exact pairs."""
    (lo, hi), n0, n1 = carrier, *(int(t is Tail.ALL_G) for t in (iset.tail_left, iset.tail_right))
    return ((np.concatenate([[float(lo)] * n0, positions, [float(hi)] * n1]),
             np.concatenate([[math.inf] * n0, masses, [math.inf] * n1])),
            lambda: (*[(lo, math.inf)] * n0, *exact(), *[(hi, math.inf)] * n1))


def pushforward_speed(dm: DarningMap, source: str = "lebesgue") -> SpeedMeasure:
    """Pushforward of a reference measure under the darning map.

    Sources: "lebesgue" pushes dx (each collapsed component becomes an atom of
    mass equal to its width), "f_indicator" pushes 1_F dx (plain Lebesgue on
    the image, no atoms), "trace" pushes 1_F dx plus half-width atoms at both
    endpoints of every component (the halves merge at the collapsed point, so
    the result coincides with the "lebesgue" pushforward).  All-G tails add an
    infinite atom at the corresponding image boundary.
    """
    if source not in PUSHFORWARD_SOURCES:
        raise PreconditionError(f"unknown pushforward source {source!r}")
    lo, hi = dm._ends
    if not lo < hi:
        raise PreconditionError(
            "darning image is a single point: F has no mass in the window"
        )
    if source == "f_indicator":
        return SpeedMeasure._from_table((lo, hi), *_unit_density(lo, hi),
                                        (np.zeros(0), np.zeros(0)), tuple)
    # in order: an all-G edge meets no component, so its image lies outside
    # every collapsed point
    iset = dm.base
    return SpeedMeasure._from_table((lo, hi), *_unit_density(lo, hi), *_gap_atoms(
        iset, (lo, hi), dm._tables[0], iset.gap_widths, dm._collapsed))


def scale_pushforward_speed(sf: ScaleFunction) -> SpeedMeasure:
    """Pushforward of Lebesgue measure on the window under the scale function:
    density one on the image of G, an atom of mass m(F-component) at each
    collapsed F-component value."""
    iset, levels = sf.base, sf._levels
    lo, hi = sf.window_image()
    if not lo < hi:
        raise PreconditionError(
            "scale image of the window is a single point: G has no mass there "
            "(the whole window collapses)"
        )
    r, widths = iset.f_ranks, iset._f_widths
    return SpeedMeasure._from_table(
        (lo, hi), *_unit_density(lo, hi), (sf._tables[1], widths.floats()[r.start:r.stop]),
        lambda: tuple(zip(map(levels.value, levels.nums[r.start:r.stop]),
                          map(widths.value, widths.nums[r.start:r.stop]))))
