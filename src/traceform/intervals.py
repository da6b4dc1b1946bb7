"""Finite descriptions of an open subset G of the line and its closed complement F.

An ``IntervalSet`` stores the open set G as an ordered list of disjoint open
intervals inside a finite window, together with a declaration of what the set
looks like beyond the window (all of G, all of F, or a periodic repetition of
the window pattern).  Everything downstream (scale functions, darning maps,
trace energies) reads the geometry through this type.

Endpoints produced by the built-in generators are exact ``fractions.Fraction``
values, so shared-endpoint detection and Lebesgue masses are exact.  Endpoints
supplied as floats are kept as floats and compared exactly as given.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import PreconditionError, ValidationError

Real = Union[int, float, Fraction]

SVC_MAX_DEPTH = 20


class Tail(Enum):
    """Declared behavior of the set outside the window."""

    ALL_G = "AllG"
    ALL_F = "AllF"
    PERIODIC = "Periodic"


def _encode(x: Real):
    if isinstance(x, Fraction):
        return str(x)
    return x


def _decode(x) -> Real:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, bool):
        raise ValidationError("boolean is not a valid endpoint")
    if isinstance(x, (int, float)):
        return x
    raise ValidationError(f"cannot decode endpoint {x!r}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``IntervalSet.validate``.  Carries failures, never raises."""

    delta: Real
    measure_dense: bool
    no_shared_endpoints: bool
    no_isolated_f_points: bool
    violations: tuple[tuple[Real, Real], ...]

    @property
    def ok(self) -> bool:
        return self.measure_dense and self.no_shared_endpoints and self.no_isolated_f_points

    def to_dict(self) -> dict:
        return {
            "delta": _encode(self.delta),
            "measure_dense": self.measure_dense,
            "no_shared_endpoints": self.no_shared_endpoints,
            "no_isolated_f_points": self.no_isolated_f_points,
            "violations": [[_encode(a), _encode(b)] for a, b in self.violations],
            "ok": self.ok,
        }


@dataclass(frozen=True)
class IntervalSet:
    """Open set G inside a window, plus tail declarations beyond it.

    ``components`` are the open intervals making up G within the window,
    sorted, pairwise disjoint, and never sharing an endpoint (a shared
    endpoint would make an isolated point of F, which is excluded).
    """

    window: tuple[Real, Real]
    components: tuple[tuple[Real, Real], ...] = ()
    tail_left: Tail = Tail.ALL_F
    tail_right: Tail = Tail.ALL_F
    period: Real | None = None

    def __post_init__(self):
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))
        self._validate_structure()

    def _validate_structure(self) -> None:
        if len(self.window) != 2:
            raise ValidationError("window must be a pair (w0, w1)")
        w0, w1 = self.window
        if not w0 < w1:
            raise ValidationError(f"window must satisfy w0 < w1, got ({w0}, {w1})")
        for tail in (self.tail_left, self.tail_right):
            if not isinstance(tail, Tail):
                raise ValidationError(f"tail must be a Tail enum member, got {tail!r}")
        periodic = Tail.PERIODIC in (self.tail_left, self.tail_right)
        if periodic:
            if self.period is None:
                object.__setattr__(self, "period", w1 - w0)
            elif self.period != w1 - w0:
                raise ValidationError(
                    f"period {self.period} must equal the window length {w1 - w0}: "
                    "the window holds exactly one period"
                )
        elif self.period is not None:
            raise ValidationError("period given but neither tail is Periodic")

        prev_b: Real | None = None
        prev_pair: tuple[Real, Real] | None = None
        for pair in self.components:
            if len(pair) != 2:
                raise ValidationError(f"component {pair!r} is not a pair")
            a, b = pair
            if not a < b:
                raise ValidationError(f"component ({a}, {b}) has nonpositive length")
            if a < w0 or b > w1:
                raise ValidationError(f"component ({a}, {b}) extends beyond window ({w0}, {w1})")
            if prev_b is not None:
                if a < prev_b:
                    raise ValidationError(
                        f"components {prev_pair} and ({a}, {b}) overlap"
                    )
                if a == prev_b:
                    raise ValidationError(
                        f"components {prev_pair} and ({a}, {b}) share endpoint {a}: "
                        "F would have an isolated point there"
                    )
            prev_b, prev_pair = b, (a, b)

        if self.components:
            first_a = self.components[0][0]
            last_b = self.components[-1][1]
            if self.tail_left is Tail.ALL_G and first_a == w0:
                raise ValidationError(
                    f"component starting at the window edge {w0} meets the all-G left tail: "
                    f"{w0} would be an isolated point of F"
                )
            if self.tail_right is Tail.ALL_G and last_b == w1:
                raise ValidationError(
                    f"component ending at the window edge {w1} meets the all-G right tail: "
                    f"{w1} would be an isolated point of F"
                )
            if periodic and first_a == w0 and last_b == w1:
                raise ValidationError(
                    f"periodic pattern has components touching both window edges: the seam "
                    f"point {w0} would be an isolated point of F"
                )

    # -- derived geometry ------------------------------------------------

    @cached_property
    def widths(self) -> tuple[Real, ...]:
        return tuple(b - a for a, b in self.components)

    @cached_property
    def f_components(self) -> tuple[tuple[Real, Real], ...]:
        """Closed positive-length intervals of F inside the window, in order."""
        w0, w1 = self.window
        gaps = []
        prev = w0
        for a, b in self.components:
            if a > prev:
                gaps.append((prev, a))
            prev = b
        if w1 > prev:
            gaps.append((prev, w1))
        return tuple(gaps)

    @cached_property
    def f_ranks(self) -> range:
        """Per F-component, how many components of G lie left of it.  The two
        kinds alternate, and a component at the left window edge has none
        before it."""
        skip = int(bool(self.components) and self.components[0][0] == self.window[0])
        return range(skip, skip + len(self.f_components))

    @cached_property
    def endpoints(self) -> tuple[Real, ...]:
        """All finite component endpoints, including the finite ends of the
        unbounded components implied by an all-G tail.  Every one lies in F.
        Components are sorted and share no endpoint, so this is already in
        order, and an all-G edge never meets a component."""
        left = (self.window[0],) if self.tail_left is Tail.ALL_G else ()
        right = (self.window[1],) if self.tail_right is Tail.ALL_G else ()
        return left + tuple(e for ab in self.components for e in ab) + right

    def is_endpoint(self, x: Real) -> bool:
        """Whether x is one of ``endpoints``, found by bisection."""
        i = bisect_left(self.endpoints, x)
        return i < len(self.endpoints) and self.endpoints[i] == x

    @cached_property
    def g_prefix(self) -> tuple[Real, ...]:
        """G-mass of the window left of each component, then the window's
        whole G-mass: m + 1 running sums, exact for ``Fraction`` ends."""
        return tuple(accumulate(self.widths, initial=0))

    @cached_property
    def g_mass_window(self) -> Real:
        return self.g_prefix[-1]

    @cached_property
    def f_mass_window(self) -> Real:
        w0, w1 = self.window
        return (w1 - w0) - self.g_mass_window

    @cached_property
    def _lefts(self) -> list:
        return [a for a, _ in self.components]

    @cached_property
    def float_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """float64 left and right ends of the components, in order."""
        return (np.array([float(a) for a, _ in self.components]),
                np.array([float(b) for _, b in self.components]))

    @cached_property
    def gap_widths(self) -> np.ndarray:
        """float64 width of each component, rounded once from the exact b - a."""
        return np.array([float(w) for w in self.widths])

    @cached_property
    def end_slack(self) -> np.ndarray:
        """Per component, the distance 1e-12 max(1, |a|, |b|) within which a
        float node counts as that component's end."""
        lefts, rights = self.float_ends
        return 1e-12 * np.maximum(1.0, np.maximum(np.abs(lefts), np.abs(rights)))

    def closure_index(self, points) -> np.ndarray:
        """Index of the component whose closure, widened by ``end_slack`` at
        both ends, holds each point, else -1.  Where two widened closures
        overlap, the later component wins."""
        xs = np.asarray(points, dtype=float)
        lefts, rights = self.float_ends
        if not lefts.size:
            return np.full(xs.shape, -1, dtype=np.intp)
        slack = self.end_slack
        i = np.searchsorted(lefts - slack, xs, side="right") - 1
        c = np.maximum(i, 0)
        return np.where((i >= 0) & (xs <= rights[c] + slack[c]), i, -1)

    def classify(self, points, nodes: bool = False) -> np.ndarray:
        """Component index of each point, or -1 for points of F.

        Only components inside the window count, as in ``component_index``.
        Cell midpoints (the default) lie in (a, b) when a < m < b.  Nodes
        follow the endpoint rule: ends arrive as rounded floats, so a node
        within 1e-12 max(1, |a|, |b|) of an end is that end and lies in F.
        Such a node is in the closure of that component (``closure_index``);
        the nodes of G are the rest of the closure.
        """
        xs = np.asarray(points, dtype=float)
        lefts, rights = self.float_ends
        if not lefts.size:
            return np.full(xs.shape, -1, dtype=np.intp)
        if nodes:
            i = self.closure_index(xs)
            c = np.maximum(i, 0)
            inside = np.minimum(xs - lefts[c], rights[c] - xs) > self.end_slack[c]
        else:
            i = np.searchsorted(lefts, xs, side="right") - 1
            c = np.maximum(i, 0)
            inside = (lefts[c] < xs) & (xs < rights[c])
        return np.where(inside, i, -1)

    def component_index(self, x: Real) -> int | None:
        """Index of the component whose open interval contains x, else None.

        Exact for ``Fraction`` ends: this is the oracle for ``classify``."""
        i = bisect_right(self._lefts, x) - 1
        if i >= 0:
            a, b = self.components[i]
            if a < x < b:
                return i
        return None

    def in_g(self, x: Real) -> bool:
        """Whether x lies in the open set G (tails included)."""
        w0, w1 = self.window
        if x < w0:
            if self.tail_left is Tail.ALL_G:
                return True
            if self.tail_left is Tail.ALL_F:
                return False
            return self.in_g(x + self.period * self._periods_to_window(x))
        if x > w1:
            if self.tail_right is Tail.ALL_G:
                return True
            if self.tail_right is Tail.ALL_F:
                return False
            return self.in_g(x - self.period * self._periods_from_window(x))
        return self.component_index(x) is not None

    def _periods_to_window(self, x: Real) -> int:
        # smallest k >= 0 with x + k * period inside [w0, w1]
        w0 = self.window[0]
        return max(0, math.ceil((w0 - x) / self.period))

    def _periods_from_window(self, x: Real) -> int:
        w1 = self.window[1]
        return max(0, math.ceil((x - w1) / self.period))

    # -- Lebesgue masses -------------------------------------------------

    def _g_window_mass(self, lo: Real, hi: Real) -> Real:
        """G-mass of [lo, hi] assuming w0 <= lo <= hi <= w1: the parts of the
        first and last components it meets, and the prefix sums between them."""

        def part(i):
            a, b = self.components[i]
            left = a if a > lo else lo
            right = b if b < hi else hi
            return right - left if right > left else 0

        first = max(bisect_right(self._lefts, lo) - 1, 0)
        last = bisect_left(self._lefts, hi) - 1  # the last component starting below hi
        if last < first:
            return 0
        total = part(first)
        if last > first:
            if last > first + 1:
                total = total + (self.g_prefix[last] - self.g_prefix[first + 1])
            total = total + part(last)
        return total

    def _g_periodic_mass(self, lo: Real, hi: Real) -> Real:
        """G-mass of [lo, hi] for the full periodic extension of the window pattern."""
        p = self.period
        w0 = self.window[0]
        length = hi - lo
        k = math.floor(length / p)
        total = k * self.g_mass_window
        rem = length - k * p
        if rem > 0:
            phase = (lo - w0) % p
            if phase + rem <= p:
                total = total + self._g_window_mass(w0 + phase, w0 + phase + rem)
            else:
                total = total + self._g_window_mass(w0 + phase, w0 + p)
                total = total + self._g_window_mass(w0, w0 + (phase + rem - p))
        return total

    def _g_tail_mass(self, lo: Real, hi: Real, tail: Tail) -> Real:
        if lo >= hi:
            return 0
        if tail is Tail.ALL_G:
            return hi - lo
        if tail is Tail.ALL_F:
            return 0
        return self._g_periodic_mass(lo, hi)

    def lebesgue(self, lo: Real, hi: Real, which: str = "G") -> Real:
        """Lebesgue mass of G (or F) inside the finite interval [lo, hi].

        Tails are honored: an all-G tail contributes full length, an all-F tail
        contributes nothing, and a periodic tail repeats the window pattern.
        """
        if which not in ("G", "F"):
            raise PreconditionError(f"which must be 'G' or 'F', got {which!r}")
        if isinstance(lo, float) and not math.isfinite(lo) or isinstance(hi, float) and not math.isfinite(hi):
            raise PreconditionError("lebesgue query endpoints must be finite")
        if lo > hi:
            raise PreconditionError(f"query interval has lo {lo} > hi {hi}")
        w0, w1 = self.window
        g = self._g_tail_mass(lo, min(hi, w0), self.tail_left)
        mid_lo, mid_hi = max(lo, w0), min(hi, w1)
        if mid_hi > mid_lo:
            g = g + self._g_window_mass(mid_lo, mid_hi)
        g = g + self._g_tail_mass(max(lo, w1), hi, self.tail_right)
        if which == "G":
            return g
        return (hi - lo) - g

    def side_mass_infinite(self, side: str) -> bool:
        """Whether the G-mass of the half line to the given side is infinite."""
        tail = self.tail_left if side == "left" else self.tail_right
        if tail is Tail.ALL_G:
            return True
        if tail is Tail.ALL_F:
            return False
        return self.g_mass_window > 0

    # -- validation ------------------------------------------------------

    def delta_dense(self, delta: Real) -> tuple[bool, tuple[tuple[Real, Real], ...]]:
        """Whether every window subinterval of length >= delta meets G in
        positive measure.  Returns the offending F-intervals otherwise."""
        if not delta > 0:
            raise PreconditionError(f"delta must be positive, got {delta}")
        if self.g_mass_window == 0:
            return False, (tuple(self.window),)
        bad = tuple(g for g in self.f_components if g[1] - g[0] >= delta)
        return not bad, bad

    def validate(self, delta: Real) -> ValidationReport:
        dense, violations = self.delta_dense(delta)
        # shared endpoints and isolated F points are rejected at construction,
        # so a live instance always reports those checks as passing
        return ValidationReport(
            delta=delta,
            measure_dense=dense,
            no_shared_endpoints=True,
            no_isolated_f_points=True,
            violations=violations,
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "window": [_encode(self.window[0]), _encode(self.window[1])],
            "components": [[_encode(a), _encode(b)] for a, b in self.components],
            "tail_left": self.tail_left.value,
            "tail_right": self.tail_right.value,
        }
        if self.period is not None:
            d["period"] = _encode(self.period)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "IntervalSet":
        try:
            window = tuple(_decode(x) for x in d["window"])
            components = tuple(tuple(_decode(x) for x in pair) for pair in d["components"])
            tail_left = Tail(d["tail_left"])
            tail_right = Tail(d["tail_right"])
            period = _decode(d["period"]) if "period" in d and d["period"] is not None else None
        except (KeyError, ValueError, TypeError) as exc:
            raise ValidationError(f"malformed interval set description: {exc}") from exc
        return cls(window, components, tail_left, tail_right, period)


def build_interval_set(
    components: Iterable[Sequence[Real]],
    window: Sequence[Real],
    tails: tuple[Tail, Tail] = (Tail.ALL_F, Tail.ALL_F),
    period: Real | None = None,
) -> IntervalSet:
    """Construct an ``IntervalSet`` from raw parts, running full validation."""
    return IntervalSet(tuple(window), tuple(tuple(c) for c in components), tails[0], tails[1], period)


def _exactify(x: Real) -> Real:
    return Fraction(x) if isinstance(x, int) else x


def svc_complement(
    depth: int,
    window: Sequence[Real] = (0, 1),
    tails: tuple[Tail, Tail] = (Tail.ALL_F, Tail.ALL_F),
    max_depth: int = SVC_MAX_DEPTH,
) -> IntervalSet:
    """Open set removed by `depth` steps of the fat Cantor construction.

    Step i removes the open middle interval of relative length 4**-i from each
    of the 2**(i-1) closed pieces remaining, so the removed mass after k steps
    is |window| * (1/2) * (1 - 2**-k) and F keeps positive measure at every depth.
    """
    if not isinstance(depth, int) or depth < 0:
        raise PreconditionError(f"depth must be a nonnegative integer, got {depth!r}")
    if depth > max_depth:
        raise PreconditionError(f"depth {depth} exceeds the configured maximum {max_depth}")
    w0, w1 = (_exactify(x) for x in window)
    if not w0 < w1:
        raise PreconditionError(f"window must satisfy w0 < w1, got {window!r}")
    span = w1 - w0
    pieces = [(w0, w1)]
    removed: list[tuple[Real, Real]] = []
    for i in range(1, depth + 1):
        half = span / 4**i / 2
        nxt = []
        for x, y in pieces:
            mid = (x + y) / 2
            removed.append((mid - half, mid + half))
            nxt.append((x, mid - half))
            nxt.append((mid + half, y))
        pieces = nxt
    removed.sort()
    return IntervalSet((w0, w1), tuple(removed), tails[0], tails[1])


def periodic_fat_cantor(
    depth: int,
    period: Real,
    base: Sequence[Real] = (0, 1),
) -> IntervalSet:
    """Periodic set whose F-part is one fat Cantor set per period.

    One period is materialized in the window [base0, base0 + period]: the
    Cantor gaps on the base window plus the open spacer up to the period end.
    """
    b0, b1 = (_exactify(x) for x in base)
    period = _exactify(period)
    if not period > b1 - b0:
        raise PreconditionError(
            f"period {period} must exceed the base window length {b1 - b0}"
        )
    core = svc_complement(depth, (b0, b1))
    components = core.components + ((b1, b0 + period),)
    return IntervalSet(
        (b0, b0 + period), components, Tail.PERIODIC, Tail.PERIODIC, period
    )
