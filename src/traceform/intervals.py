"""Finite descriptions of an open subset G of the line and its closed complement F.

An ``IntervalSet`` stores the open set G as an ordered list of disjoint open
intervals inside a finite window, together with a declaration of what the set
looks like beyond the window (all of G, all of F, or a periodic repetition of
the window pattern).  Everything downstream (scale functions, darning maps,
trace energies) reads the geometry through this type.

Every end is exact.  Ends may be given as ints, ``Fraction`` values or
floats; a float end stands for its exact binary value and an int end for
the ``Fraction`` of the same value.  Every set keeps one exact table: the
window ends and the component ends as Python-int numerators over one common
denominator D, the least common multiple of their denominators.  A scalar
query is placed in the table once: its exact ratio, and the floor and ceiling
of its value times D, found among the numerators by int comparison and
bisection.  Its masses are summed as int pairs (numerator, denominator), and
an exact result becomes one ``Fraction`` at the end.  The float64 tables are
the numerators over D, correctly rounded, which is the float of each exact
value.

``window``, ``period``, ``components``, ``endpoints``, ``f_components`` and
every value derived from the table are ``Fraction`` values; ``to_dict`` and
the messages that name a gap give the ends as they were given.  The anchor of
a scale function or darning map is exact as an end is: a float anchor stands
for its exact binary value.  A result is what Python computes on the same
expression of numbers.  Exact sums stay exact, and an exact value meets a
float as its ``float()``, rounded once: Python defines ``Fraction op float``
as ``float(Fraction) op float``, and n / d of two ints is that float.  So a
G-mass is a float only where a float query enters the sum, as the end of a
part of a component that it cuts, while an F-mass, the length hi - lo less
the G-mass, is a float wherever a float query is.  Where a float query only
decides which whole pieces are summed, the G-mass is exact: on
``svc_complement(2)``, ``ScaleFunction(iset)(0.3)`` is ``Fraction(1, 16)``,
the whole gap left of 0.3, and ``(0.0)`` is the int 0.  An exact result is a
``Fraction`` where a value of the table takes part, and an int where only int
queries do, or nothing: an empty sum is the int 0.  In that expression a table
value meets a float as its float, a query or window end as a ``Fraction``,
and a numpy float query is taken as its Python float.  NaN lies nowhere: a
NaN query, scalar or in an array, raises ``PreconditionError``.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, islice
from operator import add, lt, sub
from typing import Iterable, NamedTuple, Sequence, Union

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
    if isinstance(x, Fraction) or (isinstance(x, float) and math.isinf(x)):
        return str(x)
    return x


def _csv_text(header: str, rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line per row of Python numbers,
    each written by ``repr`` (no ``repr`` of a number needs CSV quoting)."""
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _csv_columns(text: str, what: str, header: str, kinds: Sequence) -> list[tuple]:
    """The columns of CSV text that starts with ``header``: blank rows are
    skipped, and each row's leading values are read by ``kinds``, one per
    column."""
    names = header.split(",")
    reader = csv.reader(io.StringIO(text))
    first = next(reader, None)
    if first is None or [h.strip() for h in first[:len(names)]] != names:
        raise ValidationError(f'{what} CSV must start with header "{header}"')
    rows = []
    for row in filter(None, reader):
        try:
            rows.append([kind(row[j]) for j, kind in enumerate(kinds)])
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"bad CSV row {row!r}: {exc}") from exc
    return list(zip(*rows)) or [()] * len(kinds)


def _decode(x) -> Real:
    if isinstance(x, str):
        return float(x) if x in ("inf", "-inf") else Fraction(x)
    if isinstance(x, bool):
        raise ValidationError("boolean is not a valid endpoint")
    if isinstance(x, (int, float)):
        return x
    raise ValidationError(f"cannot decode endpoint {x!r}")


# -- exact numbers ---------------------------------------------------------


def _ratio(x) -> tuple[int, int]:
    """The exact value of a real number as (numerator, positive denominator)."""
    if isinstance(x, (int, float, Fraction)):
        return x.as_integer_ratio()
    if isinstance(x, numbers.Rational):
        return x.numerator, x.denominator
    if isinstance(x, numbers.Real):
        return float(x).as_integer_ratio()
    raise TypeError(f"{x!r} is not a real number")


def _combine(x, y, op=add):
    """x + y, or op(x, y) for ``sub``, as Python computes it on the numbers x
    and y stand for, where a pair (n, d) stands for ``Fraction(n, d)``: an
    exact pair where neither is a float (an int where both are ints), else a
    float, a pair meeting a float as ``Fraction`` does: as n / d, its float.
    A numpy float query is taken as its Python float (``_Table.place``)."""
    if type(x) is tuple:
        n, d = x
        if type(y) is tuple:
            m, e = y
            return (op(n, m), d) if d == e else (op(n * e, m * d), d * e)
        return op(n / d, y) if isinstance(y, float) else (op(n, y * d), d)
    if type(y) is tuple:
        m, e = y
        return op(x, m / e) if isinstance(x, float) else (op(x * e, m), e)
    return op(x, y)


def _neg(x):
    return (-x[0], x[1]) if type(x) is tuple else -x


def _number(x) -> Real:
    """A pair made the one ``Fraction`` it stands for; any other number as it is."""
    return Fraction(*x) if type(x) is tuple else x


class _Table(NamedTuple):
    """Exact values, sorted where they are bisected: int numerators over one
    denominator."""

    nums: list
    den: int

    def place(self, x) -> tuple:
        """x placed once: (v, f, c, p, q), with f and c the floor and ceiling
        of x * den, p / q the exact value of x, and v the number x enters
        sums as: an int x itself, a float its Python float (a numpy float
        query is taken as its Python float), else its exact value as a pair,
        (f, den) where it lies on the table.  For a numerator n:
        n < x iff n < c, n <= x iff n <= f, and n == x iff f == c == n.  An
        int pair (n, d), d > 0, is placed as ``Fraction(n, d)``.  An infinite
        float is placed as itself with q = 0, v its Python float; NaN lies
        nowhere and is refused."""
        try:
            p, q = (x.as_integer_ratio() if isinstance(x, (float, int, Fraction))
                    else x if type(x) is tuple else _ratio(x))
        except OverflowError:
            return float(x), x, x, x, 0
        except ValueError:
            raise PreconditionError("query values must not be NaN") from None
        f, r = divmod(p * self.den, q)
        v = (float(x) if isinstance(x, float) else x if isinstance(x, int)
             else (p, q) if r else (f, self.den))
        return v, f, f + (r > 0), p, q

    def get(self, j: int) -> Fraction:
        return self.value(self.nums[j])

    def value(self, n: int) -> Fraction:
        return Fraction(n, self.den)

    def floats(self) -> np.ndarray:
        """float64 n / den for each n, correctly rounded as Python divides ints:
        below 2**53 n and den are exact floats, and one division rounds once."""
        nums, den = self.nums, self.den
        try:
            ints = np.fromiter(nums, np.int64, len(nums))
            if den < 2**53 and -2**53 < ints.min(initial=0) and ints.max(initial=0) < 2**53:
                return ints / den
        except OverflowError:  # past int64
            pass
        return np.fromiter((n / den for n in nums), float, len(nums))


def _queries(x) -> np.ndarray:
    """A query array as float64; NaN lies nowhere, so it is refused, as a
    scalar NaN query is."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise PreconditionError("query values must not be NaN")
    return xs


def _infinite(what: str, x: float, tail: Tail) -> PreconditionError:
    """Refusal of an infinite x past the window on ``tail``, on every path."""
    on = "a Periodic" if tail is Tail.PERIODIC else f"an {tail.value}"
    return PreconditionError(f"{what} {x} must be finite on {on} tail")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _over(ratios: list) -> tuple[list, int]:
    """Numerators of (p, q) ratios over their least common denominator."""
    den = math.lcm(*{q for _, q in ratios})
    return [p * (den // q) for p, q in ratios], den


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``IntervalSet.validate``.  Carries failures, never raises."""

    delta: Real
    measure_dense: bool = field(init=False)  # dense exactly when nothing violates
    violations: tuple[tuple[Real, Real], ...]

    def __post_init__(self):
        object.__setattr__(self, "measure_dense", not self.violations)

    @property
    def ok(self) -> bool:
        return self.measure_dense

    def to_dict(self) -> dict:
        # shared endpoints and isolated F points are refused at construction,
        # so a live set always passes those checks
        return {
            "delta": _encode(self.delta),
            "measure_dense": self.measure_dense,
            "no_shared_endpoints": True,
            "no_isolated_f_points": True,
            "violations": [[_encode(a), _encode(b)] for a, b in self.violations],
            "ok": self.ok,
        }


class IntervalSet:
    """Open set G inside a window, plus tail declarations beyond it.

    ``components`` are the open intervals making up G within the window,
    sorted, pairwise disjoint, and never sharing an endpoint (a shared
    endpoint would make an isolated point of F, which is excluded).
    Instances are immutable; two sets are equal when their tails and the
    exact values of their ends are.
    """

    def __init__(self, window: Sequence[Real], components: Iterable[Sequence[Real]] = (),
                 tail_left: Tail = Tail.ALL_F, tail_right: Tail = Tail.ALL_F,
                 period: Real | None = None):
        window = tuple(window)
        components = tuple(tuple(c) for c in components)
        if len(window) != 2:
            raise ValidationError("window must be a pair (w0, w1)")
        for pair in components:
            if len(pair) != 2:
                raise ValidationError(f"component {pair!r} is not a pair")
        flat = window + tuple(chain.from_iterable(components))
        try:
            nums, den = _over([_ratio(x) for x in flat])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"every end must be a finite real number: {exc}") from exc
        self._setup(window, components, nums[:2], nums[2:], den, tail_left, tail_right, period)

    @classmethod
    def _from_table(cls, window, w, ends, den, tails, period=None) -> "IntervalSet":
        """A set whose component ends are the ``Fraction`` values ends / den,
        built from the table alone; ``components`` is made on first use."""
        self = cls.__new__(cls)
        self._setup(tuple(window), None, w, ends, den, *tails, period)
        return self

    def _setup(self, window, components, w, ends, den, tail_left, tail_right, period):
        # window, components (None for a set built from its table) and period
        # as given, for to_dict and the messages
        put = self.__dict__.__setitem__
        put("_given", (window, components, period))
        put("window", (Fraction(w[0], den), Fraction(w[1], den)))
        put("tail_left", tail_left)
        put("tail_right", tail_right)
        put("den", den)
        put("_w", tuple(w))
        put("_ends", _Table(ends, den))
        self._validate_structure()

    def __setattr__(self, name, value):
        raise AttributeError(f"IntervalSet is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (self.den == other.den and self._w == other._w
                and self._ends.nums == other._ends.nums
                and self.tail_left is other.tail_left and self.tail_right is other.tail_right
                and self.period == other.period)

    def __hash__(self):
        return hash((self.den, self._w, tuple(self._ends.nums), self.tail_left, self.tail_right))

    def __repr__(self):
        return (f"IntervalSet(window={self.window!r}, components={self.components!r}, "
                f"tail_left={self.tail_left!r}, tail_right={self.tail_right!r}, "
                f"period={self.period!r})")

    def _validate_structure(self) -> None:
        (w0, w1), components, period = self._given
        w0n, w1n = self._w
        if not w0n < w1n:
            raise ValidationError(f"window must satisfy w0 < w1, got ({w0}, {w1})")
        for tail in (self.tail_left, self.tail_right):
            if not isinstance(tail, Tail):
                raise ValidationError(f"tail must be a Tail enum member, got {tail!r}")
        periodic = Tail.PERIODIC in (self.tail_left, self.tail_right)
        if periodic:
            # the exact window length; a given period fits it exactly, or as
            # the caller's ends give it (w1 - w0 in their own arithmetic)
            length = Fraction(w1n - w0n, self.den)
            if period is None:
                self.__dict__["_given"] = (w0, w1), components, w1 - w0
            elif not (period == length or period == w1 - w0):
                raise ValidationError(
                    f"period {period} must equal the window length {w1 - w0}: "
                    "the window holds exactly one period"
                )
        elif period is not None:
            raise ValidationError("period given but neither tail is Periodic")
        self.__dict__["period"] = length if periodic else None

        ends = self._ends.nums
        if ends and not (w0n <= ends[0] and ends[-1] <= w1n
                         and all(map(lt, ends, islice(ends, 1, None)))):
            self._raise_component_error()
        if ends:
            if self.tail_left is Tail.ALL_G and ends[0] == w0n:
                raise ValidationError(
                    f"component starting at the window edge {w0} meets the all-G left tail: "
                    f"{w0} would be an isolated point of F"
                )
            if self.tail_right is Tail.ALL_G and ends[-1] == w1n:
                raise ValidationError(
                    f"component ending at the window edge {w1} meets the all-G right tail: "
                    f"{w1} would be an isolated point of F"
                )
            if periodic and ends[0] == w0n and ends[-1] == w1n:
                raise ValidationError(
                    f"periodic pattern has components touching both window edges: the seam "
                    f"point {w0} would be an isolated point of F"
                )

    def _raise_component_error(self):
        """Name the first component that is empty, leaves the window, or
        overlaps or touches the one before it."""
        ((w0, w1), components, _), (w0n, w1n) = self._given, self._w
        ends = self._ends.nums
        for i, (a, b) in enumerate(components):
            an, bn = ends[2 * i], ends[2 * i + 1]
            if not an < bn:
                raise ValidationError(f"component ({a}, {b}) has nonpositive length")
            if an < w0n or bn > w1n:
                raise ValidationError(f"component ({a}, {b}) extends beyond window ({w0}, {w1})")
            if i and an < ends[2 * i - 1]:
                raise ValidationError(
                    f"components {components[i - 1]} and ({a}, {b}) overlap")
            if i and an == ends[2 * i - 1]:
                raise ValidationError(
                    f"components {components[i - 1]} and ({a}, {b}) share endpoint {a}: "
                    "F would have an isolated point there"
                )

    # -- the exact table ---------------------------------------------------

    @cached_property
    def components(self) -> tuple[tuple[Fraction, Fraction], ...]:
        end = self._ends.get
        return tuple((end(j), end(j + 1)) for j in range(0, len(self._ends.nums), 2))

    def given_gap(self, i: int) -> tuple:
        """Component i with its ends as they were given, for messages; the
        ``components`` tuple is not built."""
        given = self._given[1]
        return given[i] if given is not None else (self._ends.get(2 * i), self._ends.get(2 * i + 1))

    @cached_property
    def _lo(self) -> list:
        return self._ends.nums[0::2]

    @cached_property
    def _hi(self) -> list:
        return self._ends.nums[1::2]

    @cached_property
    def g_prefix(self) -> list:
        """G-mass of the window left of each component, then the window's
        whole G-mass: m + 1 running sums, as int numerators over ``den``."""
        return list(accumulate(self._g_widths.nums, initial=0))

    @cached_property
    def _g_widths(self) -> _Table:
        """Width b - a of each component, in order."""
        return _Table(list(map(sub, self._hi, self._lo)), self.den)

    @cached_property
    def _prefix(self) -> _Table:
        return _Table(self.g_prefix, self.den)

    @cached_property
    def _f_ends(self) -> tuple[_Table, _Table]:
        """Lows and highs of the F-stretch left of each component and of the
        last one, m + 1 each: the F-component of rank k (k components of G
        left of it), or an empty stretch at a window edge that a component
        touches."""
        w0n, w1n = self._w
        return _Table([w0n] + self._hi, self.den), _Table(self._lo + [w1n], self.den)

    @cached_property
    def _f_before(self) -> _Table:
        """F-mass of the window left of each point where an F-stretch ends (0
        at w0, then at each component's left end, then at w1): the running
        sums of the F-stretch widths."""
        return _Table(list(accumulate(self._f_widths.nums, initial=0)), self.den)

    @cached_property
    def _f_widths(self) -> _Table:
        """Width of the F-stretch of each rank, 0 for an empty one."""
        lows, highs = (t.nums for t in self._f_ends)
        return _Table(list(map(sub, highs, lows)), self.den)

    @cached_property
    def _pairs(self) -> dict:
        return {}

    def _f_pair(self, k: int) -> tuple[Fraction, Fraction]:
        """The F-stretch of rank k as exact (low, high), built on first use and
        kept: the scalar inverses return these, and the closure of component i
        is (high of rank i, low of rank i + 1).  Never all at once: a depth-20
        set has 2**20 components."""
        pairs = self._pairs
        if k not in pairs:
            pairs[k] = self._f_ends[0].get(k), self._f_ends[1].get(k)
        return pairs[k]

    @cached_property
    def _f_floats(self) -> tuple[np.ndarray, np.ndarray]:
        """float64 lows and highs of the F-components, in rank order."""
        r = self.f_ranks
        return tuple(t.floats()[r.start:r.stop] for t in self._f_ends)

    def _anchored(self, anchor: Real, inner: _Table) -> _Table:
        """The exact values anchor + inner[j]."""
        p, q = _ratio(anchor)
        den = math.lcm(inner.den, q)
        s, c = p * (den // q), den // inner.den
        return _Table(inner.nums if (s, c) == (0, 1) else [s + n * c for n in inner.nums], den)

    # -- derived geometry ------------------------------------------------

    @cached_property
    def f_components(self) -> tuple[tuple[Real, Real], ...]:
        """Closed positive-length intervals of F inside the window, in order."""
        lows, highs = self._f_ends
        return tuple((lows.get(k), highs.get(k)) for k in self.f_ranks)

    @cached_property
    def f_ranks(self) -> range:
        """Per F-component, how many components of G lie left of it.  Components
        of G and of F alternate; a component at a window edge leaves no F there."""
        ends, (w0n, w1n) = self._ends.nums, self._w
        m = len(ends) // 2
        return range(int(bool(ends) and ends[0] == w0n), m + 1 - (bool(ends) and ends[-1] == w1n))

    @cached_property
    def endpoints(self) -> tuple[Real, ...]:
        """All finite component endpoints, including the finite ends of the
        unbounded components implied by an all-G tail.  Every one lies in F.
        Components are sorted and share no endpoint, so this is already in
        order, and an all-G edge never meets a component."""
        left = (self.window[0],) if self.tail_left is Tail.ALL_G else ()
        right = (self.window[1],) if self.tail_right is Tail.ALL_G else ()
        return left + tuple(chain.from_iterable(self.components)) + right

    def is_endpoint(self, x: Real) -> bool:
        """Whether x is one of ``endpoints``."""
        _, f, c, _, _ = self._ends.place(x)
        if f != c:
            return False
        ends = self._ends.nums
        i = bisect_left(ends, f)
        if i < len(ends) and ends[i] == f:
            return True
        w0n, w1n = self._w
        return (f == w0n and self.tail_left is Tail.ALL_G) or (f == w1n and self.tail_right is Tail.ALL_G)

    @cached_property
    def g_mass_window(self) -> Real:
        return self._prefix.get(-1)

    @cached_property
    def f_mass_window(self) -> Real:
        w0, w1 = self.window
        return (w1 - w0) - self.g_mass_window

    @cached_property
    def float_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """float64 left and right ends of the components, in order."""
        return _Table(self._lo, self.den).floats(), _Table(self._hi, self.den).floats()

    @cached_property
    def _adapted(self) -> np.ndarray:
        """Sorted float64 window edges and component ends; shared, so read-only."""
        return _read_only(np.union1d([float(x) for x in self.window], np.concatenate(self.float_ends)))

    def _is_adapted(self, grid: np.ndarray) -> bool:
        """Whether the float64 ``grid`` has the adapted grid's bytes: -0.0 is not 0.0."""
        return grid.shape == self._adapted.shape and grid.tobytes() == self._adapted.tobytes()

    @cached_property
    def _cell_classes(self) -> np.ndarray:
        a = self._adapted
        return _read_only(self.classify((a[:-1] + a[1:]) / 2))

    @cached_property
    def _node_classes(self) -> np.ndarray:
        return _read_only(self.classify(self._adapted, nodes=True))

    def _grid_classes(self, grid: np.ndarray, nodes: bool = False) -> np.ndarray:
        """``classify`` of the float64 ``grid``'s cell midpoints, or of its nodes;
        on the adapted grid, the set's read-only table of them, made once."""
        if self._is_adapted(grid):
            return self._node_classes if nodes else self._cell_classes
        return self.classify(grid if nodes else (grid[:-1] + grid[1:]) / 2, nodes)

    @cached_property
    def gap_widths(self) -> np.ndarray:
        """float64 width of each component: b - a, rounded once."""
        return self._g_widths.floats()

    @cached_property
    def end_slack(self) -> np.ndarray:
        """Per component, the distance 1e-12 max(1, |a|, |b|) within which a
        float node counts as that component's end."""
        lefts, rights = self.float_ends
        return 1e-12 * np.maximum(1.0, np.maximum(np.abs(lefts), np.abs(rights)))

    @cached_property
    def _widened_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """float64 left ends less ``end_slack`` and right ends plus it."""
        (lefts, rights), slack = self.float_ends, self.end_slack
        return lefts - slack, rights + slack

    def closure_index(self, points) -> np.ndarray:
        """Index of the component whose closure, widened by ``end_slack`` at
        both ends, holds each point, else -1.  Where two widened closures
        overlap, the later component wins."""
        xs = _queries(points)
        if not self._lo:
            return np.full(xs.shape, -1, dtype=np.intp)
        lows, highs = self._widened_ends
        i = np.searchsorted(lows, xs, side="right") - 1
        return np.where((i >= 0) & (xs <= highs[np.maximum(i, 0)]), i, -1)

    def classify(self, points, nodes: bool = False) -> np.ndarray:
        """Component index of each point, or -1 for points of F.

        Only components inside the window count, as in ``component_index``.
        Cell midpoints (the default) lie in (a, b) when a < m < b.  Nodes
        follow the endpoint rule: ends arrive as rounded floats, so a node
        within 1e-12 max(1, |a|, |b|) of an end is that end and lies in F.
        Such a node is in the closure of that component (``closure_index``);
        the nodes of G are the rest of the closure.
        """
        xs = _queries(points)
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

    def _component_at(self, f, c) -> int | None:
        # the component holding the point placed at floor f and ceiling c
        lo = self._lo
        i = bisect_right(lo, f) - 1
        if i >= 0 and c > lo[i] and f < self._hi[i]:
            return i
        return None

    def component_index(self, x: Real) -> int | None:
        """Index of the component whose open interval contains x, else None.

        Exact for every input: this is the oracle for ``classify``."""
        return self._component_at(*self._ends.place(x)[1:3])

    def in_g(self, x: Real) -> bool:
        """Whether x lies in the open set G (tails included)."""
        _, f, c, p, q = self._ends.place(x)
        w0n, w1n = self._w
        if f < w0n or c > w1n:
            tail = self.tail_left if f < w0n else self.tail_right
            if tail is not Tail.PERIODIC:
                return tail is Tail.ALL_G
            if not q:
                raise _infinite("point", x, tail)
            # fold x exactly into [w0, w0 + period); both seam points lie in F
            y = w0n * q + (p * self.den - w0n * q) % ((w1n - w0n) * q)
            f, r = divmod(y, q)
            c = f + (r > 0)
        return self._component_at(f, c) is not None

    # -- Lebesgue masses -------------------------------------------------
    #
    # A query is placed once in the table (``_Table.place``) and its masses are
    # summed as pairs (n, d) of ints, added as Python would add the numbers
    # they stand for: an exact sum stays a pair until the one ``Fraction`` of
    # the result, and a pair meets a float as n / d.  Masses are never -0.0,
    # so adding a mass to int 0 is the identity and those adds are left out.

    @cached_property
    def _w_points(self) -> tuple:
        place = self._ends.place
        return place(self.window[0]), place(self.window[1])

    def _part(self, i, lo, hi):
        """G-mass of component i inside [lo, hi], for placed points, where
        it is the only component that [lo, hi] meets."""
        a, b = self._lo[i], self._hi[i]
        cut_lo, cut_hi = lo[1] >= a, hi[2] <= b  # lo >= a, hi <= b
        if not (cut_lo or cut_hi):
            return b - a, self.den
        if cut_lo and cut_hi:
            inside = lo[3] * hi[4] < hi[3] * lo[4]  # lo < hi
        else:
            inside = b > lo[1] if cut_lo else hi[2] > a
        if not inside:
            return 0
        return _combine(hi[0] if cut_hi else (b, self.den),
                        lo[0] if cut_lo else (a, self.den), sub)

    def _window_mass(self, lo, hi):
        """G-mass of [lo, hi] for placed points with w0 <= lo <= hi <= w1: the
        parts of the first and last components it meets, and the prefix sums
        between them, added left to right."""
        lefts, rights, den = self._lo, self._hi, self.den
        first = max(bisect_right(lefts, lo[1]) - 1, 0)
        last = bisect_left(lefts, hi[2]) - 1  # the last component starting below hi
        if last <= first:
            return self._part(first, lo, hi) if last == first else 0
        if lo[1] >= lefts[first]:  # lo cuts the first component: b - lo, or none past b
            b = rights[first]
            total = _combine((b, den), lo[0], sub) if b > lo[1] else 0
            if last > first + 1:
                total = _combine(total, (self.g_prefix[last] - self.g_prefix[first + 1], den))
        else:  # the first component whole and the whole ones after it, added exactly
            total = self.g_prefix[last] - self.g_prefix[first], den
        a, b = lefts[last], rights[last]  # hi lies past a
        if hi[2] <= b:  # hi cuts the last component
            return _combine(total, _combine(hi[0], (a, den), sub))
        return _combine(total, (b - a, den))

    def _g_periodic_mass(self, lo, hi):
        """G-mass of [lo, hi] for the full periodic extension of the window
        pattern, for lo and hi as they enter sums: the whole periods, then the
        rest folded into the window, as Python folds the numbers they stand
        for (a float meets the exact period p as its float, and compares with
        it exactly)."""
        (w0n, w1n), den, place = self._w, self.den, self._ends.place
        w0, pn = (w0n, den), w1n - w0n  # p = pn / den
        length = _combine(hi, lo, sub)
        if isinstance(length, float):
            k = math.floor(length / (pn / den))
        else:
            n, d = length if type(length) is tuple else (length, 1)
            k = n * den // (d * pn)
        total, rem = (k * self.g_prefix[-1], den), _combine(length, (k * pn, den), sub)
        if not (rem > 0 if isinstance(rem, float) else rem[0] > 0):
            return total
        phase = _combine(lo, w0, sub)  # then modulo p
        phase = phase % (pn / den) if isinstance(phase, float) else (
            phase[0] * den % (phase[1] * pn), phase[1] * den)
        end = _combine(phase, rem)
        n, d = end.as_integer_ratio() if isinstance(end, float) else end

        start = _combine(w0, phase)
        if n * den <= pn * d:  # phase + rem <= p: [w0 + phase, w0 + phase + rem]
            return _combine(total, self._window_mass(place(start), place(_combine(start, rem))))
        # [w0 + phase, w1], then [w0, w0 + (phase + rem - p)]
        total = _combine(total, self._window_mass(place(start), self._w_points[1]))
        return _combine(total, self._window_mass(
            self._w_points[0], place(_combine(w0, _combine(end, (pn, den), sub)))))

    def _tail_mass(self, lo, hi, tail: Tail):
        # placed points, lo < hi
        if tail is Tail.ALL_G:
            return _combine(hi[0], lo[0], sub)
        if tail is Tail.ALL_F:
            return 0
        return self._g_periodic_mass(lo[0], hi[0])

    def _mass(self, lo, hi, which: str):
        """``lebesgue`` on placed points, lo <= hi, an exact result still a pair."""
        v0, f0, c0, p0, q0 = lo
        v1, f1, c1, p1, q1 = hi
        if not (q0 and q1):
            raise PreconditionError("lebesgue query endpoints must be finite")
        proper = p0 * q1 < p1 * q0
        w0n, w1n = self._w
        lo_in, hi_in = f0 >= w0n, c1 <= w1n
        if lo_in and hi_in:  # [lo, hi] inside the window
            g = self._window_mass(lo, hi) if proper else 0
        else:
            (w0, w1), parts = self._w_points, []
            if proper and not lo_in:  # the left tail [lo, min(hi, w0)]
                parts.append(self._tail_mass(lo, hi if c1 <= w0n else w0, self.tail_left))
            if f0 < w1n and c1 > w0n:  # the window part [max(lo, w0), min(hi, w1)]
                parts.append(self._window_mass(lo if lo_in else w0, hi if hi_in else w1))
            if f0 >= w1n:  # the right tail [max(lo, w1), hi]
                if proper:
                    parts.append(self._tail_mass(lo, hi, self.tail_right))
            elif c1 > w1n:
                parts.append(self._tail_mass(w1, hi, self.tail_right))
            g = reduce(_combine, parts) if parts else 0
        return g if which == "G" else _combine(_combine(v1, v0, sub), g, sub)

    def _mass_from(self, anchor, x: Real, which: str) -> Real:
        """The mass of ``which`` from a placed anchor to x, negative left of
        the anchor: the scale function for G, the darning map for F."""
        at = self._ends.place(x)
        if not at[4]:  # an infinite x lies past the window, on the tail to its side
            raise _infinite("point", at[0], self.tail_left if at[0] < 0 else self.tail_right)
        if at[3] * anchor[4] < anchor[3] * at[4]:  # x < anchor
            return _number(_neg(self._mass(at, anchor, which)))
        return _number(self._mass(anchor, at, which))

    def lebesgue(self, lo: Real, hi: Real, which: str = "G") -> Real:
        """Lebesgue mass of G (or F) inside the finite interval [lo, hi].

        Tails are honored: an all-G tail contributes full length, an all-F tail
        contributes nothing, and a periodic tail repeats the window pattern.
        """
        if which not in ("G", "F"):
            raise PreconditionError(f"which must be 'G' or 'F', got {which!r}")
        place = self._ends.place
        a, b = place(lo), place(hi)
        if a[4] and b[4] and b[3] * a[4] < a[3] * b[4]:  # finite, and hi < lo
            raise PreconditionError(f"query interval has lo {lo} > hi {hi}")
        return _number(self._mass(a, b, which))

    def side_mass_infinite(self, side: str) -> bool:
        """Whether the G-mass of the half line to the given side is infinite."""
        tail = self.tail_left if side == "left" else self.tail_right
        if tail is Tail.ALL_G:
            return True
        if tail is Tail.ALL_F:
            return False
        return self.g_prefix[-1] > 0

    # -- validation ------------------------------------------------------

    def delta_dense(self, delta: Real) -> tuple[bool, tuple[tuple[Real, Real], ...]]:
        """Whether every window subinterval of length >= delta meets G in
        positive measure.  Returns the offending F-intervals otherwise."""
        if not delta > 0:
            raise PreconditionError(f"delta must be positive, got {delta}")
        if self.g_prefix[-1] == 0:
            return False, (tuple(self.window),)
        ceil = self._ends.place(delta)[2]  # an F-width n / D is at least delta iff n >= ceil
        widths = self._f_widths.nums
        bad = tuple(self._f_pair(k) for k in self.f_ranks if widths[k] >= ceil)
        return not bad, bad

    def validate(self, delta: Real) -> ValidationReport:
        return ValidationReport(delta, self.delta_dense(delta)[1])

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """The set with its ends, and its period, as they were given."""
        (w0, w1), components, period = self._given
        d = {
            "window": [_encode(w0), _encode(w1)],
            "components": [[_encode(a), _encode(b)] for a, b in components or self.components],
            "tail_left": self.tail_left.value,
            "tail_right": self.tail_right.value,
        }
        if period is not None:
            d["period"] = _encode(period)
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


def _svc_ticks(depth: int) -> tuple[list, int]:
    """The window ends and the gap ends of ``depth`` fat-Cantor steps on
    [0, 2**(2 depth + 1)], in order.  Step i takes from each piece the middle
    gap of half-width 2**(2 depth - 2 i), so every end is an integer."""
    top = 1 << (2 * depth + 1)
    pts = [0, top]
    for i in range(1, depth + 1):
        half = top >> (2 * i + 1)
        lo, hi = pts[0::2], pts[1::2]
        mids = [(x + y) >> 1 for x, y in zip(lo, hi)]
        pts = list(chain.from_iterable(
            zip(lo, [c - half for c in mids], [c + half for c in mids], hi)))
    return pts, top


def svc_complement(
    depth: int,
    window: Sequence[Real] = (0, 1),
    tails: tuple[Tail, Tail] = (Tail.ALL_F, Tail.ALL_F),
) -> IntervalSet:
    """Open set removed by `depth` steps of the fat Cantor construction.

    Step i removes the open middle interval of relative length 4**-i from each
    of the 2**(i-1) closed pieces remaining, so the removed mass after k steps
    is |window| * (1/2) * (1 - 2**-k) and F keeps positive measure at every depth.
    The ends are exact ``Fraction`` values, built as integers level by level.
    """
    if not isinstance(depth, int) or depth < 0:
        raise PreconditionError(f"depth must be a nonnegative integer, got {depth!r}")
    if depth > SVC_MAX_DEPTH:
        raise PreconditionError(f"depth {depth} exceeds the configured maximum {SVC_MAX_DEPTH}")
    w0, w1 = (Fraction(x) for x in window)
    if not w0 < w1:
        raise PreconditionError(f"window must satisfy w0 < w1, got ({window[0]}, {window[1]})")
    ticks, top = _svc_ticks(depth)
    # tick t is w0 + (w1 - w0) t / top
    span = w1 - w0
    den = math.lcm(w0.denominator, span.denominator * top)
    a = w0.numerator * (den // w0.denominator)
    b = span.numerator * (den // (span.denominator * top))
    nums = ticks if (a, b) == (0, 1) else [a + b * t for t in ticks]
    g = math.gcd(den, *nums)
    nums = [n // g for n in nums] if g > 1 else nums
    w = nums.pop(0), nums.pop()  # the rest are the gap ends
    return IntervalSet._from_table((w0, w1), w, nums, den // g, tails)


def periodic_fat_cantor(
    depth: int,
    period: Real,
    base: Sequence[Real] = (0, 1),
) -> IntervalSet:
    """Periodic set whose F-part is one fat Cantor set per period.

    One period is materialized in the window [base0, base0 + period]: the
    Cantor gaps on the base window plus the open spacer up to the period end.
    """
    b0, b1 = (Fraction(x) for x in base)
    period = Fraction(period)
    if not period > b1 - b0:
        raise PreconditionError(
            f"period {period} must exceed the base window length {b1 - b0}"
        )
    core = svc_complement(depth, (b0, b1))
    top = b0 + period
    den = math.lcm(core.den, top.denominator)
    c = den // core.den
    w0n, b1n = (n * c for n in core._w)
    topn = top.numerator * (den // top.denominator)
    ends = [n * c for n in core._ends.nums] + [b1n, topn]  # the core's gaps and the spacer
    return IntervalSet._from_table((b0, top), (w0n, topn), ends, den,
                                   (Tail.PERIODIC, Tail.PERIODIC), period)
