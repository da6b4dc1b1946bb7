"""Trace energies on F, harmonic extensions across G, and gap hitting kernels.

A ``TraceFunction`` carries values on the closed set F only.  Its harmonic
extension bridges every gap (a, b) linearly, which makes the full energy of
the extension split into a local part (1/2) int_F phi'^2 dx plus a jump sum
(1/2) sum (phi(a) - phi(b))^2 / (b - a) over the finite gaps.  Restrictions
of subspace members are flat on F, so their trace energy is the jump sum
alone; restrictions of complement members match at gap endpoints and keep
only the local part.

Resolvent hitting kernels sinh(c (b-x)) / sinh(c d) with c = sqrt(2 alpha)
are evaluated in an exp-shifted form that stays finite for c d far beyond
the naive overflow point.  The trace process itself is Brownian motion time
changed by the speed measure ``trace_measure``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .energy import EnergyReport, _cell_form, common_grid
from .errors import PreconditionError, ValidationError
from .gridfn import SUBSPACE_TOL, GridFunction, _missing_nodes, _refuse_gap, require_adapted
from .intervals import IntervalSet, Tail, _csv_text, _Table
from .transforms import SpeedMeasure, _gap_atoms


@dataclass(frozen=True, eq=False)
class TraceFunction:
    """Values on F inside the window: sorted nodes, all lying in F, containing
    every component endpoint and both window edges.  ``==`` is identity.
    ``extension``, built and checked as a ``GridFunction``, bridges each gap
    (a, b) linearly, as no node is interior to one: it is the harmonic
    extension phi(a) (b-x)/(b-a) + phi(b) (x-a)/(b-a)."""

    iset: IntervalSet
    nodes: np.ndarray
    values: np.ndarray
    extension: GridFunction = field(init=False, repr=False)

    def __post_init__(self):
        extension = GridFunction(self.nodes, self.values)
        self.__dict__.update(extension=extension, nodes=extension.grid, values=extension.values)
        missing = _missing_nodes(self.nodes, self.iset).tolist()
        if missing:
            raise ValidationError(f"trace nodes must include {missing}")
        inside = np.flatnonzero(self.iset._grid_classes(self.nodes, nodes=True) >= 0)
        if inside.size:
            raise ValidationError(f"trace node {self.nodes[inside[0]]} lies inside a gap, not in F")

    @cached_property
    def _cell_in_f(self) -> np.ndarray:
        return self.iset._grid_classes(self.nodes) < 0


def harmonic_extension(phi: TraceFunction) -> GridFunction:
    return phi.extension


def gap_jumps(phi: TraceFunction) -> np.ndarray:
    """phi(a) - phi(b) across every finite gap (a, b), in component order."""
    lefts, rights = phi.iset.float_ends
    return phi.extension(lefts) - phi.extension(rights)


def restrict_to_f(u: GridFunction, iset: IntervalSet) -> TraceFunction:
    """Trace of a grid function: keep only the nodes lying in F."""
    require_adapted(u, iset)
    keep = iset._grid_classes(u.grid, nodes=True) < 0
    return TraceFunction(iset, u.grid[keep], u.values[keep])


def _sinh_ratio(a: float, b: float, rest: float) -> float:
    """sinh(a)/sinh(b) for 0 <= a <= b with rest = b - a, each a length
    times c: stable for arbitrarily large b, and where a and b overflow to
    inf, since the exponent is -rest and not inf - inf."""
    if b == 0:
        raise PreconditionError("sinh ratio needs b > 0")
    num = -math.expm1(-2 * a)
    den = -math.expm1(-2 * b)
    return math.exp(-rest) * num / den


def alpha_hitting(iset: IntervalSet, n: int, alpha: float, x: float) -> tuple[float, float]:
    """Resolvent hitting kernels (p, q) of gap n at x: p weights the left
    endpoint, q the right, p + q <= 1 with deficit the killing mass; their
    alpha -> inf limits where sqrt(2 alpha) overflows."""
    if not alpha > 0:
        raise PreconditionError(f"alpha must be positive, got {alpha}")
    w0, w1 = iset.window
    if x < w0 and iset.tail_left is Tail.ALL_G or x > w1 and iset.tail_right is Tail.ALL_G:
        raise PreconditionError(
            "point lies in an unbounded G-component: hitting kernels are not "
            "defined there (the gap weight vanishes instead)"
        )
    lefts, rights = iset.float_ends
    if not 0 <= n < lefts.size:
        raise PreconditionError(f"no component with index {n}")
    a, b = float(lefts[n]), float(rights[n])
    if not a <= x <= b:
        raise PreconditionError(f"point {x} is not in component {n} = ({a}, {b})")
    c = math.sqrt(2 * alpha)
    if c == math.inf:
        return float(x == a), float(x == b)
    cd, cl, cr = c * (b - a), c * (x - a), c * (b - x)
    return _sinh_ratio(cr, cd, cl), _sinh_ratio(cl, cd, cr)


def feller_weight(width: float) -> float:
    """Limit gap weight 1/(2 d); zero for an infinite gap."""
    if isinstance(width, float) and math.isinf(width):
        return 0.0
    if not width > 0:
        raise PreconditionError(f"gap width must be positive, got {width}")
    return 1 / (2 * width)


def feller_numeric(width: float, alpha: float) -> float:
    """Finite-alpha gap weight alpha * int_a^b p(x) (1 - (b-x)/d) dx.

    Closed antiderivative: 1/(2 d) - alpha / (c sinh(c d)) with c = sqrt(2 alpha),
    evaluated through exp(-c d) so large c d underflows gracefully to the limit;
    below c d = 0.05, where its two terms cancel, four terms of its series in c d.
    """
    if not width > 0 or (isinstance(width, float) and math.isinf(width)):
        raise PreconditionError(f"gap width must be positive and finite, got {width}")
    if not alpha > 0:
        raise PreconditionError(f"alpha must be positive, got {alpha}")
    weight = 1 / (2 * width)
    if not weight <= sys.float_info.max:
        raise PreconditionError("gap width is too small: its weight 1/(2 d) is past the float range")
    c = math.sqrt(2 * alpha)
    if c == math.inf:
        return float(weight)
    cd = c * width
    if cd < 0.05:
        x2 = cd * cd
        return alpha * width / 6 * (1 - x2 * (7 / 60 - x2 * (31 / 2520 - x2 * (127 / 100800))))
    inv_sinh = 2 * math.exp(-cd) / (-math.expm1(-2 * cd))
    return weight - alpha / c * inv_sinh


def trace_energy(phi: TraceFunction) -> EnergyReport:
    """Full trace energy: local F-part plus the jump sum over finite gaps.

    Coincides cell-for-cell with the Dirichlet energy of the harmonic
    extension, since each gap cell of the extension contributes exactly its
    jump term.
    """
    return _cell_form("trace", phi.extension, phi.extension)


def trace_local_energy(phi: TraceFunction) -> float:
    return _cell_form("trace", phi.extension, phi.extension, phi._cell_in_f).value


def _jump_form(phi: TraceFunction) -> EnergyReport:
    """Jump sum (1/2) sum (phi(a) - phi(b))^2 / (b - a), one row per finite gap."""
    # squares as x * x, one correctly rounded product, so saved jump breakdowns
    # depend on the inputs alone and not on the platform's pow
    jumps = gap_jumps(phi)
    return EnergyReport("trace_subspace", (*phi.iset.float_ends,
                                           0.5 * (jumps * jumps) / phi.iset.gap_widths))


def trace_jump_energy(phi: TraceFunction) -> float:
    return _jump_form(phi).value


def trace_subspace_energy(phi: TraceFunction) -> EnergyReport:
    """Trace energy of a subspace restriction: the jump sum alone.

    Requires phi' = 0 on the interior of F, which characterizes restrictions
    of subspace members; a nonzero local slope raises.
    """
    f_slopes = phi.extension.slopes[phi._cell_in_f]
    if f_slopes.size and float(np.max(np.abs(f_slopes))) > SUBSPACE_TOL:
        raise PreconditionError(
            "trace is not flat on F within tolerance: not the restriction of "
            "a subspace member"
        )
    return _jump_form(phi)


def trace_complement_energy(phi: TraceFunction, psi: TraceFunction | None = None) -> EnergyReport:
    """Trace energy of complement restrictions: the local part alone.

    Requires matching values at the two endpoints of every finite gap, which
    characterizes restrictions of complement members (their jump terms vanish).
    """
    psi = phi if psi is None else psi
    if psi.iset is not phi.iset and psi.iset != phi.iset:
        raise PreconditionError("trace functions live on different sets")
    for name, t in (("first", phi), ("second", psi))[:2 - (psi is phi)]:
        _refuse_gap(t.iset, np.abs(gap_jumps(t)) > SUBSPACE_TOL, lambda i, a, b: (
            f"{name} argument jumps across gap {i} = ({a}, {b}): not the "
            "restriction of a complement member"))
    r1, r2 = common_grid(phi.extension, psi.extension)
    return _cell_form("trace_complement", r1, r2, phi.iset._grid_classes(r1.grid) < 0)


def trace_measure(iset: IntervalSet) -> SpeedMeasure:
    """The speed measure of the trace on F: 1_F dx on the window plus
    half-width atoms at both endpoints of every finite gap; the finite
    endpoint of an unbounded gap carries an infinite atom.  Built from the
    set's tables, the exact pieces and atoms only when asked."""
    # in order, none shared: components are sorted and share no end, and an
    # all-G edge meets no component; each gap gives its left end, then its
    # right, and each end half the gap's width
    ends = iset._ends
    halves = _Table([w for w in iset._g_widths.nums for _ in (0, 1)], 2 * iset.den)
    atoms = _gap_atoms(iset, iset.window, np.column_stack(iset.float_ends).ravel(), halves.floats(),
                       lambda: zip(map(ends.value, ends.nums), map(halves.value, halves.nums)))
    return SpeedMeasure._from_table(iset.window, (*iset._f_floats, np.ones(len(iset.f_ranks))),
                                    lambda: tuple((lo, hi, 1) for lo, hi in iset.f_components),
                                    *atoms)


def trace_measure_dict(iset: IntervalSet) -> dict:
    """For JSON: the trace measure as its density, the indicator of F, its
    F-components and its atoms."""
    d = trace_measure(iset).to_dict()
    return {"density": "indicator_F", "f_components": [p[:2] for p in d["density_pieces"]],
            "atoms": d["atoms"]}


def jump_table(iset: IntervalSet) -> list[tuple[float, float, float, float]]:
    """Rows (a, b, width, weight) for every finite gap, weight = 1/(2 width)."""
    lefts, rights = iset.float_ends
    return [(a, b, d, feller_weight(d))
            for a, b, d in zip(lefts.tolist(), rights.tolist(), iset.gap_widths.tolist())]


def jump_table_csv(iset: IntervalSet) -> str:
    return _csv_text("a_n,b_n,d_n,weight", jump_table(iset))
