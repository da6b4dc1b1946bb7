"""Energies on the darned image and the representation-equivalence report.

Functions constant on each component closure factor through the darning map:
u = uh o j.  The factorization preserves sup norms, L2 norms against the
pushforward measure, and Dirichlet energies, because j is an isometry from F
(with the gaps collapsed) onto its image.  ``equivalence_report`` checks all
three pairings on a sample of complement members, plus the agreement of the
line-side and trace-side transports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyReport, _same_grid, dirichlet_energy
from .errors import PreconditionError
from .gridfn import SUBSPACE_TOL, GridFunction, _collapse_nodes, _refuse_gap, darn_function
from .intervals import Tail, _encode
from .trace import TraceFunction, gap_jumps, restrict_to_f
from .transforms import DarningMap, SpeedMeasure, _ordered_sum, pushforward_speed


def darned_energy(uh: GridFunction, vh: GridFunction | None = None) -> EnergyReport:
    """(1/2) integral of uh' vh' over the darned carrier."""
    return dirichlet_energy(uh, vh, form="darned")


def _l2_cells(u: GridFunction, mask: np.ndarray | None = None) -> float:
    # exact integral of u^2 over the cells mask keeps: per cell (L/3)(a^2 + a b + b^2)
    a, b, lens = u.values[:-1], u.values[1:], u.cell_lengths
    if mask is not None:
        a, b, lens = a[mask], b[mask], lens[mask]
    return float(np.sum(lens * (a * a + a * b + b * b) / 3))


def line_l2(u: GridFunction, dm: DarningMap) -> float:
    """L2 norm squared of u against Lebesgue measure on the window; infinite
    when u fails to vanish at the finite endpoint of an unbounded component
    (the constant tail would have infinite mass)."""
    iset = dm.base
    w0, w1 = (float(x) for x in iset.window)
    if iset.tail_left is Tail.ALL_G and abs(u(w0)) > SUBSPACE_TOL:
        return math.inf
    if iset.tail_right is Tail.ALL_G and abs(u(w1)) > SUBSPACE_TOL:
        return math.inf
    return _l2_cells(u)


def darned_l2(uh: GridFunction, speed: SpeedMeasure) -> float:
    """L2 norm squared of uh against the speed measure: density part plus
    mass * value^2 per atom.  An infinite atom forces value zero there; a
    nonzero value makes the norm infinite."""
    total = 0.0
    for x0, x1, c in zip(*(a.tolist() for a in speed._piece_arrays)):
        piece = uh.refine([x0, x1])
        mask = (piece.grid[:-1] >= x0 - 1e-15) & (piece.grid[1:] <= x1 + 1e-15)
        total += c * _l2_cells(piece, mask)
    positions, masses = speed._atom_arrays
    values, inf = uh(positions), np.isinf(masses)
    if np.any(np.abs(values[inf]) > SUBSPACE_TOL):
        return math.inf
    v = values[~inf]
    return _ordered_sum(masses[~inf] * v * v, total)


@dataclass(frozen=True)
class SampleEquivalence:
    """Metric pairs for one sample function before and after darning."""

    sup_line: float
    sup_darned: float
    l2_line: float
    l2_darned: float
    energy_line: float
    energy_darned: float
    trace_match: float  # max node-wise gap between line-side and trace-side darning

    def to_dict(self) -> dict:
        return {
            "sup": [self.sup_line, self.sup_darned],
            "l2": [_encode(self.l2_line), _encode(self.l2_darned)],
            "energy": [self.energy_line, self.energy_darned],
            "trace_match": self.trace_match,
        }


@dataclass(frozen=True)
class DarnedSpaceReport:
    samples: tuple[SampleEquivalence, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        def close(a, b):
            if math.isinf(a) or math.isinf(b):
                return a == b
            return abs(a - b) <= self.tolerance * max(1.0, abs(a), abs(b))

        return all(
            close(s.sup_line, s.sup_darned)
            and close(s.l2_line, s.l2_darned)
            and close(s.energy_line, s.energy_darned)
            and s.trace_match <= self.tolerance
            for s in self.samples
        )

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "ok": self.ok,
            "samples": [s.to_dict() for s in self.samples],
        }


def darn_trace(phi: TraceFunction, dm: DarningMap) -> GridFunction:
    """Trace-side transport: map the F-nodes of phi through the darning map,
    collapsing gap endpoint pairs (their values must agree within SUBSPACE_TOL)."""
    _refuse_gap(phi.iset, np.abs(gap_jumps(phi)) > SUBSPACE_TOL, lambda i, a, b: (
        f"trace values differ across gap {i} = ({a}, {b}); the trace "
        "does not factor through the darning map"))
    return _collapse_nodes(phi.nodes, phi.values, dm)


def _trace_match(uh: GridFunction, phih: GridFunction) -> float:
    """The largest node-wise gap between the line-side and trace-side
    transports, on the union of their grids."""
    if not _same_grid(uh, phih):
        common = np.union1d(uh.grid, phih.grid)
        uh, phih = uh.refine(common), phih.refine(common)
    return float(np.max(np.abs(uh.values - phih.values)))


def equivalence_report(samples: list[GridFunction], dm: DarningMap,
                       tol: float = 1e-12) -> DarnedSpaceReport:
    """Check that darning preserves sup norm, L2 norm, and energy for each
    sample, and that line-side and trace-side transports agree node-wise.

    Samples must be constant on each component closure (complement members in
    the infinite-mass cases); ``darn_function`` raises otherwise.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise PreconditionError(f"tol must be a finite number >= 0, got {tol}")
    speed = pushforward_speed(dm, "lebesgue")
    rows = []
    for u in samples:
        uh = darn_function(u, dm)
        trace_match = _trace_match(uh, darn_trace(restrict_to_f(u, dm.base), dm))
        rows.append(
            SampleEquivalence(
                sup_line=float(np.max(np.abs(u.values))),
                sup_darned=float(np.max(np.abs(uh.values))),
                l2_line=line_l2(u, dm),
                l2_darned=darned_l2(uh, speed),
                energy_line=dirichlet_energy(u).value,
                energy_darned=darned_energy(uh).value,
                trace_match=trace_match,
            )
        )
    return DarnedSpaceReport(samples=tuple(rows), tolerance=tol)
