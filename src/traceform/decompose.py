"""Orthogonal decomposition of a finite-energy function against the subspace.

``project_subspace`` splits u = u1 + u2 with u1 in the subspace (flat on F)
and u2 orthogonal to it.  The shape of u2 depends on how the scale function
behaves at infinity: when its range is infinite on both sides the complement
contains only constants and u2' = u' 1_F; when the range is finite on one or
both sides an affine-in-scale correction with slope C1 appears.

Integrals toward the infinite ends are truncated at the window.  This is
exact because a finite-range side is all-F beyond the window (or carries no
G-mass per period), so the integrand u' 1_G vanishes there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import dirichlet_energy
from .errors import PreconditionError
from .gridfn import (SUBSPACE_TOL, GridFunction, _component_spread, _refuse_gap, cell_in_g,
                     require_adapted)
from .transforms import Case, ScaleFunction, classify_case

ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Decomposition:
    """u = u1 + u2 with u1 in the subspace and u2 in its complement; ``==`` is identity."""

    u1: GridFunction
    u2: GridFunction
    case: Case
    constants: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "case": self.case.value,
            "constants": dict(self.constants),
            "u1": {"grid": self.u1.grid.tolist(), "values": self.u1.values.tolist()},
            "u2": {"grid": self.u2.grid.tolist(), "values": self.u2.values.tolist()},
        }


def _anchor_in_window(sf: ScaleFunction) -> float:
    w0, w1 = (float(x) for x in sf.base.window)
    a = float(sf.anchor)
    return min(max(a, w0), w1)


def project_subspace(u: GridFunction, sf: ScaleFunction) -> Decomposition:
    """Orthogonal projection of u onto the subspace of F-flat functions.

    The subspace part is a cumulative integral of u' over G, with constants
    fixed per case: anchored to zero at the scale anchor when the range is
    infinite on both sides, pinned to zero at the finite-range window edge
    when one side is finite, and corrected by the mean scale slope
    C1 = (integral of u' 1_G) / m(G in window) when both sides are finite.
    """
    return _project(u, sf, cell_in_g(u, sf.base))  # raises on a grid not adapted to the set


def _project(u: GridFunction, sf: ScaleFunction, in_g: np.ndarray) -> Decomposition:
    case = classify_case(sf.base)
    g_len = np.where(in_g, u.cell_lengths, 0.0)
    g_mass = float(g_len.sum())
    # cumulative integral of u' 1_G from the left window edge
    cum = np.concatenate([[0.0], np.cumsum(u.slopes * g_len)])
    total = float(cum[-1])
    anchor = _anchor_in_window(sf)

    constants: dict[str, float]
    if case is Case.I:
        offset = float(np.interp(anchor, u.grid, cum))
        u1_vals = cum - offset
        constants = {"C0": float(u(anchor))}
    elif case is Case.II:
        left_finite = not sf.base.side_mass_infinite("left")
        if left_finite:
            u1_vals = cum.copy()
        else:
            u1_vals = cum - total
        constants = {"M_minus": float(np.interp(anchor, u.grid, u1_vals))}
    else:
        if g_mass == 0.0:
            u1_vals = np.zeros_like(cum)
            constants = {"C1": 0.0, "C2": 0.0}
        else:
            c1 = total / g_mass
            u1_vals = cum - c1 * np.concatenate([[0.0], np.cumsum(g_len)])
            constants = {
                "C1": c1,
                "C2": float(np.interp(anchor, u.grid, u1_vals)),
            }

    u1 = GridFunction(u.grid, u1_vals)
    u2 = GridFunction(u.grid, u.values - u1_vals)
    cross = dirichlet_energy(u1, u2).value
    bound = ORTHOGONALITY_TOL * max(1.0, dirichlet_energy(u, u).value)
    if abs(cross) > bound:
        raise PreconditionError(
            f"decomposition failed orthogonality: cross energy {cross:.3e} "
            f"exceeds {bound:.3e}"
        )
    return Decomposition(u1=u1, u2=u2, case=case, constants=constants)


def is_in_complement(u: GridFunction, sf: ScaleFunction) -> bool:
    """Whether u is orthogonal to the subspace: u' constant across G, and that
    constant zero whenever the scale range is infinite on either side."""
    iset = sf.base
    in_g = cell_in_g(u, iset)
    case = classify_case(iset)
    g_slopes = u.slopes[in_g]
    if g_slopes.size == 0:
        return True
    if case is Case.III:
        return bool(np.ptp(g_slopes) <= SUBSPACE_TOL)
    return bool(np.max(np.abs(g_slopes)) <= SUBSPACE_TOL)


def decompose_harmonic(u: GridFunction, sf: ScaleFunction) -> Decomposition:
    """Decompose a function that is linear on each G-component.

    Such functions are harmonic off F, and both parts of the decomposition
    stay linear on each component; the postcondition is checked.
    """
    iset = sf.base
    require_adapted(u, iset)
    comp = iset._grid_classes(u.grid)
    m = iset.gap_widths.size
    _refuse_gap(iset, _component_spread(comp, m, u.slopes) > SUBSPACE_TOL, lambda i, a, b: (
        f"function is not linear on component {i} = ({a}, {b}): it is not harmonic off F"))
    dec = _project(u, sf, comp >= 0)
    for part in (dec.u1, dec.u2):
        _refuse_gap(iset, _component_spread(comp, m, part.slopes) > SUBSPACE_TOL, lambda i, a, b: (
            f"projection lost linearity on component {i}; inputs inconsistent"))
    return dec
