"""Bilinear Dirichlet-type energies of piecewise-linear functions.

All integrals are exact cell sums: for PL functions the derivative is
constant per cell, so no quadrature is involved.  Pairs of functions are
brought to a common grid by node union before integrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .gridfn import (
    GridFunction,
    cell_in_g,
    is_in_subspace,
    vanishes_on_f,
)
from .intervals import IntervalSet
from .transforms import _ordered_sum

@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Energy value with its per-cell breakdown; value == sum(contributions).
    The rows are built from the cell arrays on first use."""

    form: str
    value: float = field(init=False)
    cells: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)  # x0, x1, contribution

    def __post_init__(self):
        object.__setattr__(self, "value", _finite(f"{self.form} energy", float(self.cells[2].sum())))

    @cached_property
    def breakdown(self) -> tuple[tuple[float, float, float], ...]:  # (x0, x1, contribution)
        return tuple(zip(*(a.tolist() for a in self.cells)))

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "value": self.value,
            "breakdown": [list(row) for row in self.breakdown],
        }


def _finite(what: str, value: float) -> float:
    if not math.isfinite(value):
        raise PreconditionError(
            f"{what} is {value} in float64: a cell is too short for the change across it"
        )
    return value


def _cell_form(form: str, ru: GridFunction, rv: GridFunction,
               mask: np.ndarray | None = None) -> EnergyReport:
    """Cell sum (1/2) sum u' v' L of two functions on one grid, keeping only
    the cells selected by ``mask`` when one is given."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        contribs = 0.5 * ru.slopes * rv.slopes * ru.cell_lengths
    if mask is not None:
        contribs = np.where(mask, contribs, 0.0)
    return EnergyReport(form, (ru.grid[:-1], ru.grid[1:], contribs))


def _same_grid(u: GridFunction, v: GridFunction) -> bool:
    """Whether u and v have the same grid bits (bytes, so -0.0 and 0.0
    differ): refining either onto the other's grid would change nothing, as
    np.interp gives back each node value exactly."""
    return u.grid is v.grid or u.grid.tobytes() == v.grid.tobytes()


def common_grid(u: GridFunction, v: GridFunction) -> tuple[GridFunction, GridFunction]:
    if u.span != v.span:
        raise PreconditionError(
            f"incompatible windows: spans {u.span} and {v.span} differ"
        )
    if _same_grid(u, v):
        return u, v
    grid = np.union1d(u.grid, v.grid)
    return u.refine(grid), v.refine(grid)


def dirichlet_energy(u: GridFunction, v: GridFunction | None = None,
                     form: str = "full") -> EnergyReport:
    """(1/2) integral of u'v' over the common span."""
    v = u if v is None else v
    ru, rv = common_grid(u, v)
    return _cell_form(form, ru, rv)


def subspace_energy(u: GridFunction, v: GridFunction | None = None, *,
                    iset: IntervalSet) -> EnergyReport:
    """(1/2) integral of u'v' restricted to G; both arguments must be flat on F."""
    v = u if v is None else v
    for name, w in (("first", u), ("second", v))[:2 - (v is u)]:  # one object, checked once
        if not is_in_subspace(w, iset):
            raise PreconditionError(
                f"{name} argument is not a subspace member: its derivative does "
                "not vanish on F within tolerance"
            )
    ru, rv = common_grid(u, v)  # a union of adapted grids is adapted: no second check
    return _cell_form("subspace", ru, rv, iset._grid_classes(ru.grid) >= 0)


def part_energy(u: GridFunction, v: GridFunction | None = None, *,
                iset: IntervalSet) -> EnergyReport:
    """(1/2) integral of u'v' over G for functions vanishing on F.

    For such functions this coincides with the full energy; the agreement is
    checked and a violation raises, since it signals inconsistent inputs.
    """
    v = u if v is None else v
    for name, w in (("first", u), ("second", v))[:2 - (v is u)]:
        if not vanishes_on_f(w, iset):
            raise PreconditionError(
                f"{name} argument does not vanish on F within tolerance"
            )
    ru, rv = common_grid(u, v)  # adapted, as in subspace_energy
    report = _cell_form("part", ru, rv, iset._grid_classes(ru.grid) >= 0)
    full = _cell_form("full", ru, rv).value
    if abs(full - report.value) > 1e-9 * max(1.0, abs(full)):
        raise PreconditionError(
            "part energy disagrees with the full energy for F-vanishing inputs; "
            "inputs are inconsistent with the declared set"
        )
    return report


def energy_measure(u: GridFunction, interval: tuple[float, float], *,
                   iset: IntervalSet | None = None, subspace: bool = False) -> float:
    """Integral of u'(x)^2 over the interval (the energy measure of u).

    With ``subspace=True`` only the G-portion of each cell counts, matching
    the subspace form whose energy measure never charges F.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if math.isnan(lo) or math.isnan(hi):
        raise PreconditionError(f"interval ({lo}, {hi}) has a NaN end")
    if lo > hi:
        raise PreconditionError(f"interval has lo {lo} > hi {hi}")
    span = u.span
    lo, hi = max(lo, span[0]), min(hi, span[1])
    if hi <= lo:
        return 0.0
    if subspace and iset is None:
        raise PreconditionError("subspace energy measure needs the interval set")
    left, right = np.maximum(u.grid[:-1], lo), np.minimum(u.grid[1:], hi)
    keep = right > left
    if subspace:
        keep &= cell_in_g(u, iset)  # raises on a grid not adapted to the set
    slopes = u.slopes[keep]
    with np.errstate(over="ignore"):
        return _finite("energy measure", _ordered_sum(slopes * slopes * (right - left)[keep]))


def unit_contraction(u: GridFunction) -> GridFunction:
    """Clip u to [0, 1], inserting nodes where u crosses either level so the
    result is exactly piecewise linear on its grid."""
    x0, x1, v0, v1 = u.grid[:-1], u.grid[1:], u.values[:-1], u.values[1:]
    crossings = []
    for level in (0.0, 1.0):
        k = (v0 - level) * (v1 - level) < 0
        crossings.append(x0[k] + (level - v0[k]) / (v1[k] - v0[k]) * (x1[k] - x0[k]))
    refined = u.refine(np.concatenate(crossings))
    return GridFunction(refined.grid, np.clip(refined.values, 0.0, 1.0))
