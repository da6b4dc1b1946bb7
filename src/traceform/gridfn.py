"""Piecewise-linear functions on sorted node grids.

A ``GridFunction`` is the computational stand-in for a finite-energy function
on the window: linear between nodes, with the node set required to contain
every component endpoint whenever an operation needs to tell G-cells from
F-cells.  Membership tests, the darning transport of functions, and CSV
serialization live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import PreconditionError, ValidationError
from .intervals import IntervalSet, _csv_columns, _csv_text
from .transforms import DarningMap, _nearest

SUBSPACE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Continuous piecewise-linear function given by nodes and values; ``==`` is identity."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or values.ndim != 1:
            raise ValidationError("grid and values must be one-dimensional")
        if grid.size != values.size:
            raise ValidationError(
                f"grid has {grid.size} nodes but values has {values.size} entries"
            )
        if grid.size < 2:
            raise ValidationError("a grid function needs at least two nodes")
        if not (grid[1:] > grid[:-1]).all():
            raise ValidationError("grid nodes must be strictly increasing")
        # on a strictly increasing grid, finite ends make every node finite
        if not (math.isfinite(grid[0]) and math.isfinite(grid[-1]) and np.isfinite(values).all()):
            raise ValidationError("grid nodes and values must be finite")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    @cached_property
    def slopes(self) -> np.ndarray:
        # a cell too short for the change across it gives an infinite slope,
        # which each reader checks
        with np.errstate(over="ignore"):
            return np.diff(self.values) / self.cell_lengths

    @cached_property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(self.grid)

    @cached_property
    def _slack(self) -> float:  # points this close to the span count as on it
        return 1e-12 * max(1.0, abs(self.span[1] - self.span[0]))

    def __call__(self, x) -> np.ndarray | float:
        xs = np.asarray(x, dtype=float)
        lo, hi = self.span
        # NaN points pass, as they compare false (fmin and fmax skip them)
        if xs.size and (np.fmin.reduce(xs, axis=None) < lo - self._slack
                        or np.fmax.reduce(xs, axis=None) > hi + self._slack):
            raise PreconditionError(
                f"evaluation point outside the span [{lo}, {hi}]"
            )
        out = np.interp(xs, self.grid, self.values)
        return float(out) if np.isscalar(x) else out

    def refine(self, nodes: Iterable[float]) -> "GridFunction":
        """Same function on the union grid; evaluation is exact for PL data.

        Nodes within float slack of the span are snapped to the boundary so
        exact rational endpoints and their rounded images interoperate.  A
        node inside a subnormal cell, whose slope overflows, is refused.
        """
        extra = np.asarray(list(nodes), dtype=float)
        lo, hi = self.span
        if extra.size:
            if extra.min() < lo - self._slack or extra.max() > hi + self._slack:
                raise PreconditionError("refinement nodes must stay inside the span")
            extra = np.clip(extra, lo, hi)
        grid = np.union1d(self.grid, extra)
        values = np.interp(grid, self.grid, self.values)
        bad = grid[~np.isfinite(values)]
        if bad.size:
            raise PreconditionError(f"interpolating at {float(bad[0])!r} gives no finite value")
        return GridFunction(grid, values)

    def to_csv(self) -> str:
        return _csv_text("x,value", zip(self.grid.tolist(), self.values.tolist()))

    @classmethod
    def from_csv(cls, text: str, iset: IntervalSet | None = None) -> "GridFunction":
        u = cls(*_csv_columns(text, "grid function", "x,value", (float, float)))
        if iset is not None:
            require_adapted(u, iset)
        return u


def adapted_grid(iset: IntervalSet, extra: Sequence[float] = ()) -> np.ndarray:
    """Window-spanning grid containing every component endpoint (all of
    them lie in the window)."""
    nodes = iset._adapted
    extra = np.array([float(x) for x in extra])
    if not extra.size:
        return nodes.copy()
    arr = np.union1d(nodes, extra)
    if arr[0] < nodes[0] or arr[-1] > nodes[-1]:
        raise PreconditionError("extra nodes must lie inside the window")
    return arr


def _missing_nodes(grid: np.ndarray, iset: IntervalSet) -> np.ndarray:
    """The window edges and component ends absent from the sorted ``grid``."""
    nodes = iset._adapted
    if iset._is_adapted(grid):
        return nodes[:0]
    at = grid[np.minimum(np.searchsorted(grid, nodes), grid.size - 1)]
    return nodes[at != nodes]


def from_callable(fn: Callable[[np.ndarray], np.ndarray], iset: IntervalSet,
                  extra: Sequence[float] = ()) -> GridFunction:
    grid = adapted_grid(iset, extra)
    return GridFunction(grid, np.asarray(fn(grid), dtype=float))


def is_adapted(u: GridFunction, iset: IntervalSet) -> bool:
    nodes = iset._adapted
    return u.span == (nodes[0], nodes[-1]) and not _missing_nodes(u.grid, iset).size


def require_adapted(u: GridFunction, iset: IntervalSet) -> None:
    if not is_adapted(u, iset):
        raise PreconditionError(
            "grid is not adapted to the set: it must span the window and "
            "contain every component endpoint; refine the grid explicitly"
        )


def cell_in_g(u: GridFunction, iset: IntervalSet) -> np.ndarray:
    """Boolean per cell: True when the cell lies in a G-component.

    Requires an adapted grid, so each cell sits entirely inside one
    G-component or one F-component and the midpoint decides which.
    """
    require_adapted(u, iset)
    return iset._grid_classes(u.grid) >= 0


def is_in_subspace(u: GridFunction, iset: IntervalSet) -> bool:
    """Whether u is flat (within SUBSPACE_TOL) on every cell meeting F in positive measure."""
    in_g = cell_in_g(u, iset)
    f_slopes = u.slopes[~in_g]
    return bool(np.all(np.abs(f_slopes) <= SUBSPACE_TOL))


def vanishes_on_f(u: GridFunction, iset: IntervalSet) -> bool:
    """Whether u is zero (within SUBSPACE_TOL) at every node lying in F."""
    require_adapted(u, iset)
    on_f = iset._grid_classes(u.grid, nodes=True) < 0
    return bool(np.all(np.abs(u.values[on_f]) <= SUBSPACE_TOL))


def _refuse_gap(iset: IntervalSet, bad: np.ndarray, message: Callable[..., str]) -> None:
    """Raise ``PreconditionError(message(i, a, b))`` for the first gap i that
    ``bad`` marks, (a, b) its ends as they were given."""
    hit = np.flatnonzero(bad)
    if hit.size:
        i = int(hit[0])
        raise PreconditionError(message(i, *iset.given_gap(i)))


def _component_spread(comp: np.ndarray, n_components: int, *columns: np.ndarray) -> np.ndarray:
    """Per component, max minus min of the per-cell columns over the cells
    that ``comp`` assigns to it; -inf for a component without cells."""
    g = comp >= 0
    hi = np.full(n_components, -np.inf)
    lo = np.full(n_components, np.inf)
    for col in columns:
        np.maximum.at(hi, comp[g], col[g])
        np.minimum.at(lo, comp[g], col[g])
    return hi - lo


def _collapse_nodes(nodes: np.ndarray, values: np.ndarray, dm: DarningMap) -> GridFunction:
    """Map nodes through the darning map; the nodes in one component closure
    share its collapsed point, and only the first of them is kept."""
    ys, closure = dm._adapted_images if dm.base._is_adapted(nodes) else dm._images(nodes)
    keep = np.concatenate([[True], (closure[1:] < 0) | (closure[1:] != closure[:-1])])
    return GridFunction(ys[keep], values[keep])


def darn_function(u: GridFunction, dm: DarningMap) -> GridFunction:
    """Transport u through the darning map: nodes inside each component
    closure collapse to one image node.  u must be constant (within SUBSPACE_TOL) on
    each closed component."""
    iset = dm.base
    require_adapted(u, iset)
    # on an adapted grid the nodes of a closed component are the ends of its cells
    spread = _component_spread(iset._grid_classes(u.grid), iset.gap_widths.size,
                               u.values[:-1], u.values[1:])
    _refuse_gap(iset, spread > SUBSPACE_TOL, lambda i, a, b: (
        f"function is not constant on component {i} = ({a}, {b}); "
        f"value spread {float(spread[i]):.3e} exceeds tol {SUBSPACE_TOL}"))
    return _collapse_nodes(u.grid, u.values, dm)


def undarn_function(uh: GridFunction, dm: DarningMap) -> GridFunction:
    """Pull a function on the darning image back to the window: u = uh o j.

    The result's grid contains every component endpoint plus the preimage of
    every node of uh; a node at a collapsed point contributes both endpoints
    of its component.
    """
    iset = dm.base
    lo, hi = (float(v) for v in dm._ends)
    if abs(uh.span[0] - lo) > dm._slack or abs(uh.span[1] - hi) > dm._slack:
        raise PreconditionError(
            f"function span {uh.span} does not match the darning image [{lo}, {hi}]"
        )
    ys = uh.grid
    positions = dm._tables[0]
    at_collapsed = (np.abs(ys - positions[_nearest(ys, positions)]) <= 1e-12 if positions.size
                    else np.zeros(ys.shape, dtype=bool))
    xlo, _ = dm.inverse(ys[~at_collapsed])
    grid = np.union1d(adapted_grid(iset), xlo)
    return GridFunction(grid, uh(dm(grid)))
