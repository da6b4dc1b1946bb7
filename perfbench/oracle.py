"""The benchmark's own computations, made apart from traceform, and its checks.

Every check compares a program output with a value computed here from the
construction itself (component lists, cell sums, closed forms), or with a
property the method must have.  Nothing is compared with saved output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def require_close(got, want, tol: float, what: str) -> None:
    """Relative closeness: |got - want| <= tol * max(1, |got|, |want|), elementwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    err = np.abs(got - want) / scale
    if err.size and not float(err.max()) <= tol:
        raise CheckFailed(f"{what}: relative error {float(err.max()):.3e} exceeds {tol:.0e}")


def require_within_se(estimate: float, truth: float, stderr: float, k: float,
                      allowance: float, what: str) -> None:
    if not abs(estimate - truth) <= k * stderr + allowance:
        raise CheckFailed(
            f"{what}: estimate {estimate!r} is {abs(estimate - truth) / stderr:.2f} "
            f"standard errors from {truth!r} (allowed {k} plus {allowance:.3g})"
        )


def fat_cantor_gaps(depth: int, w0: Fraction = Fraction(0),
                    w1: Fraction = Fraction(1)) -> list[tuple[Fraction, Fraction]]:
    """Gaps of the fat Cantor construction, built here from its definition:
    step i removes the open middle interval of length |window| / 4**i from
    each closed piece left by step i - 1."""
    pieces = [(w0, w1)]
    gaps = []
    for i in range(1, depth + 1):
        width = (w1 - w0) / 4**i
        nxt = []
        for x, y in pieces:
            mid = (x + y) / 2
            gaps.append((mid - width / 2, mid + width / 2))
            nxt += [(x, mid - width / 2), (mid + width / 2, y)]
        pieces = nxt
    return sorted(gaps)


class Geometry:
    """Float running masses on the grid made of the window edges and every
    gap endpoint.  Each cell of that grid is one gap or one piece of F."""

    def __init__(self, window, gaps):
        w0, w1 = (float(x) for x in window)
        pairs = {(float(a), float(b)) for a, b in gaps}
        self.grid = np.array(sorted({w0, w1} | {x for ab in pairs for x in ab}))
        self.cell_in_g = np.array([(x, y) in pairs
                                   for x, y in zip(self.grid[:-1], self.grid[1:])])
        lens = np.diff(self.grid)
        self.g_cum = np.concatenate([[0.0], np.cumsum(np.where(self.cell_in_g, lens, 0.0))])
        self.f_cum = np.concatenate([[0.0], np.cumsum(np.where(self.cell_in_g, 0.0, lens))])

    def g_mass_from(self, anchor: float) -> np.ndarray:
        """Signed G-mass from the anchor to each node (exact for PL running sums)."""
        return self.g_cum - np.interp(anchor, self.grid, self.g_cum)

    def f_mass_from(self, anchor: float) -> np.ndarray:
        return self.f_cum - np.interp(anchor, self.grid, self.f_cum)


def cell_energy(grid, u, v=None, mask=None) -> float:
    """(1/2) sum over cells of u' v' times the cell length, optionally masked."""
    v = u if v is None else v
    lens = np.diff(grid)
    terms = 0.5 * (np.diff(u) / lens) * (np.diff(v) / lens) * lens
    if mask is not None:
        terms = terms[mask]
    return float(terms.sum())


def cell_l2(grid, u) -> float:
    """Integral of the square of a PL function: (L/3)(a^2 + a b + b^2) per cell."""
    a, b = u[:-1], u[1:]
    return float(np.sum(np.diff(grid) * (a * a + a * b + b * b) / 3))


def jump_sum(grid, phi, cell_in_g) -> float:
    """Sum over gaps of (phi(b) - phi(a))**2 / (2 (b - a))."""
    lens = np.diff(grid)
    jumps = np.diff(phi)
    return float(np.sum((jumps * jumps / (2 * lens))[cell_in_g]))


def sinh_kernel(a: float, b: float, x: float, alpha: float) -> tuple[float, float]:
    """Laplace transform of the exit time on each side of (a, b) from x."""
    c = math.sqrt(2 * alpha)
    d = b - a
    return math.sinh(c * (b - x)) / math.sinh(c * d), math.sinh(c * (x - a)) / math.sinh(c * d)


def batch_share(times, member, burn_in: float, horizon: float, batches: int):
    """Time share of a recorded path spent in member states after burn-in:
    mean and standard error over equal time slices.

    ``member[i]`` says whether the state held on [times[i], times[i+1]) counts.
    Time spent in member states up to t is linear between sample times, so its
    values at the slice edges split every dwell exactly.
    """
    times = np.asarray(times)
    held = np.concatenate([[0.0], np.cumsum(np.diff(times) * member[:-1])])
    edges = burn_in + (horizon - burn_in) * np.arange(batches + 1) / batches
    fractions = np.diff(np.interp(edges, times, held)) / np.diff(edges)
    return float(fractions.mean()), float(fractions.std(ddof=1) / math.sqrt(batches))
