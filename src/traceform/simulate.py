"""Monte Carlo engines: discretized Brownian exit laws and speed-measure walks.

Two kinds of randomness live here.  ``bm_paths`` and the exit estimators
discretize Brownian motion itself (variance dt per step).  ``walk_paths`` and
its relatives simulate the nearest-neighbor walk that approximates a
diffusion in natural scale with a given speed measure: steps of size h with
equal probabilities, holding time at node y with mean

    integral of (h - |xi - y|)+ against the speed measure,

so a density c contributes c h^2 at an interior node and an atom of mass w at
y contributes h w.  Infinite atoms absorb.  Reflecting ends are realized by
folding an unconstrained walk, absorbing ends by cutting at the first visit.

Seeding contract: path-level streams use one generator per path seeded with
seed XOR path-index; the batched estimators use one generator per fixed-size
chunk of paths seeded with seed XOR chunk-index.  Either way the result is a
pure function of (inputs, seed), independent of scheduling and worker count:
each chunk writes its own slice of the sample.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import PreconditionError, StepCapError, ValidationError
from .intervals import IntervalSet, _csv_columns, _csv_text
from .transforms import ScaleFunction, SpeedMeasure, scale_pushforward_speed

# mean overshoot of a Gaussian random walk over a level, in units of sqrt(dt);
# equals -zeta(1/2)/sqrt(2 pi)
OVERSHOOT = 0.5825971579390107

EXIT_CHUNK = 1 << 14  # paths per generator stream
EXIT_BLOCK = 128  # steps per surviving path drawn at once
EXIT_TILE = 1 << 10  # rows per in-place tile of a step block
WALK_BLOCK = 1 << 20  # walk steps drawn at once
POINT_TOL = 1e-9  # a state this close to a point target occupies it
DEFAULT_GAP_FRACTION = 50  # sqrt(dt) <= gap / 50
BM_MAX_STEPS = 1 << 24  # steps per Brownian path: its arrays stay within about 400 MiB


@dataclass(frozen=True)
class PathSample:
    """Recorded trajectory: arrival times, states, and per-sample flags.

    Flags: 0 regular point, 1 collapsed F-component (state is its midpoint),
    2 absorbed (this and later samples sit at the absorption point).  The last
    sample always closes the path at t = horizon.
    """

    times: np.ndarray
    states: np.ndarray
    flags: np.ndarray
    seed: int
    horizon: float
    absorbed_at: float | None = None
    absorbed_time: float | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        flags = np.asarray(self.flags)
        if not (times.size == states.size == flags.size):
            raise ValidationError("times, states, and flags must have equal length")
        if times.size == 0:
            raise ValidationError("a path needs at least one sample")
        if not np.isfinite(times).all():
            raise ValidationError("sample times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("sample times must be strictly increasing")
        known = np.isin(flags, (0, 1, 2))
        if not known.all():
            raise ValidationError(f"path flag {flags[~known][0]} is not 0, 1 or 2")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "flags", flags.astype(np.int8, copy=False))

    def to_csv(self) -> str:
        return _csv_text("t,x,flag", zip(self.times.tolist(), self.states.tolist(),
                                         self.flags.tolist()))

    @classmethod
    def from_csv(cls, text: str, seed: int = 0) -> "PathSample":
        """A path from the CSV text ``to_csv`` writes; every state must be finite."""
        columns = _csv_columns(text, "path", "t,x,flag", (float, float, int))
        times, states, flags = map(np.asarray, columns)
        absorbed_at = absorbed_time = None
        hit = np.nonzero(flags == 2)[0]
        if hit.size:
            absorbed_at = float(states[hit[0]])
            absorbed_time = float(times[hit[0]])
        path = cls(times, states, flags, seed=seed,
                   horizon=float(times[-1]) if times.size else 0.0,
                   absorbed_at=absorbed_at, absorbed_time=absorbed_time)
        if not np.isfinite(path.states).all():
            raise ValidationError("path states must be finite")
        return path


@dataclass(frozen=True)
class EstimatorResult:
    """Point estimate with standard error = sample std / sqrt(n)."""

    estimate: float
    stderr: float
    n: int
    target: str
    warning: str | None = None

    def to_dict(self) -> dict:
        d = {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "n": self.n,
            "target": self.target,
        }
        if self.warning:
            d["warning"] = self.warning
        return d


def _result_from_samples(samples: np.ndarray, target: str) -> EstimatorResult:
    """Mean and standard error of ``samples``, which it overwrites: the mean,
    then ``np.std(ddof=1)``'s own steps in place, with their bits."""
    n = samples.size
    mean = np.add.reduce(samples) / n
    std = 0.0
    if n > 1:
        samples -= mean
        np.multiply(samples, samples, out=samples)
        std = math.sqrt(np.add.reduce(samples) / (n - 1))
    return EstimatorResult(estimate=float(mean), stderr=std / math.sqrt(n), n=n, target=target)


# -- Brownian paths and exit estimators -----------------------------------


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise PreconditionError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")


def bm_paths(n: int, dt: float, horizon: float, x0: float, seed: int) -> Iterator[PathSample]:
    """Stream of n discretized Brownian paths; path i uses seed XOR i."""
    if n < 1:
        raise PreconditionError("need at least one path")
    if not 0 < dt < math.inf:
        raise PreconditionError(f"dt must be positive and finite, got {dt}")
    if not 0 <= horizon < math.inf:
        raise PreconditionError(f"horizon must be nonnegative and finite, got {horizon}")
    if not math.isfinite(x0):
        raise PreconditionError(f"start point must be finite, got {x0}")
    if horizon / dt > BM_MAX_STEPS:
        raise PreconditionError(
            f"horizon {horizon} over dt {dt} asks for more than {BM_MAX_STEPS} steps per path"
        )
    _check_seed(seed)
    steps = int(math.floor(horizon / dt + 1e-12))
    scale = math.sqrt(dt)
    for i in range(n):
        rng = np.random.default_rng(seed ^ i)
        incs = scale * rng.standard_normal(steps)
        times = dt * np.arange(steps + 1)
        states = np.concatenate([[x0], x0 + np.cumsum(incs)])
        yield PathSample(times, states, np.zeros(steps + 1, dtype=np.int8),
                         seed=seed ^ i, horizon=horizon)


def _exit_chunk(a: float, b: float, x0: float, dt: float, rng, shift: float,
                left: np.ndarray, tau: np.ndarray):
    """Stepper for the exit side and exit time of len(left) discretized paths
    in the gap (a, b): a generator that yields the number of surviving paths
    and writes each path's side and time into ``left`` and ``tau``, its slice
    of the whole sample, as the path exits.

    Prime it with ``next``.  Each ``send((buf, lows, highs))`` advances
    every surviving path by EXIT_BLOCK steps, with a float buffer and two
    bool test masks of its shape (min(len(left), EXIT_TILE) rows or more)
    as scratch; the first boundary crossing inside a block ends that path at
    the crossing step.  With a nonzero shift the effective boundaries move
    inward, compensating the mean overshoot of the discrete walk past a
    continuum level.

    Each block is drawn, summed and tested in place, EXIT_TILE surviving
    rows at a time.  The tiles take the generator's normals in row order, so
    the result equals that of drawing the whole block at once, bit for bit,
    for any tile size and whoever's scratch a step uses.
    """
    lo = a + shift
    hi = b - shift
    scale = math.sqrt(dt)
    pos = np.full(left.size, float(x0))
    idx = np.arange(left.size)
    base = 0
    max_steps = max(10_000, int(200 * (b - a) ** 2 / dt))
    while idx.size:
        buf, lows, highs = yield idx.size
        if base > max_steps:
            raise StepCapError(
                f"exit walk exceeded its step cap of {max_steps} steps; "
                f"dt = {dt} is inconsistent with the gap ({a}, {b})"
            )
        keep = np.empty(idx.size, dtype=bool)
        for r0 in range(0, idx.size, EXIT_TILE):
            r1 = min(r0 + EXIT_TILE, idx.size)
            tile, out, high = buf[: r1 - r0], lows[: r1 - r0], highs[: r1 - r0]
            rng.standard_normal(out=tile)
            np.cumsum(tile, axis=1, out=tile)
            tile *= scale
            tile += pos[r0:r1, None]
            np.less_equal(tile, lo, out=out)
            np.greater_equal(tile, hi, out=high)
            out |= high
            hit = out.any(axis=1)
            if hit.any():
                cols = np.argmax(out[hit], axis=1)
                rows = idx[r0:r1][hit]
                left[rows] = tile[hit, cols] <= lo
                tau[rows] = (base + cols + 1) * dt
            keep[r0:r1] = ~hit
            pos[r0:r1] = tile[:, -1]
        pos = pos[keep]
        idx = idx[keep]
        base += EXIT_BLOCK


def _worker_count(workers: int | None, n_chunks: int) -> int:
    """Threads for n_chunks chunks: ``None`` means one per usable CPU."""
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            workers = os.cpu_count() or 1
    elif workers < 1:
        raise PreconditionError(f"workers must be at least 1, got {workers}")
    return min(workers, n_chunks)


def _exit_samples(a: float, b: float, x0: float, n: int, dt: float, seed: int,
                  correct: bool, workers: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Exit sides and times of n paths.

    The sample is allocated once, and each chunk writes its exits into its
    own slice of it.  The calling thread is one of the threads, beside
    threads - 1 helpers.  Each thread takes the chunk at the head of one FIFO
    queue, advances it by one block in its own scratch (a step buffer and
    two test masks) and puts it back, so no thread idles while a chunk has
    blocks left; at most threads + 1 chunks are unfinished at once.
    Once fewer than EXIT_TILE paths of a chunk survive, the thread keeps it
    to its end, so its cheap tail blocks never wait behind full ones.  The
    first failure on any thread stops the others and is raised once the
    helpers are joined.
    """
    if n < 1:
        raise PreconditionError(f"path count n must be at least 1, got {n}")
    if not 0 < dt < math.inf:
        raise PreconditionError(f"dt must be positive and finite, got {dt}")
    shift = OVERSHOOT * math.sqrt(dt) if correct else 0.0
    if not a + shift < x0 < b - shift:
        raise PreconditionError(
            f"start point {x0} is not interior to the effective gap "
            f"({a + shift}, {b - shift})"
        )
    _check_seed(seed)
    n_chunks = (n + EXIT_CHUNK - 1) // EXIT_CHUNK
    threads = _worker_count(workers, n_chunks)
    left = np.empty(n, dtype=bool)  # every path writes its own entry as it exits
    tau = np.empty(n)
    queue = deque()
    lock = threading.Lock()
    started = live = 0
    failed, errors = False, []

    def work():
        nonlocal started, live
        shape = (min(n, EXIT_CHUNK, EXIT_TILE), EXIT_BLOCK)
        scratch = (np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
        chunk = None
        while True:
            with lock:
                if chunk is not None:
                    queue.append(chunk)
                if not failed and started < n_chunks and live <= threads:
                    rows = slice(started * EXIT_CHUNK, (started + 1) * EXIT_CHUNK)
                    fresh = _exit_chunk(a, b, x0, dt, np.random.default_rng(seed ^ started),
                                        shift, left[rows], tau[rows])
                    next(fresh)
                    queue.append(fresh)
                    started += 1
                    live += 1
                if failed or not queue:
                    return
                chunk = queue.popleft()
            try:
                # a block of one tile is too cheap to queue: keep the chunk
                while chunk.send(scratch) < EXIT_TILE and not failed:
                    pass
            except StopIteration:
                chunk = None
                with lock:
                    live -= 1

    def run():  # work(); what it raises stops the others and is raised by the caller
        nonlocal failed
        try:
            work()
        except BaseException as exc:
            with lock:
                failed = True
                errors.append(exc)

    helpers = []
    try:
        for _ in range(threads - 1):
            helper = threading.Thread(target=run)
            helper.start()
            helpers.append(helper)
        run()
        for helper in helpers:
            helper.join()
    finally:
        failed = True  # a failed start or an interrupt while joining stops the helpers too
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return left, tau


def default_exit_dt(gap: float) -> float:
    return (gap / DEFAULT_GAP_FRACTION) ** 2


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise PreconditionError(f"alpha must be nonnegative and finite, got {alpha}")


@dataclass(frozen=True)
class ExitSample:
    """Exit side (``left``) and exit time (``tau``) of each path from the gap (a, b)."""

    a: float
    b: float
    left: np.ndarray
    tau: np.ndarray

    def _sides(self, weight, label: str) -> tuple[EstimatorResult, EstimatorResult]:
        """Mean of each path's weight on each exit side, 0 for a path leaving by the other."""
        return (_result_from_samples(np.where(self.left, weight, 0.0),
                                     f"{label}exit at {self.a} (left endpoint)"),
                _result_from_samples(np.where(self.left, 0.0, weight),
                                     f"{label}exit at {self.b} (right endpoint)"))

    def hitting(self) -> tuple[EstimatorResult, EstimatorResult]:
        """Exit-side probabilities; the closed form (b - x0) / (b - a) is their oracle."""
        return self._sides(1.0, "")

    def laplace(self, alpha: float) -> tuple[EstimatorResult, EstimatorResult]:
        """Means of exp(-alpha * tau) on each exit side; alpha = 0 gives ``hitting``."""
        _check_alpha(alpha)
        weight = np.multiply(self.tau, -alpha)
        return self._sides(np.exp(weight, out=weight), f"exp(-{alpha} tau) on ")


def exit_sample(iset: IntervalSet, x0: float, n: int, seed: int, dt: float | None = None,
                correct: bool = False, workers: int | None = None) -> ExitSample:
    """Exit sides and times of n discretized Brownian paths from x0 in its gap of G.

    ``dt`` defaults to ``default_exit_dt`` of the gap's width; ``correct``
    enables the overshoot boundary correction.  The defaults are biased: on
    the gap (0, 1) from 0.2, n = 1e5 and seed 1 give a hitting estimate at
    z = -5.6 against the closed form.  ``correct=True`` with dt = (d/40)**2
    for a gap of width d is the validated setting (acceptance criterion 6
    also checks Laplace transforms at dt = (d/50)**2 against dt / 2).
    ``workers`` threads share the chunks (default: one per usable CPU), the
    calling thread among them, so ``workers=1`` starts no thread; the
    sample is the same for every worker count.  Its memory is the sample (9
    bytes a path) plus about 1.3 MiB of scratch per thread while it draws,
    then the sample plus one reduction buffer of 8 bytes a path (``laplace``
    adds one for its weights).
    """
    i = iset.component_index(x0)
    if i is None:
        raise PreconditionError(
            f"start point {x0} lies in F; exit estimation needs a point "
            "interior to a finite G-component"
        )
    lefts, rights = iset.float_ends
    a, b = float(lefts[i]), float(rights[i])
    if dt is None:
        dt = default_exit_dt(b - a)
    return ExitSample(a, b, *_exit_samples(a, b, x0, n, dt, seed, correct, workers))


def estimate_hitting(iset: IntervalSet, x0: float, n: int, seed: int,
                     dt: float | None = None, correct: bool = False,
                     workers: int | None = None) -> tuple[EstimatorResult, EstimatorResult]:
    """``exit_sample(...).hitting()``, one result per endpoint of x0's gap."""
    return exit_sample(iset, x0, n, seed, dt, correct, workers).hitting()


def estimate_laplace(iset: IntervalSet, x0: float, alpha: float, n: int, seed: int,
                     dt: float | None = None, correct: bool = False,
                     workers: int | None = None) -> tuple[EstimatorResult, EstimatorResult]:
    """``exit_sample(...).laplace(alpha)``, with alpha checked before the draw."""
    _check_alpha(alpha)
    return exit_sample(iset, x0, n, seed, dt, correct, workers).laplace(alpha)


# -- speed-measure walks ----------------------------------------------------


@dataclass(frozen=True)
class WalkChain:
    """Embedded chain of the h-grid walk: node coordinates, mean holds per
    visit, and which nodes absorb."""

    lo: float
    h: float
    nodes: np.ndarray
    holds: np.ndarray
    absorbing: np.ndarray
    atom_nodes: tuple[int, ...]


def build_chain(speed: SpeedMeasure, h: float,
                boundary: tuple[str, str] = ("reflect", "reflect")) -> WalkChain:
    """Grid nodes and holding means for the walk driven by ``speed``.

    h must divide the carrier length; atoms are snapped to the nearest node
    and must not collide.  Infinite atoms absorb; an "absorb" boundary makes
    the corresponding end node absorbing as well.
    """
    lo, hi = (float(x) for x in speed.carrier)
    if not 0 < h < math.inf:
        raise PreconditionError(f"step h must be positive and finite, got {h}")
    ratio = (hi - lo) / h
    n_cells = round(ratio)
    if n_cells < 1 or abs(ratio - n_cells) > 1e-9 * max(1.0, abs(ratio)):
        raise PreconditionError(
            f"step h = {h} must divide the carrier length {hi - lo}"
        )
    for side in boundary:
        if side not in ("reflect", "absorb"):
            raise PreconditionError(f"boundary must be 'reflect' or 'absorb', got {side!r}")
    nodes = lo + h * np.arange(n_cells + 1)
    positions, masses = speed._atom_arrays
    if positions.size > 1:
        min_spacing = float(np.diff(np.sort(positions)).min())
        if h > min_spacing:
            raise PreconditionError(
                f"step h = {h} exceeds the smallest atom spacing {min_spacing}; "
                "snapped atoms would collide"
            )
    snapped = np.clip(np.rint((positions - lo) / h).astype(int), 0, n_cells)
    order = np.argsort(snapped, kind="stable")
    again = order[1:][np.diff(snapped[order]) == 0]  # each later atom on a taken node
    if again.size:
        raise PreconditionError(
            f"two atoms snap to the same grid node {nodes[snapped[again.min()]]}; decrease h"
        )
    holds = speed._tent_density(nodes, h)
    inf = np.isinf(masses)
    holds[snapped[~inf]] += h * masses[~inf]
    holds[snapped[inf]] = math.inf
    absorbing = np.zeros(nodes.size, dtype=bool)
    absorbing[snapped[inf]] = True
    # A reflecting end folds the speed measure across the boundary: the Green
    # function of reflected BM on [0, h) is 2(h - xi), so the end hold is twice
    # the one-sided tent integral.  Lebesgue then holds h^2 at every node,
    # reflecting ends included, and an end atom keeps its full stationary weight.
    for end, side in zip((0, -1), boundary):
        if side == "absorb":
            absorbing[end] = True
        elif not absorbing[end]:
            holds[end] *= 2
    return WalkChain(lo=lo, h=h, nodes=nodes, holds=holds, absorbing=absorbing,
                     atom_nodes=tuple(sorted(snapped.tolist())))


def _visit_blocks(chain: WalkChain, x0: float, horizon: float, seed: int,
                  holding: str) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (node indices, arrivals, dwells) blocks of the walk from the node
    nearest x0 until the clock reaches the horizon or an absorbing node is
    entered.  The final dwell is clipped so that total time equals the
    horizon exactly.  Every walk checks its inputs and seeds its generator
    here."""
    _check_horizon(horizon)
    lo, hi = chain.lo, float(chain.nodes[-1])
    if not lo <= x0 <= hi:
        raise PreconditionError(f"start point {x0} is outside the carrier [{lo}, {hi}]")
    _check_seed(seed)
    if holding not in ("exponential", "deterministic"):
        raise PreconditionError(f"holding must be 'exponential' or 'deterministic', got {holding!r}")
    if not (np.any(chain.holds > 0) or np.any(chain.absorbing)):
        raise PreconditionError(
            "no grid node holds the walk or absorbs it, so its clock never advances")
    rng = np.random.default_rng(seed)
    n_top = chain.nodes.size - 1
    exp_holds = holding == "exponential"
    t = 0.0
    ku = int(round((x0 - lo) / chain.h))  # unfolded node; reflection folds it into [0, n_top]
    pos = np.array([ku])
    while True:
        absorbed = chain.absorbing[pos]
        stop = np.any(absorbed)
        if stop:
            pos = pos[: int(np.argmax(absorbed)) + 1]
        dwell = chain.holds[pos]
        if exp_holds:
            finite = np.isfinite(dwell)
            draws = rng.standard_exponential(pos.size)
            dwell[finite] = dwell[finite] * draws[finite]
        arr = t + np.concatenate([[0.0], np.cumsum(dwell[:-1])])
        t = arr[-1] + dwell[-1]
        if stop or t >= horizon:
            # the walk ends at its absorption if that comes before the
            # horizon, else at the first visit that reaches the horizon
            if stop and arr[-1] < horizon:
                end = pos.size
            else:
                end = int(np.argmax(arr + dwell >= horizon)) + 1
            dwell = dwell[:end]
            dwell[-1] = horizon - arr[end - 1]
            yield pos[:end], arr[:end], dwell
            return
        yield pos, arr, dwell
        steps = 2 * rng.integers(0, 2, size=WALK_BLOCK, dtype=np.int64) - 1
        unfolded = ku + np.cumsum(steps)
        ku = int(unfolded[-1])
        m = unfolded % (2 * n_top)
        pos = np.minimum(m, 2 * n_top - m)


def _check_horizon(horizon: float) -> None:
    if not 0 < horizon < math.inf:
        raise PreconditionError(f"horizon must be positive and finite, got {horizon}")


def walk_paths(speed: SpeedMeasure, h: float, x0: float, horizon: float, seed: int,
               boundary: tuple[str, str] = ("reflect", "reflect"),
               holding: str = "exponential") -> PathSample:
    """One trajectory of the speed-measure walk, recorded where time passes.

    Visits with zero dwell (nodes the speed measure does not charge) are
    instantaneous and are not recorded; the final sample closes the path at
    the horizon.  Entering an absorbing node freezes the path there.
    """
    chain = build_chain(speed, h, boundary)
    return _walk_chain(chain, x0, horizon, seed, holding,
                       chain.nodes, np.zeros(chain.nodes.size, dtype=np.int8))


def _walk_chain(chain: WalkChain, x0: float, horizon: float, seed: int, holding: str,
                states: np.ndarray, flags: np.ndarray) -> PathSample:
    """The walk on ``chain`` recorded where time passes, node k read as state
    ``states[k]`` with flag ``flags[k]``; samples from an absorption on are
    flagged 2."""
    times: list[np.ndarray] = []
    visits: list[np.ndarray] = []
    absorbed_at = absorbed_time = None
    for pos, arr, dwell in _visit_blocks(chain, x0, horizon, seed, holding):
        keep = dwell > 0
        if chain.absorbing[pos[-1]]:  # only the last block ends at an absorbing node
            absorbed_at, absorbed_time = float(states[pos[-1]]), float(arr[-1])
            keep[-1] = True
        times.append(arr[keep])
        visits.append(pos[keep])
    t_all = np.concatenate(times)
    idx = np.concatenate(visits)
    # close the path at the horizon
    if t_all[-1] < horizon:
        t_all = np.append(t_all, horizon)
        idx = np.append(idx, idx[-1])
    path_flags = flags[idx]
    if absorbed_time is not None:
        path_flags[t_all >= absorbed_time] = 2
    return PathSample(t_all, states[idx], path_flags, seed=seed, horizon=horizon,
                      absorbed_at=absorbed_at, absorbed_time=absorbed_time)


def simulate_xs(sf: ScaleFunction, h: float, x0: float, horizon: float, seed: int,
                boundary: tuple[str, str] = ("reflect", "reflect"),
                holding: str = "exponential") -> PathSample:
    """Walk approximation of the subspace diffusion: run the speed-measure
    walk in scale coordinates (speed = pushforward of Lebesgue measure under
    the scale function) and map states back to the line.  States inside a
    collapsed F-component are reported as its midpoint with flag 1."""
    speed = scale_pushforward_speed(sf)
    chain = build_chain(speed, h, boundary)
    y0 = float(sf(x0))
    # map the nodes back through the scale inverse; each plateau is one atom of
    # the speed, in order, so the sorted atom nodes pair with the plateaus
    img_lo, img_hi = (float(v) for v in speed.carrier)
    xs, _ = sf.inverse(np.clip(chain.nodes, img_lo, img_hi))
    flags = np.zeros(chain.nodes.size, dtype=np.int8)
    atoms = list(chain.atom_nodes)
    _, _, f_lo, f_hi = sf._tables
    xs[atoms] = (f_lo + f_hi) / 2
    flags[atoms] = 1
    return _walk_chain(chain, y0, horizon, seed, holding, xs, flags)


# -- occupation statistics --------------------------------------------------


Target = Sequence[float] | numbers.Real


def _target_label(tg: Target) -> str:
    if isinstance(tg, numbers.Real):
        return f"point {float(tg)}"
    lo, hi = tg
    return f"interval [{float(lo)}, {float(hi)}]"


def _membership(states: np.ndarray, tg: Target) -> np.ndarray:
    """Which states lie in the target; an interval may have infinite ends."""
    if isinstance(tg, numbers.Real):
        if math.isnan(tg):
            raise PreconditionError("occupation target point nan is not a number")
        if math.isinf(tg):
            raise PreconditionError(f"occupation target point {float(tg)} is not finite")
        return np.abs(states - float(tg)) <= POINT_TOL
    lo, hi = (float(v) for v in tg)
    if not lo <= hi:
        raise PreconditionError(f"occupation target {_target_label(tg)} must satisfy lo <= hi")
    return (states >= lo) & (states <= hi)


def _check_batches(burn_in: float, horizon: float, batches: int) -> None:
    if batches < 2:
        raise PreconditionError("batch means need at least two batches")
    if not 0 <= burn_in < horizon:
        raise PreconditionError("burn-in must lie in [0, horizon)")


def _batch_occupation(blocks, targets: Sequence[Target], burn_in: float, horizon: float,
                      batches: int) -> list[EstimatorResult]:
    """Batch-means occupation fractions from (arrivals, dwells, member) blocks,
    member[j] marking the visits that lie in target j.  Batches are equal time
    slices of (burn_in, horizon]; each dwell counts toward the batch
    containing its start."""
    batch_len = (horizon - burn_in) / batches
    occ = np.zeros((len(targets), batches))
    totals = np.zeros(batches)
    for arr, dwell, member in blocks:
        eff_start = np.maximum(arr, burn_in)
        eff_dwell = np.minimum(arr + dwell, horizon) - eff_start
        keep = eff_dwell > 0
        if not np.any(keep):
            continue
        dwell_k = eff_dwell[keep]
        bidx = np.clip(((eff_start[keep] - burn_in) / batch_len).astype(int), 0, batches - 1)
        totals += np.bincount(bidx, weights=dwell_k, minlength=batches)
        for j, row in enumerate(member):
            sel = row[keep]
            if np.any(sel):
                occ[j] += np.bincount(bidx[sel], weights=dwell_k[sel], minlength=batches)
    if np.any(totals <= 0):
        raise PreconditionError("a batch received no occupation time; use fewer batches")
    warning = None
    if horizon < 10 * burn_in:
        warning = "horizon shorter than 10x burn-in; estimates may be biased"
    return [replace(_result_from_samples(occ[j] / totals, f"occupation of {_target_label(tg)}"),
                    warning=warning) for j, tg in enumerate(targets)]


def occupation_fractions(path: PathSample, targets: Sequence[Target],
                         burn_in: float = 0.0, batches: int = 20) -> list[EstimatorResult]:
    """Time-weighted occupation fraction of each target with batch-means
    standard errors over equal time slices of (burn_in, horizon]."""
    _check_batches(burn_in, path.horizon, batches)
    states = path.states[:-1]
    member = [_membership(states, tg) for tg in targets]
    block = (path.times[:-1], np.diff(path.times), member)
    return _batch_occupation([block], targets, burn_in, path.horizon, batches)


def walk_occupation(speed: SpeedMeasure, h: float, x0: float, horizon: float,
                    seed: int, targets: Sequence[Target],
                    boundary: tuple[str, str] = ("reflect", "reflect"),
                    holding: str = "exponential", burn_in: float = 0.0,
                    batches: int = 20) -> list[EstimatorResult]:
    """Streaming version of ``walk_paths`` followed by ``occupation_fractions``:
    occupation time is accumulated per batch without recording the trajectory,
    so arbitrarily long horizons stay in constant memory.  Dwells are assigned
    to the batch containing their start."""
    _check_horizon(horizon)
    _check_batches(burn_in, horizon, batches)
    chain = build_chain(speed, h, boundary)
    member = [_membership(chain.nodes, tg) for tg in targets]
    blocks = ((arr, dwell, [row[pos] for row in member])
              for pos, arr, dwell in _visit_blocks(chain, x0, horizon, seed, holding))
    return _batch_occupation(blocks, targets, burn_in, horizon, batches)
