"""Path sampling: exit estimators, speed-measure walks, occupation batching."""

import math
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
import traceform.simulate as simulate
from traceform import PreconditionError, StepCapError, Tail, TraceformError
from traceform.simulate import (
    EXIT_CHUNK,
    EXIT_TILE,
    OVERSHOOT,
    _exit_chunk,
    _exit_samples,
    bm_paths,
    build_chain,
    default_exit_dt,
    estimate_hitting,
    estimate_laplace,
    exit_sample,
    occupation_fractions,
    simulate_xs,
    walk_occupation,
    walk_paths,
)

from helpers import (ZeroSteps, chain_holds_loop, chain_stationary, exit_chunk_untiled,
                     former_exit_estimates, geometry_sets, speed_measures)


def _run_chunk(a, b, x0, m, dt, rng, shift):
    """Step one ``_exit_chunk`` of m paths to its end in scratch of EXIT_TILE
    rows; its (left, tau)."""
    left, tau = np.empty(m, dtype=bool), np.empty(m)
    chunk = _exit_chunk(a, b, x0, dt, rng, shift, left, tau)
    next(chunk)
    shape = (simulate.EXIT_TILE, simulate.EXIT_BLOCK)
    scratch = (np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
    try:
        while True:
            chunk.send(scratch)
    except StopIteration:
        return left, tau


def _lebesgue_speed(svc):
    dm = tf.DarningMap(svc, z=0)
    return tf.pushforward_speed(dm, "lebesgue")


class TestBmPaths:
    def test_deterministic_per_seed(self):
        a = [p.states for p in bm_paths(3, 0.01, 0.05, 1.5, seed=7)]
        b = [p.states for p in bm_paths(3, 0.01, 0.05, 1.5, seed=7)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = [p.states for p in bm_paths(3, 0.01, 0.05, 1.5, seed=8)]
        assert not np.array_equal(a[0], c[0])

    def test_start_and_grid(self):
        p = next(iter(bm_paths(1, 0.01, 0.05, 1.5, seed=7)))
        assert p.states[0] == 1.5
        assert p.times == pytest.approx(np.arange(6) * 0.01, abs=1e-15)
        assert np.all(p.flags == 0)
        assert p.absorbed_at is None

    def test_zero_horizon(self):
        p = next(iter(bm_paths(1, 0.01, 0.0, 0.25, seed=1)))
        assert p.times.tolist() == [0.0]
        assert p.states.tolist() == [0.25]

    def test_terminal_variance(self):
        ends = np.array([p.states[-1] for p in bm_paths(4000, 0.01, 1.0, 0.0, seed=3)])
        # Var(X_1) = 1; sample variance of 4000 draws has sd ~ sqrt(2/4000)
        assert ends.var() == pytest.approx(1.0, abs=4 * math.sqrt(2 / 4000))
        assert abs(ends.mean()) <= 4 / math.sqrt(4000)

    def test_increment_variance(self):
        p = next(iter(bm_paths(1, 0.001, 10.0, 0.0, seed=8)))
        inc = np.diff(p.states)
        assert inc.var() == pytest.approx(0.001, rel=4 * math.sqrt(2 / inc.size))


class TestExitEstimators:
    def test_default_dt(self):
        assert default_exit_dt(1.0) == pytest.approx((1.0 / 50) ** 2, rel=1e-15)
        assert default_exit_dt(0.25) == pytest.approx(2.5e-5, rel=1e-15)

    def test_midpoint_split(self, svc1):
        left, right = estimate_hitting(svc1, 0.5, 2000, seed=11)
        assert left.estimate + right.estimate == 1.0
        assert left.n == right.n == 2000
        assert left.estimate == pytest.approx(0.5, abs=4 * left.stderr)
        assert left.stderr > 0
        assert left.target == "exit at 0.375 (left endpoint)"
        assert right.target == "exit at 0.625 (right endpoint)"

    def test_off_center_start(self, svc1):
        left, right = estimate_hitting(svc1, 0.4, 2000, seed=13)
        assert left.estimate == pytest.approx(0.9, abs=4 * max(left.stderr, 1e-3))
        assert right.estimate == pytest.approx(0.1, abs=4 * max(right.stderr, 1e-3))

    def test_start_in_f_rejected(self, svc1):
        with pytest.raises(PreconditionError, match="lies in F"):
            estimate_hitting(svc1, 0.2, 10, seed=1)
        with pytest.raises(PreconditionError, match="lies in F"):
            estimate_hitting(svc1, 1.5, 10, seed=1)

    def test_workers_do_not_change_the_stream(self, svc1):
        a = estimate_hitting(svc1, 0.5, 2000, seed=11, workers=1)
        b = estimate_hitting(svc1, 0.5, 2000, seed=11, workers=3)
        assert a[0].estimate == b[0].estimate
        assert a[1].estimate == b[1].estimate
        assert a[0].stderr == b[0].stderr

    def test_laplace_at_zero_matches_hitting(self, svc1):
        h = estimate_hitting(svc1, 0.5, 2000, seed=11)
        l = estimate_laplace(svc1, 0.5, 0.0, 2000, seed=11)
        assert l[0].estimate == h[0].estimate
        assert l[1].estimate == h[1].estimate

    def test_laplace_against_closed_form(self, svc1):
        p_true, q_true = tf.alpha_hitting(svc1, 0, 2.0, 0.5)
        left, right = estimate_laplace(svc1, 0.5, 2.0, 4000, seed=5, correct=True)
        assert left.estimate == pytest.approx(p_true, abs=4 * left.stderr)
        assert right.estimate == pytest.approx(q_true, abs=4 * right.stderr)
        assert left.target == "exp(-2.0 tau) on exit at 0.375 (left endpoint)"

    def test_laplace_large_alpha_decays(self, svc1):
        left, right = estimate_laplace(svc1, 0.5, 1e3, 1000, seed=5)
        assert 0.0 <= left.estimate < 0.02
        assert 0.0 <= right.estimate < 0.02

    def test_default_workers_match_one_worker(self, svc1):
        a = estimate_laplace(svc1, 0.45, 1.0, 3000, seed=2, workers=1)
        b = estimate_laplace(svc1, 0.45, 1.0, 3000, seed=2)
        assert a == b

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, svc1, workers):
        with pytest.raises(PreconditionError, match="workers must be at least 1"):
            estimate_hitting(svc1, 0.5, 100, seed=1, workers=workers)

    def test_empty_sample_rejected(self, svc1):
        with pytest.raises(PreconditionError, match="at least 1"):
            estimate_hitting(svc1, 0.5, 0, seed=1)


class TestExitSample:
    """One sample, read for every question: each reduction equals the
    estimator that asks it, and the former draw-per-question form, field for field."""

    @pytest.mark.parametrize("workers", [1, 2, None])
    @pytest.mark.parametrize("correct", [False, True])
    def test_reductions_match_the_estimators(self, svc1, monkeypatch, workers, correct):
        monkeypatch.setattr(simulate, "EXIT_CHUNK", 1024)  # three chunks
        args = (svc1, 0.45, 3000, 8)
        kw = dict(correct=correct, workers=workers)
        sample = exit_sample(*args, **kw)
        assert (sample.a, sample.b) == (0.375, 0.625)
        assert sample.hitting() == estimate_hitting(*args, **kw)
        assert sample.hitting() == former_exit_estimates(*args, **kw)
        x0, n, seed = args[1:]
        for alpha in (0, 0.5, 2.0, 1e3):  # several alphas from one sample
            got = sample.laplace(alpha)
            assert got == estimate_laplace(svc1, x0, alpha, n, seed, **kw)
            assert got == former_exit_estimates(*args, **kw, alpha=alpha)

    @pytest.mark.parametrize("alpha", [-1.0, -1e-300, math.inf, math.nan])
    def test_bad_alpha_rejected(self, svc1, alpha):
        sample = exit_sample(svc1, 0.5, 100, 1)
        with pytest.raises(PreconditionError, match="alpha must be nonnegative and finite"):
            sample.laplace(alpha)

    def test_bad_alpha_reported_before_drawing(self, svc1, monkeypatch):
        draws = []
        monkeypatch.setattr(simulate, "_exit_samples", lambda *a: draws.append(a))
        for alpha in (-1.0, math.inf):
            with pytest.raises(PreconditionError, match="alpha must be"):
                estimate_laplace(svc1, 0.2, alpha, 100, seed=1)  # 0.2 lies in F
        with pytest.raises(PreconditionError, match="lies in F"):
            exit_sample(svc1, 0.2, 100, seed=1)
        assert draws == []


class TestExitEngine:
    """The stepping engine against the untiled oracle in ``helpers``, bit for bit."""

    @staticmethod
    def _both(m, seed, correct, dt=(1 / 40) ** 2):
        shift = OVERSHOOT * math.sqrt(dt) if correct else 0.0
        got = _run_chunk(0.0, 1.0, 0.3, m, dt, np.random.default_rng(seed), shift)
        want = exit_chunk_untiled(0.0, 1.0, 0.3, m, dt, np.random.default_rng(seed), shift)
        return got, want

    @pytest.mark.parametrize("tile", [1, 7, EXIT_TILE, 2048, 4096])
    @pytest.mark.parametrize("correct", [False, True])
    def test_tiles_match_the_untiled_oracle(self, monkeypatch, tile, correct):
        monkeypatch.setattr(simulate, "EXIT_TILE", tile)
        for m in sorted({max(1, tile - 5), tile, 2 * tile + 3}):  # below, at, past a multiple
            (left, tau), (want_left, want_tau) = self._both(m, seed=m, correct=correct)
            assert left.dtype == want_left.dtype and tau.dtype == want_tau.dtype
            assert np.array_equal(left, want_left), (tile, m)
            assert np.array_equal(tau, want_tau), (tile, m)
            assert np.all(tau > 0)

    @pytest.mark.parametrize("tile", [EXIT_TILE, 2048, 4096])
    @pytest.mark.parametrize("correct", [False, True])
    def test_several_chunks_match_the_oracle(self, monkeypatch, tile, correct):
        monkeypatch.setattr(simulate, "EXIT_TILE", tile)
        n, seed, dt = 2 * EXIT_CHUNK + 123, 41, 1e-3
        shift = OVERSHOOT * math.sqrt(dt) if correct else 0.0
        parts = [exit_chunk_untiled(0.0, 1.0, 0.3, min(EXIT_CHUNK, n - c), dt,
                                    np.random.default_rng(seed ^ (c // EXIT_CHUNK)), shift)
                 for c in range(0, n, EXIT_CHUNK)]
        want_left = np.concatenate([p[0] for p in parts])
        want_tau = np.concatenate([p[1] for p in parts])
        for workers in (1, 2, None):
            left, tau = _exit_samples(0.0, 1.0, 0.3, n, dt, seed, correct, workers)
            assert np.array_equal(left, want_left), workers
            assert np.array_equal(tau, want_tau), workers

    def test_slices_under_frequent_thread_switches(self, monkeypatch):
        # more threads than cores, switching every few microseconds, each
        # writing its chunks into their own slices of the one sample; the
        # last chunk is short
        monkeypatch.setattr(simulate, "EXIT_CHUNK", 256)
        monkeypatch.setattr(simulate, "EXIT_TILE", 16)
        n, seed, dt = 20 * 256 + 17, 9, 1e-3
        parts = [exit_chunk_untiled(0.0, 1.0, 0.3, min(256, n - c), dt,
                                    np.random.default_rng(seed ^ (c // 256)), 0.0)
                 for c in range(0, n, 256)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            left, tau = _exit_samples(0.0, 1.0, 0.3, n, dt, seed, False, 5)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(left, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(tau, np.concatenate([p[1] for p in parts]))

    def test_step_cap_is_a_typed_error(self):
        with pytest.raises(StepCapError, match="step cap") as info:
            _run_chunk(0.0, 1.0, 0.5, 5, 1e-3, ZeroSteps(), 0.0)
        # older handlers that catch RuntimeError still see it
        assert isinstance(info.value, RuntimeError)
        assert isinstance(info.value, TraceformError)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_one_spare_chunk_in_flight(self, monkeypatch, workers):
        live, peak, lock = [0], [0], threading.Lock()

        def counted(*args):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            yield from _exit_chunk(*args)
            with lock:
                live[0] -= 1

        monkeypatch.setattr(simulate, "EXIT_CHUNK", 256)
        monkeypatch.setattr(simulate, "EXIT_TILE", 16)  # chunks queue for about five blocks
        args = (0.0, 1.0, 0.4, 10 * 256, 1e-3, 5, False)
        want = _exit_samples(*args, 1)
        monkeypatch.setattr(simulate, "_exit_chunk", counted)
        left, tau = _exit_samples(*args, workers)
        assert peak[0] == workers + 1 and live[0] == 0
        assert np.array_equal(left, want[0]) and np.array_equal(tau, want[1])

    @pytest.mark.parametrize("stuck", ["caller", "helper"])
    def test_step_cap_in_a_worker_reaches_the_caller(self, monkeypatch, stuck):
        # the first chunk started on the named thread never moves; a chunk of
        # 64 paths stays on the thread that starts it, below one tile
        caller, calls, finished, stuck_on = threading.get_ident(), [], [], []

        def one_stuck(a, b, x0, dt, rng, shift, left, tau):
            calls.append(left.size)
            here = threading.get_ident()
            if not stuck_on and (here == caller) == (stuck == "caller"):
                stuck_on.append(here)  # the cap of 10,000 steps is hit
                yield from _exit_chunk(a, b, x0, 0.05, ZeroSteps(), shift, left, tau)
            else:
                yield from _exit_chunk(a, b, x0, dt, rng, shift, left, tau)
                finished.append(left.size)

        monkeypatch.setattr(simulate, "EXIT_CHUNK", 64)
        monkeypatch.setattr(simulate, "_exit_chunk", one_stuck)
        before = threading.active_count()
        with pytest.raises(StepCapError, match="step cap"):
            # a regular chunk needs thousands of blocks at this dt
            _exit_samples(0.0, 1.0, 0.5, 20 * 64, 1e-6, 3, False, 2)
        assert threading.active_count() == before
        assert len(stuck_on) == 1 and (stuck_on[0] == caller) == (stuck == "caller")
        assert len(calls) <= 3 and not finished  # the other worker stopped

    def test_a_helper_that_cannot_start_stops_the_started_ones(self, monkeypatch):
        start, starts, finished = threading.Thread.start, [], []

        def second_fails(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        def counted(*args):
            yield from _exit_chunk(*args)
            finished.append(1)

        monkeypatch.setattr(simulate, "EXIT_CHUNK", 64)
        monkeypatch.setattr(simulate, "_exit_chunk", counted)
        monkeypatch.setattr(threading.Thread, "start", second_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            # all 20 chunks would take the first helper seconds at this dt
            _exit_samples(0.0, 1.0, 0.5, 20 * 64, 1e-6, 3, False, 3)
        assert threading.active_count() == before and len(finished) < 20

    @staticmethod
    def _stepping_threads(monkeypatch, workers):
        """The threads that start or step a chunk of a 20-chunk sample, in
        chunks that queue for about five blocks, and that sample's (left, tau)."""
        threads = []

        def traced(*args):
            chunk = _exit_chunk(*args)
            survivors = next(chunk)
            threads.append(threading.get_ident())
            while True:
                scratch = yield survivors
                threads.append(threading.get_ident())
                try:
                    survivors = chunk.send(scratch)
                except StopIteration:
                    return

        monkeypatch.setattr(simulate, "EXIT_CHUNK", 256)
        monkeypatch.setattr(simulate, "EXIT_TILE", 16)
        monkeypatch.setattr(simulate, "_exit_chunk", traced)
        sample = _exit_samples(0.0, 1.0, 0.4, 20 * 256, 1e-3, 5, False, workers)
        return set(threads), sample

    def test_one_worker_is_the_calling_thread(self, monkeypatch):
        before = threading.active_count()
        threads, _ = self._stepping_threads(monkeypatch, 1)
        assert threads == {threading.get_ident()}
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_caller_is_one_of_the_workers(self, monkeypatch, workers):
        threads, (left, tau) = self._stepping_threads(monkeypatch, workers)
        assert threading.get_ident() in threads and len(threads) <= workers
        _, (want_left, want_tau) = self._stepping_threads(monkeypatch, 1)
        assert np.array_equal(left, want_left) and np.array_equal(tau, want_tau)

    def test_import_starts_no_thread_pool_or_logging(self):
        # the engine runs on plain threads: importing the package loads
        # neither concurrent.futures nor the logging it imports
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(simulate.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        code = ("import sys, traceform; "
                "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_traced_peak_is_the_sample_one_buffer_and_scratch(self, monkeypatch):
        # small chunks and tiles, so that the arrays of all n paths and not
        # the scratch set the peak: the sample, one reduction buffer, each
        # thread's step buffer and two test masks, and the positions and
        # indices of the live chunks with their compacted copies
        chunk, tile, workers, n = 1024, 64, 2, 1 << 17
        monkeypatch.setattr(simulate, "EXIT_CHUNK", chunk)
        monkeypatch.setattr(simulate, "EXIT_TILE", tile)
        gap = tf.build_interval_set([(0, 1)], (0, 1))
        args = (gap, 0.3)
        kw = dict(seed=7, dt=(1 / 40) ** 2, correct=True, workers=workers)
        estimate_hitting(*args, 100, **kw)  # first-call imports are not the engine's
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            estimate_hitting(*args, n, **kw)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        sample, reduction = n * (1 + 8), n * 8
        scratch = tile * simulate.EXIT_BLOCK * (8 + 1 + 1)
        live = chunk * 2 * (8 + 8 + 1)
        assert peak < sample + reduction + workers * scratch + (workers + 1) * live


class TestBuildChain:
    def test_step_must_divide(self, svc1):
        with pytest.raises(PreconditionError, match="must divide the carrier length"):
            build_chain(_lebesgue_speed(svc1), h=0.3)

    def test_step_bounded_by_atom_spacing(self, svc2):
        with pytest.raises(PreconditionError, match="exceeds the smallest atom spacing"):
            build_chain(_lebesgue_speed(svc2), h=5 / 16)

    def test_reads_no_exact_atoms(self):
        # the spacing check, the snapping and the holds read the float atom arrays
        speed = tf.pushforward_speed(tf.DarningMap(tf.svc_complement(14)), "lebesgue")
        lo, hi = (float(x) for x in speed.carrier)
        build_chain(speed, (hi - lo) / 2**17)
        assert "atoms" not in speed.__dict__
        # and the holds and the darned L2 norm read the float piece table too
        speed = tf.trace_measure(tf.svc_complement(6))
        chain = build_chain(speed, 2**-12)
        tf.darning.darned_l2(tf.GridFunction(chain.nodes, np.cos(chain.nodes)), speed)
        assert "density_pieces" not in speed.__dict__ and "atoms" not in speed.__dict__

    def test_tent_holds(self, svc1):
        h = 3 / 128
        chain = build_chain(_lebesgue_speed(svc1), h=h)
        assert chain.lo == 0.0 and chain.h == h and len(chain.nodes) == 33
        assert chain.atom_nodes == (16,)
        assert chain.holds[1] == pytest.approx(h * h, rel=1e-12)
        # atom adds mass * h to the tent integral
        assert chain.holds[16] == pytest.approx(h * h + h * 0.25, rel=1e-12)
        # reflecting ends fold the tent, so edge nodes hold a full h^2 too
        assert chain.holds[0] == pytest.approx(h * h, rel=1e-12)
        assert chain.holds[-1] == pytest.approx(h * h, rel=1e-12)
        assert not chain.absorbing.any()

    def test_infinite_atoms_absorb(self, svc1_allg):
        speed = tf.pushforward_speed(tf.DarningMap(svc1_allg), "lebesgue")
        chain = build_chain(speed, h=3 / 128)
        assert np.where(chain.absorbing)[0].tolist() == [0, 32]
        assert chain.atom_nodes == (0, 16, 32)

    def test_first_collision_in_atom_order(self):
        # atoms half a step either side of nodes 0.5 and 1.5 snap together;
        # the error names the node of the first atom to land on a taken one
        atoms = ((0.375, 1.0), (1.375, 1.0), (1.625, 1.0), (0.625, 1.0))
        speed = tf.SpeedMeasure((0.0, 2.0), ((0.0, 2.0, 1),), atoms)
        with pytest.raises(PreconditionError, match="same grid node 1.5;"):
            build_chain(speed, 0.25)

    @settings(max_examples=40, deadline=None)
    @given(geometry_sets, st.integers(0, 2), st.integers(1, 3),
           st.sampled_from(["reflect", "absorb"]), st.sampled_from(["reflect", "absorb"]))
    def test_holds_match_node_loop(self, iset, kind, per_spacing, left, right):
        # a step that divides the carrier and fits between the atoms
        speeds = speed_measures(iset)
        speed = speeds[kind % len(speeds)]
        lo, hi = (float(x) for x in speed.carrier)
        positions = np.sort([float(p) for p, _ in speed.atoms])
        spacing = np.diff(positions).min(initial=hi - lo)
        if (hi - lo) * per_spacing > 2000 * spacing:
            return  # too many nodes for the loop
        n = math.ceil((hi - lo) / spacing) * per_spacing
        try:
            chain = build_chain(speed, (hi - lo) / n, (left, right))
        except PreconditionError:
            return  # atoms half a step either side of a node
        holds, absorbing = chain_holds_loop(speed, (hi - lo) / n, (left, right))
        assert np.array_equal(chain.holds, holds)
        assert np.array_equal(chain.absorbing, absorbing)


class TestWalks:
    def test_deterministic_per_seed(self, svc1):
        speed = _lebesgue_speed(svc1)
        a = walk_paths(speed, 3 / 128, 0.1, 100.0, seed=9)
        b = walk_paths(speed, 3 / 128, 0.1, 100.0, seed=9)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_start_snaps_to_grid(self, svc1):
        p = walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1003, 1.0, seed=9)
        assert p.states[0] == pytest.approx(0.09375, abs=1e-15)

    def test_deterministic_holding_uses_mean_holds(self, svc1):
        speed = _lebesgue_speed(svc1)
        chain = build_chain(speed, 3 / 128)
        p = walk_paths(speed, 3 / 128, 0.1, 100.0, seed=9, holding="deterministic")
        dwells = set(np.round(np.diff(p.times), 15).tolist())
        allowed = {round(float(x), 15) for x in chain.holds}
        # every dwell is a mean hold except the final one truncated at horizon
        assert len(dwells - allowed) <= 1

    def test_unknown_holding_mode(self, svc1):
        with pytest.raises(PreconditionError, match="holding must be"):
            walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1, 10.0, seed=9, holding="weird")

    @pytest.mark.parametrize("walk", [
        lambda speed: walk_paths(speed, 1 / 4, 0.5, 1.0, seed=1),
        lambda speed: walk_occupation(speed, 1 / 4, 0.5, 1.0, 1, [0.5], batches=2),
    ], ids=["walk_paths", "walk_occupation"])
    def test_zero_hold_walk_is_refused(self, walk):
        # no node holds the walk and none absorbs it, so its clock never
        # advances; such a walk used to run forever, hence the alarm
        def stop(signum, frame):
            raise TimeoutError("the walk did not return within 20 s")

        former = signal.signal(signal.SIGALRM, stop)
        signal.alarm(20)
        try:
            with pytest.raises(PreconditionError) as err:
                walk(tf.SpeedMeasure((0, 1), ((0, 1, 0),), ()))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, former)
        assert str(err.value) == ("no grid node holds the walk or absorbs it, "
                                  "so its clock never advances")

    def test_zero_hold_walk_ends_at_an_absorbing_end(self):
        p = walk_paths(tf.SpeedMeasure((0, 1), ((0, 1, 0),), ()), 1 / 4, 0.5, 1.0, seed=1,
                       boundary=("absorb", "absorb"))
        assert p.times.tolist() == [0.0, 1.0]
        assert p.flags.tolist() == [2, 2]
        assert p.absorbed_time == 0.0 and p.absorbed_at in (0.0, 1.0)

    def test_absorption_at_infinite_atom(self, svc1_allg):
        speed = tf.pushforward_speed(tf.DarningMap(svc1_allg), "lebesgue")
        p = walk_paths(speed, 3 / 128, 0.1875, 500.0, seed=2)
        assert set(np.unique(p.flags)) <= {0, 2}
        assert p.flags[-1] == 2
        assert p.absorbed_at in (-0.1875, 0.5625)
        assert p.absorbed_time is not None and 0 < p.absorbed_time < 500.0
        tail = p.states[p.times >= p.absorbed_time]
        assert np.all(tail == p.absorbed_at)


class TestOccupation:
    def test_streaming_matches_recorded(self, svc1):
        speed = _lebesgue_speed(svc1)
        stream = walk_occupation(speed, 3 / 128, 0.1, 100.0, seed=9,
                                 targets=[0.375, (0.0, 0.2)], burn_in=10.0)
        path = walk_paths(speed, 3 / 128, 0.1, 100.0, seed=9)
        replay = occupation_fractions(path, targets=[0.375, (0.0, 0.2)], burn_in=10.0)
        for a, b in zip(stream, replay):
            assert a.estimate == pytest.approx(b.estimate, abs=1e-12)
            assert a.stderr == pytest.approx(b.stderr, abs=1e-12)
            assert a.target == b.target

    def test_atom_occupation_matches_chain_law(self, svc1):
        speed = _lebesgue_speed(svc1)
        h = 3 / 128
        chain = build_chain(speed, h)
        pi = chain_stationary(chain)
        res = walk_occupation(speed, h, 0.1, 2000.0, seed=9,
                              targets=[0.375], burn_in=100.0)[0]
        assert res.estimate == pytest.approx(pi[16], abs=4 * res.stderr)

    def test_uniform_law_without_atoms(self):
        speed = tf.SpeedMeasure((0, 1), ((0, 1, 1),), ())
        h = 1 / 16
        pi = chain_stationary(build_chain(speed, h))
        target_mass = float(np.sum(pi[: 9]))  # nodes 0 .. 0.5
        res = walk_occupation(speed, h, 0.5, 1000.0, seed=21,
                              targets=[(0.0, 0.5)], burn_in=50.0)[0]
        assert res.estimate == pytest.approx(target_mass, abs=4 * res.stderr)
        assert target_mass == pytest.approx(0.5, abs=h)

    def test_batch_and_burnin_validation(self, svc1):
        p = walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1, 10.0, seed=9)
        with pytest.raises(PreconditionError, match="at least two batches"):
            occupation_fractions(p, targets=[0.0], batches=1)
        for burn_in in (10.0, math.nan):
            with pytest.raises(PreconditionError, match="burn-in must lie in"):
                occupation_fractions(p, targets=[0.0], burn_in=burn_in)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_horizon_must_be_finite(self, svc1, monkeypatch, horizon):
        def walk(*args, **kwargs):
            raise AssertionError("a walk to this horizon would never end")

        monkeypatch.setattr(simulate, "_visit_blocks", walk)
        with pytest.raises(PreconditionError, match="horizon must be positive and finite"):
            walk_occupation(_lebesgue_speed(svc1), 3 / 128, 0.1, horizon, seed=9,
                            targets=[0.375])

    @pytest.mark.parametrize("target, message", [
        ((1.0, -1.0), "occupation target interval [1.0, -1.0] must satisfy lo <= hi"),
        (math.nan, "occupation target point nan is not a number"),
        ((math.nan, 1.0), "occupation target interval [nan, 1.0] must satisfy lo <= hi"),
        (math.inf, "occupation target point inf is not finite"),
        (-math.inf, "occupation target point -inf is not finite"),
    ], ids=["empty interval", "nan point", "nan interval end", "inf point", "-inf point"])
    def test_target_must_be_a_point_or_a_nonempty_interval(self, svc1, target, message):
        # each used to read as a measured 0.0 +- 0.0
        speed = _lebesgue_speed(svc1)
        p = walk_paths(speed, 3 / 128, 0.1, 10.0, seed=9)
        for occupation in (lambda: occupation_fractions(p, [0.375, target]),
                           lambda: walk_occupation(speed, 3 / 128, 0.1, 10.0, 9, [target])):
            with pytest.raises(PreconditionError) as err:
                occupation()
            assert str(err.value) == message

    @pytest.mark.parametrize("point", [np.int64(0), np.float32(0.375), Fr(3, 8)],
                             ids=["int64", "float32", "Fraction"])
    def test_numpy_scalar_point(self, svc1, point):
        # a numpy scalar was read as an interval and raised a bare TypeError
        speed = _lebesgue_speed(svc1)
        p = walk_paths(speed, 3 / 128, 0.1, 10.0, seed=9)
        assert occupation_fractions(p, [point]) == occupation_fractions(p, [float(point)])
        assert (walk_occupation(speed, 3 / 128, 0.1, 10.0, 9, [point])
                == walk_occupation(speed, 3 / 128, 0.1, 10.0, 9, [float(point)]))

    def test_half_line_target(self, svc1):
        p = walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1, 10.0, seed=9)
        whole = occupation_fractions(p, [(0.0, math.inf)], batches=2)[0]
        assert (whole.estimate, whole.stderr) == (1.0, 0.0)

    def test_short_horizon_warning(self, svc1):
        p = walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1, 100.0, seed=9)
        warn = occupation_fractions(p, targets=[0.375], burn_in=25.0)[0].warning
        assert warn == "horizon shorter than 10x burn-in; estimates may be biased"
        assert occupation_fractions(p, targets=[0.375], burn_in=2.0)[0].warning is None

    def test_absorbed_path_defeats_batching(self, svc1_allg):
        speed = tf.pushforward_speed(tf.DarningMap(svc1_allg), "lebesgue")
        p = walk_paths(speed, 3 / 128, 0.1875, 500.0, seed=2)
        with pytest.raises(PreconditionError, match="no occupation time"):
            occupation_fractions(p, targets=[float(p.absorbed_at)])


class TestTimeChangedProcess:
    def test_occupation_matches_speed_law(self, svc1):
        sf = tf.ScaleFunction(svc1, anchor=0)
        h = 1 / 32
        p = simulate_xs(sf, h=h, x0=0.1, horizon=200.0, seed=4)
        res = occupation_fractions(
            p, targets=[(0.0, 0.375), (0.375, 0.625), (0.625, 1.0)], burn_in=20.0)
        # scale-side chain: plateau atoms weigh h/2 + 3/8 at either end,
        # the gap keeps its seven interior nodes of weight h
        atom_pi = (h / 2 + 3 / 8) / (1 / 4 + 3 / 4)
        gap_pi = 7 * h
        assert res[0].estimate == pytest.approx(atom_pi, abs=4 * res[0].stderr)
        assert res[1].estimate == pytest.approx(gap_pi, abs=4 * res[1].stderr)
        assert res[2].estimate == pytest.approx(atom_pi, abs=4 * res[2].stderr)

    def test_states_and_flags(self, svc1):
        p = simulate_xs(tf.ScaleFunction(svc1, anchor=0), h=1 / 32, x0=0.1,
                        horizon=50.0, seed=4)
        assert set(np.unique(p.flags)) <= {0, 1}
        assert np.all(np.isin(p.states[p.flags == 1], [0.1875, 0.8125]))
        in_gap = p.states[p.flags == 0]
        assert np.all((in_gap >= 0.375) & (in_gap <= 0.625))

    def test_nodes_follow_the_exact_inverse(self):
        # /240 ends: no plateau value is a float, so both node kinds are exercised
        iset = tf.build_interval_set([(Fr(30, 240), Fr(90, 240)), (Fr(120, 240), Fr(200, 240))],
                                     (0, 1))
        sf = tf.ScaleFunction(iset, anchor=0)
        h = 7 / 492  # the plateau at 1/4 sits 0.43 h below node 18
        p = simulate_xs(sf, h=h, x0=0.3, horizon=30.0, seed=7)
        speed = tf.scale_pushforward_speed(sf)
        walk = walk_paths(speed, h, float(sf(0.3)), 30.0, seed=7)
        assert np.array_equal(p.times, walk.times)
        # the node each plateau atom snapped to stands for that plateau
        chain = build_chain(speed, h)
        mids = {k: (float(lo) + float(hi)) / 2
                for k, (lo, hi) in zip(chain.atom_nodes, iset.f_components)}
        nodes = np.rint((walk.states - chain.lo) / h).astype(int).tolist()
        point = {k: mids[k] if k in mids else float(sf.inverse(float(chain.nodes[k]))[0])
                 for k in set(nodes)}
        assert np.array_equal(walk.states, chain.nodes[nodes])
        assert p.states.tolist() == [point[k] for k in nodes]
        assert p.flags.tolist() == [int(k in mids) for k in nodes]

    def test_atom_node_far_from_its_plateau_is_flagged(self):
        # the plateau value 1/4 lies 0.43 h from node 18, where its atom
        # snaps; the node stands for the plateau (3/8, 1/2), not for a point of G
        iset = tf.build_interval_set([(Fr(30, 240), Fr(90, 240)), (Fr(120, 240), Fr(200, 240))],
                                     (0, 1))
        sf = tf.ScaleFunction(iset, anchor=0)
        h = 7 / 492
        p = simulate_xs(sf, h=h, x0=0.3, horizon=30.0, seed=7)
        walk = walk_paths(tf.scale_pushforward_speed(sf), h, float(sf(0.3)), 30.0, seed=7)
        at18 = np.rint(walk.states / h) == 18
        assert at18.sum() > 0
        assert np.all(p.flags[at18] == 1)
        assert np.all(p.states[at18] == 0.4375)

    def test_collapsed_window_rejected(self):
        sf = tf.ScaleFunction(tf.svc_complement(0), anchor=0)
        with pytest.raises(PreconditionError, match="single point"):
            simulate_xs(sf, h=1 / 8, x0=0.1, horizon=1.0, seed=1)


class TestPathCsv:
    def test_round_trip_arrays(self, svc1):
        p = simulate_xs(tf.ScaleFunction(svc1, anchor=0), h=1 / 32, x0=0.1,
                        horizon=20.0, seed=4)
        text = p.to_csv()
        assert text.splitlines()[0] == "t,x,flag"
        back = tf.PathSample.from_csv(text)
        assert np.array_equal(back.times, p.times)
        assert np.array_equal(back.states, p.states)
        assert np.array_equal(back.flags, p.flags)
        assert back.horizon == p.horizon
        assert back.absorbed_at == p.absorbed_at

    def test_bm_path_horizon_is_its_last_grid_time(self):
        # dt = 0.3 does not divide 1.0: the last step lands at 0.9, short of it
        path = next(bm_paths(1, 0.3, 1.0, 0.0, 5))
        assert path.horizon == path.times[-1] < 1.0

    def test_occupation_of_a_bm_path_and_its_csv_agree(self):
        # a horizon the samples do not reach would leave the last batch empty
        path = next(bm_paths(1, 0.3, 1.0, 0.0, 5))
        back = tf.PathSample.from_csv(path.to_csv(), seed=path.seed)
        got = occupation_fractions(path, [(-10, 10)], batches=3)
        assert got == occupation_fractions(back, [(-10, 10)], batches=3)
        assert [r.estimate for r in got] == [1.0]

    @pytest.mark.parametrize("absorbed", [False, True], ids=["unabsorbed", "absorbed"])
    def test_derived_fields_survive_round_trip(self, svc1, svc1_allg, absorbed):
        """A path and its CSV round trip agree in every field, the seed given:
        the horizon is the last sample time, the absorption the first sample
        flagged 2."""
        if absorbed:
            speed = tf.pushforward_speed(tf.DarningMap(svc1_allg), "lebesgue")
            paths = [walk_paths(speed, 3 / 128, 0.1875, 500.0, seed=2),
                     walk_paths(speed, 3 / 128, 0.0, 50.0, seed=3, boundary=("absorb", "reflect"))]
        else:
            paths = [simulate_xs(tf.ScaleFunction(svc1, anchor=0), h=1 / 32, x0=0.1,
                                 horizon=20.0, seed=4),
                     walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1, 30.0, seed=5)]
        for p in paths:
            back = tf.PathSample.from_csv(p.to_csv(), seed=p.seed)
            fields = ("horizon", "absorbed_at", "absorbed_time", "seed")
            assert [getattr(back, f) for f in fields] == [getattr(p, f) for f in fields]
            assert p.horizon == p.times[-1] and (p.absorbed_at is not None) == absorbed
            if absorbed:
                first = int(np.argmax(p.flags == 2))
                assert (p.absorbed_at, p.absorbed_time) == (p.states[first], p.times[first])
                assert p.absorbed_time < p.horizon

    def test_absorption_survives_round_trip(self, svc1_allg):
        speed = tf.pushforward_speed(tf.DarningMap(svc1_allg), "lebesgue")
        p = walk_paths(speed, 3 / 128, 0.1875, 500.0, seed=2)
        back = tf.PathSample.from_csv(p.to_csv())
        assert back.absorbed_at == p.absorbed_at
        assert back.absorbed_time == p.absorbed_time

    @pytest.mark.parametrize("rows, message", [
        ("0,0.5,300\n1,0.5,0\n", "path flag 300 is not 0, 1 or 2"),
        ("0,0.5,0\n1,0.5,7\n", "path flag 7 is not 0, 1 or 2"),
        ("0,0.5,0\nnan,0.5,0\n", "sample times must be finite"),
        ("0,nan,0\n1,0.5,0\n", "path states must be finite"),
        ("0,0.5,0\n1,inf,0\n", "path states must be finite"),
        ("0,-inf,0\n1,0.5,0\n", "path states must be finite"),
    ], ids=["flag 300", "flag 7", "nan time", "nan state", "inf state", "-inf state"])
    def test_refuses_values_it_cannot_hold(self, rows, message):
        with pytest.raises(tf.ValidationError) as err:
            tf.PathSample.from_csv("t,x,flag\n" + rows)
        assert str(err.value) == message

    @pytest.mark.parametrize("times, flags, message", [
        ([0.0, 1.0], [0, 7], "path flag 7 is not 0, 1 or 2"),
        ([0.0, 1.0], [0.5, 0], "path flag 0.5 is not 0, 1 or 2"),
        ([math.nan], [0], "sample times must be finite"),
        ([0.0, math.nan], [0, 0], "sample times must be finite"),
    ], ids=["flag 7", "flag 0.5", "one nan time", "nan time"])
    def test_constructor_refuses_flags_and_times(self, times, flags, message):
        with pytest.raises(tf.ValidationError) as err:
            tf.PathSample(times, [0.0] * len(times), flags, seed=0)
        assert str(err.value) == message


SEEDED_DRAWS = {
    "bm_paths": lambda iset, seed: next(bm_paths(1, 0.1, 1.0, 0.0, seed=seed)),
    "exit": lambda iset, seed: estimate_hitting(iset, 0.5, 10, seed=seed),
    "walk_paths": lambda iset, seed: walk_paths(_lebesgue_speed(iset), 3 / 128, 0.1, 1.0,
                                                seed=seed),
    "simulate_xs": lambda iset, seed: simulate_xs(tf.ScaleFunction(iset, anchor=0), 1 / 32, 0.1,
                                                  1.0, seed=seed),
    "walk_occupation": lambda iset, seed: walk_occupation(_lebesgue_speed(iset), 3 / 128, 0.1,
                                                          1.0, seed, [0.5]),
}
# (seed, test id suffix, message): a float seed used to raise a bare
# TypeError, and True was taken as seed 1
BAD_SEEDS = [(-1, "", "seed must be nonnegative, got -1"),
             (1.5, "-1.5", "seed must be an integer, got 1.5"),
             (True, "-True", "seed must be an integer, got True")]


class TestNegativeSeed:
    @pytest.mark.parametrize("draw, seed, message", [
        pytest.param(draw, seed, message, id=name + suffix)
        for seed, suffix, message in BAD_SEEDS for name, draw in SEEDED_DRAWS.items()])
    def test_raises_precondition_error(self, svc1, draw, seed, message):
        with pytest.raises(PreconditionError) as err:
            draw(svc1, seed)
        assert str(err.value) == message

    def test_numpy_integer_seed(self, svc1):
        a = walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1, 1.0, seed=np.int64(3))
        b = walk_paths(_lebesgue_speed(svc1), 3 / 128, 0.1, 1.0, seed=3)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)


# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    "path lengths differ": (lambda: tf.PathSample([0.0, 1.0], [0.0], [0, 0], seed=1),
                            tf.ValidationError, "must have equal length"),
    "path without a sample": (lambda: tf.PathSample([], [], [], seed=1), tf.ValidationError,
                              "at least one sample"),
    "path times not increasing": (lambda: tf.PathSample([0.0, 0.0], [0.0, 1.0], [0, 0], seed=1),
                                  tf.ValidationError, "strictly increasing"),
    "no bm path": (lambda: next(tf.bm_paths(0, 0.1, 1.0, 0.0, seed=1)), PreconditionError,
                   "need at least one path"),
    "exit start outside the corrected gap": (
        lambda: tf.exit_sample(tf.svc_complement(1), 0.38, 10, 1, dt=0.01, correct=True),
        PreconditionError, "is not interior to the effective gap"),
    "exit step past the float range": (
        lambda: tf.exit_sample(tf.build_interval_set([(-1e200, 1e200)], (-1e200, 1e200)), 0.5, 1,
                               1),
        PreconditionError, "dt must be positive and finite, got inf"),
    "boundary bounce": (lambda: build_chain(tf.SpeedMeasure((0, 1), [(0, 1, 1)]), 0.25,
                                            boundary=("bounce", "reflect")),
                        PreconditionError, "boundary must be 'reflect' or 'absorb'"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()


def _workers_without_affinity():
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "sched_getaffinity", raising=False)
        return simulate._worker_count(None, 10**6)


# (call, what it gives): an input for each line of the module that no other
# test reaches
REACHED = {
    "a result with a warning": (
        lambda: tf.EstimatorResult(0.5, 0.1, 10, "x", warning="biased").to_dict()["warning"],
        "biased"),
    "workers without an affinity API": (_workers_without_affinity, os.cpu_count() or 1),
}


@pytest.mark.parametrize("call, want", REACHED.values(), ids=list(REACHED))
def test_reached(call, want):
    assert call() == want
