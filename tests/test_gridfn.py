"""Piecewise-linear calculus: derivatives, membership, darning of functions."""

import re
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import PreconditionError, Tail, ValidationError

from helpers import (
    adapted_nodes,
    geometry_sets,
    is_adapted_isin,
    random_complement_member,
    random_gridfn,
    random_iset,
    random_subspace_member,
    random_vanishing,
)

seeds = st.integers(0, 10**6)


class TestGridFunction:
    def test_linear_slope(self):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert u.slopes.tolist() == [1.0]

    def test_piecewise_slopes(self):
        u = tf.GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0]))
        assert u.slopes.tolist() == [2.0, 0.0]

    def test_tent_on_adapted_grid(self, svc1):
        grid = tf.adapted_grid(svc1, extra=[0.5])
        vals = np.where(np.isclose(grid, 0.5), 1.0, 0.0)
        u = tf.GridFunction(grid, vals)
        assert u.slopes.tolist() == [0.0, 8.0, -8.0, 0.0]

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValidationError):
            tf.GridFunction(np.array([0.0, 1.0, 0.5]), np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            tf.GridFunction(np.array([0.0, 1.0]), np.zeros(3))

    def test_refine_preserves_function(self, rng):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        r = u.refine([0.25, 0.7])
        assert r.grid.tolist() == [0.0, 0.25, 0.7, 1.0]
        assert r.values.tolist() == [0.0, 0.5, 1.4, 2.0]

    def test_csv_round_trip(self, svc1, rng):
        u = random_subspace_member(rng, svc1)
        back = tf.GridFunction.from_csv(u.to_csv(), iset=svc1)
        assert np.array_equal(back.grid, u.grid)
        assert np.array_equal(back.values, u.values)

    def test_csv_checks_adaptation(self, svc1):
        with pytest.raises(PreconditionError, match="endpoint"):
            tf.GridFunction.from_csv("x,value\n0,0\n1,1\n", iset=svc1)

    def test_csv_header_required(self):
        with pytest.raises(ValidationError):
            tf.GridFunction.from_csv("a,b\n0,0\n1,1\n")

    def test_adapted_grid_contains_h(self, svc2):
        grid = tf.adapted_grid(svc2, extra=[0.9])
        for p in svc2.endpoints:
            assert float(p) in grid.tolist()
        assert 0.9 in grid.tolist()

    def test_span_slack_scales_with_the_span(self):
        # points within 1e-12 of the span's length (at least 1) count as on it,
        # both when evaluated and when refined onto
        u = tf.GridFunction(np.array([-3.0, 0.5, 7.0]), np.array([1.0, 0.0, 2.0]))
        assert u(7.0 + 1e-11) == 2.0 and u.refine([-3.0 - 1e-11]).grid[0] == -3.0
        with pytest.raises(PreconditionError, match="outside the span"):
            u(7.0 + 2e-11)
        with pytest.raises(PreconditionError, match="inside the span"):
            u.refine([-3.0 - 2e-11])


def _array_values(iset):
    """One of each value type that holds arrays, on ``iset``."""
    u = tf.from_callable(np.sin, iset)
    speed = tf.trace_measure(iset)
    return [u, tf.restrict_to_f(u, iset), next(tf.bm_paths(1, 0.1, 1.0, 0.0, seed=1)),
            tf.build_chain(speed, 1 / 64), tf.exit_sample(iset, 0.5, 10, seed=1),
            tf.project_subspace(u, tf.ScaleFunction(iset))]


def test_values_holding_arrays_compare_by_identity(svc1):
    """``==`` and ``hash`` of a value holding arrays are those of the object:
    comparing the arrays elementwise would give no single truth value."""
    values = _array_values(svc1)
    assert [type(v).__name__ for v in values] == ["GridFunction", "TraceFunction", "PathSample",
                                                  "WalkChain", "ExitSample", "Decomposition"]
    for a, b in zip(values, _array_values(svc1)):
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert isinstance(hash(a), int) and hash(a) == hash(a)
        assert a in {a} and b not in {a}


class TestAdaptation:
    """``is_adapted`` and the missing-node check against their former
    ``np.isin`` forms, on grids that are adapted, lack one required node, or
    have one required node moved by one ulp."""

    @settings(max_examples=150, deadline=None)
    @given(geometry_sets, seeds, st.sampled_from(["adapted", "drop", "ulp"]))
    def test_matches_isin_form(self, iset, seed, kind):
        rng = np.random.default_rng(seed)
        grid = random_gridfn(rng, iset).grid.copy()
        required = adapted_nodes(iset)
        assert np.array_equal(tf.adapted_grid(iset), required)
        i = int(np.searchsorted(grid, required[rng.integers(required.size)]))
        changed = kind == "ulp" or (kind == "drop" and grid.size > 2)
        if kind == "drop" and changed:
            grid = np.delete(grid, i)
        elif kind == "ulp":
            grid[i] = np.nextafter(grid[i], (-np.inf, np.inf)[int(rng.integers(2))])
            if not np.all(np.diff(grid) > 0):
                return
        u = tf.GridFunction(grid, np.zeros(grid.size))
        assert tf.gridfn.is_adapted(u, iset) is is_adapted_isin(u, iset) is not changed
        missing = required[~np.isin(required, grid)]
        assert np.array_equal(tf.gridfn._missing_nodes(grid, iset), missing)

    def test_adapted_grid_is_fresh_and_writable(self, svc2):
        grid = tf.adapted_grid(svc2)
        grid[0] = -1.0
        assert tf.adapted_grid(svc2)[0] == 0.0
        assert 0.5 in tf.adapted_grid(svc2, extra=[0.5]) and 0.5 not in tf.adapted_grid(svc2)


class TestSubspaceMembership:
    def test_gap_bridge_is_member(self, svc1):
        u = tf.GridFunction(np.array([0.0, 3 / 8, 5 / 8, 1.0]),
                            np.array([0.0, 0.0, 1.0, 1.0]))
        assert tf.is_in_subspace(u, svc1)

    def test_identity_is_not_member(self, svc1):
        u = tf.from_callable(lambda xs: xs, svc1)
        assert not tf.is_in_subspace(u, svc1)

    def test_zero_is_member(self, svc1):
        u = tf.from_callable(lambda xs: xs * 0.0, svc1)
        assert tf.is_in_subspace(u, svc1)

    def test_unadapted_grid_rejected(self, svc1):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(PreconditionError):
            tf.is_in_subspace(u, svc1)

    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds)
    def test_random_members_pass(self, s1, s2):
        iset = random_iset(np.random.default_rng(s1))
        u = random_subspace_member(np.random.default_rng(s2), iset)
        assert tf.is_in_subspace(u, iset)

    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds)
    def test_vanishing_functions(self, s1, s2):
        iset = random_iset(np.random.default_rng(s1))
        u = random_vanishing(np.random.default_rng(s2), iset)
        assert tf.vanishes_on_f(u, iset)
        assert tf.is_in_subspace(u, iset)

    def test_rounded_endpoint_value_counts_on_f(self):
        # float(2/3) rounds into the gap (1/3, 2/3) but is its right end, a point of F
        iset = tf.build_interval_set([(Fr(1, 3), Fr(2, 3))], (0, 1))
        u = tf.GridFunction(np.array([0.0, 1 / 3, 0.5, 2 / 3, 1.0]),
                            np.array([0.0, 0.0, 1.0, 5.0, 0.0]))
        assert not tf.vanishes_on_f(u, iset)
        with pytest.raises(PreconditionError, match="does not vanish on F"):
            tf.part_energy(u, iset=iset)


class TestDarnUndarn:
    def test_worked_example(self, svc1):
        u = tf.GridFunction(np.array([0.0, 3 / 8, 5 / 8, 1.0]),
                            np.array([0.0, 1.0, 1.0, 2.0]))
        uh = tf.darn_function(u, tf.DarningMap(svc1, z=0))
        assert uh.grid.tolist() == [0.0, 3 / 8, 3 / 4]
        assert uh.values.tolist() == [0.0, 1.0, 2.0]

    def test_undarn_constant(self, svc1):
        dm = tf.DarningMap(svc1, z=0)
        uh = tf.GridFunction(np.array([0.0, 3 / 8, 3 / 4]), np.full(3, 5.0))
        u = tf.undarn_function(uh, dm)
        assert np.all(u.values == 5.0)

    def test_undarn_matches_collapsed_points_within_tolerance(self, svc1):
        # a node 5e-13 off the collapsed point stands for the whole gap
        dm = tf.DarningMap(svc1, z=0)
        uh = tf.GridFunction(np.array([0.0, 3 / 8 + 5e-13, 3 / 4]), np.array([1.0, 2.0, 3.0]))
        u = tf.undarn_function(uh, dm)
        assert u.grid.tolist() == [0.0, 3 / 8, 5 / 8, 1.0]

    def test_round_trip_identity(self, rng):
        for _ in range(20):
            # darning needs functions constant on component closures (Cases I/II)
            iset = random_iset(rng, case="I" if rng.random() < 0.5 else "II")
            sf = tf.ScaleFunction(iset, anchor=iset.window[0])
            u = random_complement_member(rng, sf)
            dm = tf.DarningMap(iset)
            back = tf.undarn_function(tf.darn_function(u, dm), dm)
            assert np.allclose(back.grid, u.grid, atol=1e-12)
            assert np.allclose(back.values, u.values, atol=1e-12)

    def test_gap_with_rounded_ends_collapses_once(self):
        # float(43/240) and float(19/24) are the rounded ends of one gap: both
        # go to its one collapsed point, not to two images an ulp apart
        iset = tf.build_interval_set([(Fr(43, 240), Fr(19, 24))], (0, 1),
                                     tails=(Tail.ALL_F, Tail.ALL_G))
        dm = tf.DarningMap(iset)
        u = tf.GridFunction(tf.adapted_grid(iset), np.array([0.3, 1.0, 1.0 + 5e-10, 0.0]))
        uh = tf.darn_function(u, dm)
        assert uh.grid.tolist() == [0.0, float(Fr(43, 240)), float(Fr(93, 240))]
        assert uh.values.tolist() == [0.3, 1.0, 0.0]
        assert tf.darned_energy(uh).value == pytest.approx(tf.dirichlet_energy(u).value, rel=1e-8)
        assert tf.equivalence_report([u], dm, tol=1e-6).ok

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_one_node_per_gap_closure(self, seed):
        rng = np.random.default_rng(seed)
        iset = random_iset(rng, case="I" if seed % 2 else "II")
        u = random_complement_member(rng, tf.ScaleFunction(iset, anchor=iset.window[0]))
        dm = tf.DarningMap(iset)
        uh = tf.darn_function(u, dm)
        assert uh.grid.size == u.grid.size - len(iset.components)
        # every node of uh comes back exactly: no node an ulp off a gap end
        back = tf.undarn_function(uh, dm)
        assert np.array_equal(back.grid, u.grid)
        assert np.allclose(back.values, u.values, rtol=0, atol=1e-12)

    def test_nonconstant_rejected_names_component(self, svc1):
        u = tf.from_callable(lambda xs: xs, svc1)
        with pytest.raises(PreconditionError, match="component 0"):
            tf.darn_function(u, tf.DarningMap(svc1, z=0))

    def test_undarn_derivative_structure(self, rng):
        # slopes transport: u' = uh' o j on F-cells and 0 on G-cells
        iset = tf.svc_complement(2, tails=(tf.Tail.ALL_G, tf.Tail.ALL_G))
        dm = tf.DarningMap(iset)
        sf = tf.ScaleFunction(iset)
        uh = tf.darn_function(random_complement_member(rng, sf), dm)
        u = tf.undarn_function(uh, dm)
        mids = (u.grid[:-1] + u.grid[1:]) / 2
        for k, mid in enumerate(mids):
            if iset.in_g(mid):
                assert u.slopes[k] == pytest.approx(0.0, abs=1e-12)
            else:
                y = float(dm(mid))
                cell = np.searchsorted(uh.grid, y, side="right") - 1
                cell = min(max(cell, 0), len(uh.slopes) - 1)
                assert u.slopes[k] == pytest.approx(uh.slopes[cell], rel=1e-12, abs=1e-12)


class TestJointMembership:
    """Subspace and complement can only meet in constants.

    In Case III the complement admits a nonzero constant G-slope, so the
    window surrogate of the extended-space boundary condition (equal
    window-edge values) is added there.
    """

    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds, st.sampled_from(["I", "II"]))
    def test_cases_one_two(self, s1, s2, case):
        iset = random_iset(np.random.default_rng(s1), case=case)
        sf = tf.ScaleFunction(iset, anchor=iset.window[0])
        u = random_subspace_member(np.random.default_rng(s2), iset)
        if tf.is_in_complement(u, sf):
            assert np.ptp(u.values) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds)
    def test_case_three_with_pinned_edges(self, s1, s2):
        iset = random_iset(np.random.default_rng(s1), case="III")
        sf = tf.ScaleFunction(iset, anchor=iset.window[0])
        u = random_subspace_member(np.random.default_rng(s2), iset)
        if tf.is_in_complement(u, sf) and abs(u.values[0] - u.values[-1]) <= 1e-12:
            assert np.ptp(u.values) <= 1e-9

    def test_case_three_counterexample_is_honest(self, svc1):
        # scale function itself: flat on F, slope one on G; in both classes
        sf = tf.ScaleFunction(svc1, anchor=0)
        u = tf.from_callable(lambda xs: [float(sf(x)) for x in xs], svc1)
        assert tf.is_in_subspace(u, svc1)
        assert tf.is_in_complement(u, sf)
        assert np.ptp(u.values) > 0.1


# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    "extra node outside the window": (lambda: tf.adapted_grid(tf.svc_complement(1), [2.0]),
                                      PreconditionError, "extra nodes must lie inside the window"),
    "undarned span mismatch": (
        lambda: tf.undarn_function(tf.GridFunction([0.0, 1.0], [0.0, 1.0]),
                                   tf.DarningMap(tf.svc_complement(1), z=0)),
        PreconditionError, "does not match the darning image"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()


def _undarned_without_gaps():
    dm = tf.DarningMap(tf.build_interval_set([], (0, 1)), z=0)
    u = tf.undarn_function(tf.GridFunction([0.0, 1.0], [0.0, 2.0]), dm)
    return u.grid.tolist(), u.values.tolist()


# (call, what it gives): an input for each line of the module that no other
# test reaches
REACHED = {
    "undarning through a map without a collapsed gap": (_undarned_without_gaps,
                                                        ([0.0, 1.0], [0.0, 2.0])),
}


@pytest.mark.parametrize("call, want", REACHED.values(), ids=list(REACHED))
def test_reached(call, want):
    assert call() == want
