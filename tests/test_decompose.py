"""Orthogonal decomposition u = u1 + u2 across the three boundary cases."""

import math
import re
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import PreconditionError, Tail

from helpers import random_gridfn, random_iset, random_subspace_member

seeds = st.integers(0, 10**6)
cases = st.sampled_from(["I", "II", "III"])


def g_slope_cells(u, iset):
    mids = (u.grid[:-1] + u.grid[1:]) / 2
    return np.array([iset.in_g(m) for m in mids])


class TestCaseOne:
    def test_identity_projects_to_scale(self, periodic1):
        sf = tf.ScaleFunction(periodic1, anchor=0)
        u = tf.from_callable(lambda xs: xs, periodic1)
        dec = tf.project_subspace(u, sf)
        s_vals = np.array([float(sf(x)) for x in dec.u1.grid])
        assert np.array_equal(dec.u1.values, s_vals)
        in_g = g_slope_cells(dec.u1, periodic1)
        assert np.allclose(dec.u1.slopes[in_g], 1.0, atol=1e-12)
        assert np.allclose(dec.u1.slopes[~in_g], 0.0, atol=1e-12)
        assert np.allclose(dec.u2.slopes[in_g], 0.0, atol=1e-12)
        assert np.allclose(dec.u2.slopes[~in_g], 1.0, atol=1e-12)

    def test_subspace_member_is_fixed_point(self, periodic1, rng):
        sf = tf.ScaleFunction(periodic1, anchor=0)
        u = random_subspace_member(rng, periodic1)
        dec = tf.project_subspace(u, sf)
        assert np.ptp(dec.u2.values) <= 1e-12

    def test_anchor_perturbation_shifts_by_constant(self, periodic1, rng):
        u = random_gridfn(rng, periodic1)
        d0 = tf.project_subspace(u, tf.ScaleFunction(periodic1, anchor=0))
        d1 = tf.project_subspace(u, tf.ScaleFunction(periodic1, anchor=1.25))
        diff = d0.u1.values - d1.u1.values
        assert np.ptp(diff) <= 1e-12
        opposite = d0.u2.values - d1.u2.values
        assert np.allclose(opposite, -diff, atol=1e-12)

    def test_pinned_at_anchor(self, periodic1, rng):
        sf = tf.ScaleFunction(periodic1, anchor=0)
        dec = tf.project_subspace(random_gridfn(rng, periodic1), sf)
        assert dec.u1.values[0] == pytest.approx(0.0, abs=1e-12)


class TestCaseTwo:
    def test_left_finite_vanishes_left(self, rng):
        iset = tf.svc_complement(2, tails=(Tail.ALL_F, Tail.ALL_G))
        dec = tf.project_subspace(random_gridfn(rng, iset),
                                  tf.ScaleFunction(iset, anchor=0))
        assert dec.case is tf.Case.II
        assert dec.u1.values[0] == pytest.approx(0.0, abs=1e-12)
        assert "M_minus" in dec.constants

    def test_right_finite_vanishes_right(self, rng):
        iset = tf.svc_complement(2, tails=(Tail.ALL_G, Tail.ALL_F))
        dec = tf.project_subspace(random_gridfn(rng, iset),
                                  tf.ScaleFunction(iset, anchor=0))
        assert dec.u1.values[-1] == pytest.approx(0.0, abs=1e-12)


class TestCaseThree:
    def test_tent_constants_and_edge_vanishing(self, svc1):
        sf = tf.ScaleFunction(svc1, anchor=0)
        tent = tf.from_callable(
            lambda xs: [1.0 - 2.0 * abs(float(x) - 0.5) for x in xs], svc1, extra=[0.5])
        dec = tf.project_subspace(tent, sf)
        assert dec.case is tf.Case.III
        # symmetric tent: the signed G-integral of the slope cancels
        assert dec.constants["C1"] == pytest.approx(0.0, abs=1e-12)
        assert dec.u1.values[0] == pytest.approx(0.0, abs=1e-12)
        assert dec.u1.values[-1] == pytest.approx(0.0, abs=1e-12)
        at_half = dec.u1.values[dec.u1.grid.tolist().index(0.5)]
        assert at_half == pytest.approx(0.25, abs=1e-12)

    def test_identity_is_pure_complement(self, svc1):
        sf = tf.ScaleFunction(svc1, anchor=0)
        dec = tf.project_subspace(tf.from_callable(lambda xs: xs, svc1), sf)
        assert dec.constants["C1"] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(dec.u1.values, 0.0, atol=1e-12)
        assert np.array_equal(dec.u2.values, dec.u2.grid)

    def test_c1_is_mean_g_slope(self, svc2, rng):
        sf = tf.ScaleFunction(svc2, anchor=0)
        u = random_gridfn(rng, svc2)
        dec = tf.project_subspace(u, sf)
        in_g = g_slope_cells(u, svc2)
        m = np.sum(u.slopes[in_g] * u.cell_lengths[in_g])
        assert dec.constants["C1"] == pytest.approx(m / float(svc2.g_mass_window), rel=1e-12)


class TestComplementMembership:
    def test_f_cumulative_in_case_one(self, periodic1):
        sf = tf.ScaleFunction(periodic1, anchor=0)
        j = tf.DarningMap(periodic1)
        u = tf.from_callable(lambda xs: [float(j(x) - j(0)) for x in xs], periodic1)
        assert tf.is_in_complement(u, sf)

    def test_identity_case_three_yes(self, svc1):
        assert tf.is_in_complement(tf.from_callable(lambda xs: xs, svc1),
                                   tf.ScaleFunction(svc1, anchor=0))

    def test_identity_case_one_no(self, periodic1):
        assert not tf.is_in_complement(tf.from_callable(lambda xs: xs, periodic1),
                                       tf.ScaleFunction(periodic1, anchor=0))


class TestHarmonicDecomposition:
    def test_extension_decomposes_orthogonally(self, svc2, rng):
        phi = tf.TraceFunction(svc2, np.array([float(x) for x in
                                               sorted({p for c in svc2.f_components for p in c})]),
                               rng.normal(size=2 * len(svc2.f_components)))
        u = phi.extension
        dec = tf.decompose_harmonic(u, tf.ScaleFunction(svc2, anchor=0))
        e12 = tf.dirichlet_energy(dec.u1, dec.u2).value
        assert abs(e12) <= 1e-12 * max(1.0, tf.dirichlet_energy(u).value)
        # u1 stays harmonic off F: linear on each component
        for a, b in svc2.components:
            inside = (dec.u1.grid > float(a)) & (dec.u1.grid < float(b))
            cells = np.where((dec.u1.grid[:-1] >= float(a)) & (dec.u1.grid[1:] <= float(b)))[0]
            if cells.size > 1:
                assert np.ptp(dec.u1.slopes[cells]) <= 1e-9

    def test_constant_input(self, periodic1, svc1):
        for iset in (periodic1, svc1):
            c = tf.from_callable(lambda xs: 0.0 * np.asarray(xs, float) + 7.0, iset)
            dec = tf.decompose_harmonic(c, tf.ScaleFunction(iset, anchor=iset.window[0]))
            assert np.allclose(dec.u1.values, 0.0, atol=1e-12)
            assert np.allclose(dec.u2.values, 7.0, atol=1e-12)

    def test_single_gap_bridge(self, svc1):
        u = tf.GridFunction(np.array([0.0, 3 / 8, 5 / 8, 1.0]),
                            np.array([0.0, 0.0, 1.0, 1.0]))
        dec = tf.decompose_harmonic(u, tf.ScaleFunction(svc1, anchor=0))
        # all the F-variation lands in u2; here u has none
        assert np.allclose(dec.u2.slopes[g_slope_cells(dec.u2, svc1)],
                           dec.constants["C1"], atol=1e-12)

    def test_non_harmonic_rejected(self, svc1, rng):
        u = tf.from_callable(lambda xs: np.sin(9 * np.asarray(xs, float)), svc1,
                             extra=[0.45, 0.55])
        with pytest.raises(PreconditionError, match="harmonic"):
            tf.decompose_harmonic(u, tf.ScaleFunction(svc1, anchor=0))


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(seeds, cases)
    def test_sum_orthogonality_pythagoras(self, s, case):
        rng = np.random.default_rng(s)
        iset = random_iset(rng, case=case)
        sf = tf.ScaleFunction(iset, anchor=iset.window[0])
        u = random_gridfn(rng, iset)
        dec = tf.project_subspace(u, sf)
        assert np.allclose(dec.u1.values + dec.u2.values, u.values, atol=1e-9)
        e = tf.dirichlet_energy(u).value
        e12 = tf.dirichlet_energy(dec.u1, dec.u2).value
        assert abs(e12) <= 1e-12 * max(1.0, e)
        e1 = tf.dirichlet_energy(dec.u1).value
        e2 = tf.dirichlet_energy(dec.u2).value
        assert e == pytest.approx(e1 + e2, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.sampled_from(["I", "II"]))
    def test_derivative_split_on_f(self, s, case):
        rng = np.random.default_rng(s)
        iset = random_iset(rng, case=case)
        sf = tf.ScaleFunction(iset, anchor=iset.window[0])
        u = random_gridfn(rng, iset)
        dec = tf.project_subspace(u, sf)
        u2 = dec.u2.refine(u.grid)
        uu = u.refine(dec.u2.grid)
        in_f = ~g_slope_cells(uu, iset)
        assert np.allclose(u2.slopes[in_f], uu.slopes[in_f], atol=1e-9)
        in_g = ~in_f
        assert np.allclose(u2.slopes[in_g], 0.0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seeds, cases)
    def test_case_tag_matches_classify(self, s, case):
        rng = np.random.default_rng(s)
        iset = random_iset(rng, case=case)
        sf = tf.ScaleFunction(iset, anchor=iset.window[0])
        dec = tf.project_subspace(random_gridfn(rng, iset), sf)
        assert dec.case is tf.classify_case(iset)
        assert dec.case.name == case


class TestSerialization:
    def test_json_bundle(self, svc1, rng):
        dec = tf.project_subspace(random_gridfn(rng, svc1),
                                  tf.ScaleFunction(svc1, anchor=0))
        d = dec.to_dict()
        assert d["case"] == "CaseIII"
        assert "u1" in d and "u2" in d and "constants" in d


NO_G = tf.build_interval_set([], (0, 1))


def _no_g_square():
    return tf.from_callable(lambda xs: xs * xs, NO_G, extra=[0.5])


# (call, what it gives): an input for each line of the module that no other
# test reaches
REACHED = {
    "Case III without G in the window": (
        lambda: tf.project_subspace(_no_g_square(), tf.ScaleFunction(NO_G)).constants,
        {"C1": 0.0, "C2": 0.0}),
    "complement test without a G cell": (
        lambda: tf.is_in_complement(_no_g_square(), tf.ScaleFunction(NO_G)), True),
}


@pytest.mark.parametrize("call, want", REACHED.values(), ids=list(REACHED))
def test_reached(call, want):
    assert call() == want


def _orthogonality_lost():
    # a cell one ulp long at 1e-10 rises by 0.6 ulp(1): added to the running
    # G-integral, near 1, the rise rounds to a whole ulp, and the cell's slope
    # in u1 is off by about 7e9
    iset = tf.build_interval_set([(Fr(-3, 2), Fr(-1, 2)), (0, Fr(1, 2))], (-2, 1),
                                 tails=(Tail.ALL_G, Tail.ALL_G))
    x0 = 1e-10
    rise = 0.6 * math.ulp(1.0)
    u = tf.GridFunction([-2, -1.5, -0.5, 0, x0, x0 + math.ulp(x0), 0.5, 1],
                        [0, 0, 1, 0, 0, rise, rise, rise])
    return tf.project_subspace(u, tf.ScaleFunction(iset))


def _linearity_lost():
    # u has slope exactly 1 on the gap (1/2, 9/10), where a cell is one ulp
    # long; the running G-integral, near 1e5 after the first gap, loses that
    # cell's rise, so u1 is flat on it
    iset = tf.build_interval_set([(Fr(1, 10), Fr(1, 5)), (Fr(1, 2), Fr(9, 10))], (0, 1))
    t0 = 0.7
    t1 = t0 + math.ulp(t0)
    u = tf.GridFunction([0, 0.1, 0.2, 0.5, t0, t1, 0.9, 1],
                        [0, 0, 2**20 * (0.2 - 0.1), 0, t0 - 0.5, t1 - 0.5, 0.9 - 0.5, 0.9 - 0.5])
    return tf.decompose_harmonic(u, tf.ScaleFunction(iset))


# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    "orthogonality postcondition": (_orthogonality_lost, PreconditionError,
                                    "decomposition failed orthogonality"),
    "linearity postcondition": (_linearity_lost, PreconditionError,
                                "projection lost linearity on component 1"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()
