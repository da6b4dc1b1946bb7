"""Darned-space checks: energy, norms, and transport along the collapse map."""

import math
import re
import time
import warnings
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import PreconditionError, Tail
from traceform.darning import DarnedSpaceReport, SampleEquivalence, darn_trace, darned_l2, line_l2

from helpers import (darned_l2_loop, geometry_sets, random_complement_member, random_iset,
                     speed_measures)

seeds = st.integers(0, 10**6)


def _f_cumulative(iset):
    dm = tf.DarningMap(iset, z=0)
    return tf.from_callable(lambda xs: [float(dm(x)) for x in xs], iset), dm


def _norms_agree(a, b, rel=1e-12):
    if math.isinf(a) or math.isinf(b):
        assert a == b
    else:
        assert a == pytest.approx(b, rel=rel, abs=1e-12)


class TestDarnedEnergy:
    def test_identity_on_carrier(self, svc1):
        u, dm = _f_cumulative(svc1)
        uh = tf.darn_function(u, dm)
        assert uh.grid.tolist() == [0.0, 0.375, 0.75]
        assert uh.values.tolist() == [0.0, 0.375, 0.75]
        rep = tf.darned_energy(uh)
        assert rep.value == pytest.approx(3 / 8, abs=1e-15)
        assert rep.form == "darned"
        back = tf.dirichlet_energy(tf.undarn_function(uh, dm))
        assert back.value == pytest.approx(rep.value, abs=1e-15)

    def test_constant_is_null(self, svc1):
        dm = tf.DarningMap(svc1, z=0)
        c = tf.from_callable(lambda xs: np.full(len(xs), 3.0), svc1)
        assert tf.darned_energy(tf.darn_function(c, dm)).value == 0.0

    def test_disjoint_supports(self):
        grid = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        a = tf.GridFunction(grid, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        b = tf.GridFunction(grid, np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
        assert tf.darned_energy(a, b).value == 0.0
        assert tf.darned_energy(a, a).value > 0.0


class TestEquivalenceReport:
    def test_worked_sample(self, svc1):
        u, dm = _f_cumulative(svc1)
        rep = tf.equivalence_report([u], dm)
        assert rep.tolerance == 1e-12
        s = rep.samples[0]
        assert s.sup_line == s.sup_darned == 0.75
        assert s.l2_line == pytest.approx(45 / 256, abs=1e-15)
        assert s.l2_darned == pytest.approx(s.l2_line, abs=1e-15)
        assert s.energy_line == pytest.approx(3 / 8, abs=1e-15)
        assert s.energy_darned == pytest.approx(s.energy_line, abs=1e-15)
        assert s.trace_match == 0.0

    def test_constant_sample(self, svc1):
        dm = tf.DarningMap(svc1, z=0)
        c = tf.from_callable(lambda xs: np.full(len(xs), 3.0), svc1)
        s = tf.equivalence_report([c], dm).samples[0]
        assert s.energy_line == s.energy_darned == 0.0
        # window Lebesgue mass 1 on the line; 3/4 density plus the 1/4 atom
        # after collapse: both sides integrate value^2 to 9
        assert s.l2_line == pytest.approx(9.0, rel=1e-14)
        assert s.l2_darned == pytest.approx(s.l2_line, rel=1e-14)

    def test_rejects_nonmember(self, svc1):
        dm = tf.DarningMap(svc1, z=0)
        bad = tf.from_callable(lambda xs: xs, svc1)
        with pytest.raises(PreconditionError, match="not constant on component"):
            tf.equivalence_report([bad], dm)

    def test_rejection_names_the_gap_as_given(self):
        iset = tf.build_interval_set([(0.1, 0.2), (0.30000000000000004, 0.7)], (0, 1))
        bad = tf.from_callable(lambda xs: xs, iset)
        with pytest.raises(PreconditionError, match=r"component 0 = \(0\.1, 0\.2\);"):
            tf.darn_function(bad, tf.DarningMap(iset, z=0))


class TestAlgebra:
    def test_products_commute_with_darning(self, svc2, rng):
        dm = tf.DarningMap(svc2, z=0)
        sf = tf.ScaleFunction(svc2, anchor=0)
        u = random_complement_member(rng, sf, flat=True)
        v = random_complement_member(rng, sf, flat=True)
        grid = np.union1d(u.grid, v.grid)
        uu = np.interp(grid, u.grid, u.values)
        vv = np.interp(grid, v.grid, v.values)
        prod = tf.GridFunction(grid, uu * vv)
        lhs = tf.darn_function(prod, dm)
        uh = tf.darn_function(tf.GridFunction(grid, uu), dm)
        vh = tf.darn_function(tf.GridFunction(grid, vv), dm)
        assert np.array_equal(lhs.grid, uh.grid)
        assert lhs.values == pytest.approx(uh.values * vh.values, rel=1e-12, abs=1e-12)

    def test_clipping_commutes_with_darning(self, svc1, rng):
        dm = tf.DarningMap(svc1, z=0)
        sf = tf.ScaleFunction(svc1, anchor=0)
        u = random_complement_member(rng, sf, flat=True)
        scaled = tf.GridFunction(u.grid, 3.0 * u.values)
        a = tf.darn_function(tf.unit_contraction(scaled), dm)
        b = tf.unit_contraction(tf.darn_function(scaled, dm))
        assert tf.darned_energy(a).value == pytest.approx(
            tf.darned_energy(b).value, rel=1e-12, abs=1e-12)
        probes = np.linspace(a.grid[0], a.grid[-1], 37)
        assert np.interp(probes, a.grid, a.values) == pytest.approx(
            np.interp(probes, b.grid, b.values), abs=1e-12)
        assert tf.darned_energy(b).value <= tf.darned_energy(tf.darn_function(scaled, dm)).value + 1e-12


class TestIsometry:
    @settings(max_examples=40, deadline=None)
    @given(seeds, seeds)
    def test_random_members(self, s1, s2):
        iset = random_iset(np.random.default_rng(s1))
        sf = tf.ScaleFunction(iset, anchor=iset.window[0])
        u = random_complement_member(np.random.default_rng(s2), sf, flat=True)
        dm = tf.DarningMap(iset)
        s = tf.equivalence_report([u], dm).samples[0]
        _norms_agree(s.sup_line, s.sup_darned)
        _norms_agree(s.l2_line, s.l2_darned)
        _norms_agree(s.energy_line, s.energy_darned)
        assert s.trace_match <= 1e-12

    def test_slope_transport(self, svc2, rng):
        # on each F-cell the darned function repeats the slope at the image
        dm = tf.DarningMap(svc2, z=0)
        sf = tf.ScaleFunction(svc2, anchor=0)
        u = random_complement_member(rng, sf, flat=True)
        uh = tf.darn_function(u, dm)
        for k in range(u.grid.size - 1):
            mid = (u.grid[k] + u.grid[k + 1]) / 2
            if svc2.in_g(mid):
                continue
            y = float(dm(mid))
            kk = int(np.searchsorted(uh.grid, y) - 1)
            assert uh.slopes[kk] == pytest.approx(u.slopes[k], rel=1e-9, abs=1e-12)


class TestTraceSide:
    def test_trace_and_function_darning_agree(self, svc1):
        u, dm = _f_cumulative(svc1)
        via_fn = tf.darn_function(u, dm)
        via_tr = darn_trace(tf.restrict_to_f(u, svc1), dm)
        assert np.array_equal(via_fn.grid, via_tr.grid)
        assert via_fn.values == pytest.approx(via_tr.values, abs=1e-15)

    def test_random_member_agreement(self, svc2, rng):
        dm = tf.DarningMap(svc2, z=0)
        sf = tf.ScaleFunction(svc2, anchor=0)
        u = random_complement_member(rng, sf, flat=True)
        via_fn = tf.darn_function(u, dm)
        via_tr = darn_trace(tf.restrict_to_f(u, svc2), dm)
        probes = np.linspace(via_fn.grid[0], via_fn.grid[-1], 29)
        assert np.interp(probes, via_fn.grid, via_fn.values) == pytest.approx(
            np.interp(probes, via_tr.grid, via_tr.values), abs=1e-12)


class TestAbsorbingAtoms:
    def test_vanishing_values_keep_l2_finite(self, svc1_allg):
        dm = tf.DarningMap(svc1_allg)
        speed = tf.pushforward_speed(dm, "lebesgue")
        uh = tf.GridFunction(np.array([-0.1875, 0.1875, 0.5625]),
                             np.array([0.0, 1.0, 0.0]))
        # tent-squared mass 1/4 plus the finite middle atom 1/4
        assert darned_l2(uh, speed) == pytest.approx(0.5, abs=1e-15)
        u = tf.undarn_function(uh, dm)
        assert line_l2(u, dm) == pytest.approx(0.5, abs=1e-15)

    def test_nonvanishing_values_blow_up(self, svc1_allg):
        dm = tf.DarningMap(svc1_allg)
        c = tf.from_callable(lambda xs: np.full(len(xs), 2.0), svc1_allg)
        s = tf.equivalence_report([c], dm).samples[0]
        assert s.l2_line == math.inf
        assert s.l2_darned == math.inf
        assert s.sup_line == s.sup_darned == 2.0
        assert s.energy_line == s.energy_darned == 0.0


    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, seeds, st.booleans())
    def test_l2_matches_atom_loop(self, iset, s, zero_at_infinite):
        # every measure of the set, its trace measure with a piece per
        # F-component among them; functions with a node at every atom,
        # vanishing or not at the infinite ones, and measures with no atoms
        rng = np.random.default_rng(s)
        for speed in speed_measures(iset):
            lo, hi = (float(x) for x in speed.carrier)
            positions = [float(p) for p, _ in speed.atoms]
            grid = np.unique(np.concatenate([[lo, hi], positions, rng.uniform(lo, hi, size=10)]))
            values = rng.normal(size=grid.size)
            if zero_at_infinite:
                values[np.isin(grid, [float(p) for p, m in speed.atoms if math.isinf(m)])] = 0.0
            uh = tf.GridFunction(grid, values)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert darned_l2(uh, speed) == darned_l2_loop(uh, speed)

    @pytest.mark.parametrize("pieces", [
        [(0, 1e-20, 1), (2e-20, 1, 0)],
        [(0, 1e-20, 1), (1e-20, 2e-20, 3), (3e-20, 1, 0)],
        [(0, Fr(1, 10**30), 1), (Fr(2, 10**30), Fr(3, 10**30), 2), (Fr(1, 2), 1, 1)],
        [(0, 0.5, 1), (0.5 + 2**-53, 1, 2)],
    ], ids=["two", "three", "exact", "an ulp apart"])
    def test_l2_of_pieces_within_the_slack(self, pieces):
        """Pieces whose ends lie within 1e-15 of each other but differ: a
        piece is summed on a refine by its own ends, so a form that refined by
        every end at once would split a cell this one leaves whole, and count
        a part of it in that piece (2e-20 where the loop gives 1e-20 in the
        first case, on the grid [0, 1])."""
        speed = tf.SpeedMeasure((0, 1), pieces)
        for grid in ([0.0, 1.0], [0.0, 0.3, 1.0], [0.0, 1e-20, 1.0], [0.0, 5e-21, 0.7, 1.0]):
            uh = tf.GridFunction(np.array(grid), np.linspace(1.0, 2.0, len(grid)))
            assert darned_l2(uh, speed) == darned_l2_loop(uh, speed), grid


class TestDeepPipeline:
    def test_depth12_pipeline(self):
        # 4,095 gaps: each step has to stay O(n log m) for this to run in seconds
        iset = tf.svc_complement(12, tails=(Tail.ALL_G, Tail.ALL_G))
        m = 2**12 - 1
        assert len(iset.components) == m
        assert iset.g_mass_window == Fr(1, 2) * (1 - Fr(1, 2**12))
        assert iset.lebesgue(0, 1, "G") == iset.g_mass_window
        sf, dm = tf.ScaleFunction(iset), tf.DarningMap(iset)
        u = tf.from_callable(lambda xs: np.sin(3 * xs) + xs * xs, iset)
        dec = tf.project_subspace(u, sf)
        uh = tf.darn_function(dec.u2, dm)  # the complement part is flat on every gap
        assert uh.grid.size == u.grid.size - m
        assert tf.darned_energy(uh).value == pytest.approx(
            tf.dirichlet_energy(dec.u2).value, rel=1e-12)
        e_trace = tf.trace_energy(tf.restrict_to_f(u, iset)).value
        assert e_trace == pytest.approx(tf.dirichlet_energy(u).value, rel=1e-12)
        back = tf.undarn_function(uh, dm)
        assert np.array_equal(back.grid, u.grid)
        assert np.allclose(back.values, dec.u2.values, rtol=0, atol=1e-12)

    def test_depth20_equivalence(self):
        # 1,048,575 gaps: the speed measure comes from the darning tables, with
        # no per-gap object on the way
        start = time.perf_counter()
        iset = tf.svc_complement(20)
        grid = tf.adapted_grid(iset)
        # a complement member flat on every gap: random slopes on F-cells only
        flat = iset.classify((grid[:-1] + grid[1:]) / 2) >= 0
        slopes = np.where(flat, 0.0, np.random.default_rng(20).normal(size=flat.size))
        u = tf.GridFunction(grid, np.concatenate([[0.0], np.cumsum(slopes * np.diff(grid))]))
        report = tf.equivalence_report([u], tf.DarningMap(iset))
        assert report.ok, report.to_dict()
        print(f"depth 20 equivalence: {time.perf_counter() - start:.1f} s")


def _report_ok(l2_line, l2_darned):
    sample = SampleEquivalence(1.0, 1.0, l2_line, l2_darned, 0.5, 0.5, 0.0)
    return DarnedSpaceReport((sample,), 1e-12).ok


# (call, what it gives): an input for each line of the module that no other
# test reaches
REACHED = {
    "infinite norms that agree": (lambda: _report_ok(math.inf, math.inf), True),
    "an infinite norm against a finite one": (lambda: _report_ok(math.inf, 1.0), False),
}


@pytest.mark.parametrize("call, want", REACHED.values(), ids=list(REACHED))
def test_reached(call, want):
    assert call() == want


SVC1 = tf.svc_complement(1)

# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    "darned trace that jumps": (
        lambda: darn_trace(tf.TraceFunction(SVC1, [0, 0.375, 0.625, 1], [0, 0, 1, 1]),
                           tf.DarningMap(SVC1, z=0)),
        PreconditionError, "trace values differ across gap 0 = (3/8, 5/8)"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()
