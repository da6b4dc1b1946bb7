"""Bilinear forms: Dirichlet, subspace, part, energy measures, contraction."""

import math
import re
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import PreconditionError
from traceform.energy import EnergyReport, common_grid

from helpers import (
    _float_pair_set,
    energy_measure_loop,
    geometry_sets,
    random_complement_member,
    random_gridfn,
    random_iset,
    random_subspace_member,
    random_trace_fn,
    random_vanishing,
    report_by_float,
    unit_contraction_loop,
)

seeds = st.integers(0, 10**6)


class TestDirichlet:
    def test_identity(self):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert tf.dirichlet_energy(u).value == 0.5

    def test_orthogonal_to_constant(self):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        c = tf.GridFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert tf.dirichlet_energy(u, c).value == 0.0

    def test_tent(self):
        tent = tf.GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert tf.dirichlet_energy(tent).value == 2.0

    def test_common_grid_refinement(self):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        v = tf.GridFunction(np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.25, 1.0]))
        assert tf.dirichlet_energy(u, v).value == 0.5

    def test_overflowing_slope_rejected(self):
        # a cell of width 5e-324 beside one of width 0.5: the slope across it
        # is past the float range, and the form would be inf or NaN
        u = tf.GridFunction(np.array([0.0, 5e-324, 0.5]), np.array([0.0, 1.0, 1.0]))
        c = tf.GridFunction(u.grid, np.zeros(3))
        for v in (u, c):
            with pytest.raises(PreconditionError, match="too short"):
                tf.dirichlet_energy(u, v)
        with pytest.raises(PreconditionError, match="too short"):
            tf.energy_measure(u, (0.0, 0.5))

    def test_incompatible_windows(self):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        w = tf.GridFunction(np.array([0.0, 2.0]), np.array([0.0, 2.0]))
        with pytest.raises(PreconditionError, match="window"):
            tf.dirichlet_energy(u, w)

    def test_report_sums_to_value(self, rng):
        for _ in range(10):
            iset = random_iset(rng)
            rep = tf.dirichlet_energy(random_gridfn(rng, iset))
            assert rep.value == pytest.approx(sum(b[-1] for b in rep.breakdown), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_bilinear_symmetric(self, s):
        rng = np.random.default_rng(s)
        iset = random_iset(rng)
        u, v, w = (random_gridfn(rng, iset) for _ in range(3))
        a = float(rng.normal())
        euv = tf.dirichlet_energy(u, v).value
        assert euv == pytest.approx(tf.dirichlet_energy(v, u).value, abs=1e-12)
        combo = tf.GridFunction(u.grid, a * u.values)
        assert tf.dirichlet_energy(combo, v).value == pytest.approx(a * euv, abs=1e-9)
        uw = tf.dirichlet_energy(u, w).value
        vw = tf.dirichlet_energy(v, w).value
        uv_sum = tf.GridFunction(*_common_sum(u, v))
        assert tf.dirichlet_energy(uv_sum, w).value == pytest.approx(uw + vw, abs=1e-9)


def _common_sum(u, v):
    grid = np.union1d(u.grid, v.grid)
    return grid, np.interp(grid, u.grid, u.values) + np.interp(grid, v.grid, v.values)


class TestSubspace:
    def test_equals_dirichlet_on_members(self, rng):
        for _ in range(20):
            iset = random_iset(rng)
            u = random_subspace_member(rng, iset)
            v = random_subspace_member(rng, iset)
            su = tf.subspace_energy(u, v, iset=iset)
            assert su.value == pytest.approx(tf.dirichlet_energy(u, v).value, abs=1e-12)
            assert su.form == "subspace"

    def test_constant_is_null(self, svc1):
        c = tf.from_callable(lambda xs: xs * 0.0 + 3.0, svc1)
        assert tf.subspace_energy(c, iset=svc1).value == 0.0

    def test_membership_enforced(self, svc1):
        u = tf.from_callable(lambda xs: xs, svc1)
        with pytest.raises(PreconditionError, match="subspace"):
            tf.subspace_energy(u, iset=svc1)

    def test_orthogonal_to_complement_part(self, rng):
        # E(v, u2) = 0 for subspace v and decomposition remainder u2.  In
        # Case III the statement needs the extended-space edge condition,
        # realized on a window as equal edge values of v.
        for case in ("I", "II", "III"):
            iset = random_iset(rng, case=case)
            sf = tf.ScaleFunction(iset, anchor=iset.window[0])
            u = random_gridfn(rng, iset)
            dec = tf.project_subspace(u, sf)
            v = random_subspace_member(rng, iset)
            if case == "III":
                drift = (v.values[-1] - v.values[0]) / float(iset.g_mass_window)
                s_vals = np.array([float(sf(x)) for x in v.grid])
                v = tf.GridFunction(v.grid, v.values - drift * s_vals)
                assert v.values[0] == pytest.approx(v.values[-1], abs=1e-9)
            ev = tf.dirichlet_energy(v, dec.u2).value
            scale = max(1.0, tf.dirichlet_energy(v).value, tf.dirichlet_energy(dec.u2).value)
            assert abs(ev) <= 1e-9 * scale


class TestPart:
    def test_tent_in_component_equals_full(self, svc1, rng):
        u = random_vanishing(rng, svc1)
        part = tf.part_energy(u, iset=svc1)
        assert part.value == pytest.approx(tf.dirichlet_energy(u).value, abs=1e-12)
        assert part.form == "part"

    def test_zero(self, svc1):
        z = tf.from_callable(lambda xs: xs * 0.0, svc1)
        assert tf.part_energy(z, iset=svc1).value == 0.0

    def test_nonvanishing_second_argument_rejected(self, svc1, rng):
        u = random_vanishing(rng, svc1)
        v = random_subspace_member(rng, svc1)
        with pytest.raises(PreconditionError, match="second argument"):
            tf.part_energy(u, v, iset=svc1)

    @settings(max_examples=30, deadline=None)
    @given(seeds, seeds)
    def test_part_equals_full_randomized(self, s1, s2):
        iset = random_iset(np.random.default_rng(s1))
        u = random_vanishing(np.random.default_rng(s2), iset)
        assert tf.part_energy(u, iset=iset).value == pytest.approx(
            tf.dirichlet_energy(u).value, abs=1e-12)


class TestEnergyMeasure:
    def test_identity_full_window(self):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert tf.energy_measure(u, (0.0, 1.0)) == 1.0

    @pytest.mark.parametrize("interval", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_interval_rejected(self, interval):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(PreconditionError, match="NaN"):
            tf.energy_measure(u, interval)

    def test_subspace_variant_vanishes_on_f(self, svc2, rng):
        u = random_subspace_member(rng, svc2)
        for lo, hi in svc2.f_components:
            val = tf.energy_measure(u, (float(lo), float(hi)), iset=svc2, subspace=True)
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_tent_half_window(self):
        tent = tf.GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert tf.energy_measure(tent, (0.0, 0.5)) == 2.0

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_window_mass_is_twice_energy(self, s):
        rng = np.random.default_rng(s)
        iset = random_iset(rng)
        u = random_gridfn(rng, iset)
        w0, w1 = (float(x) for x in iset.window)
        assert tf.energy_measure(u, (w0, w1)) == pytest.approx(
            2.0 * tf.dirichlet_energy(u).value, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, seeds, st.booleans())
    def test_matches_cell_loop(self, iset, s, subspace):
        # intervals past either edge, inside one cell, ending on nodes, and
        # missing the window; the loop adds in cell order, bit for bit
        rng = np.random.default_rng(s)
        u = random_gridfn(rng, iset, scale=3.0)
        w0, w1 = u.span
        ends = rng.uniform(w0 - (w1 - w0) / 2, w1 + (w1 - w0) / 2, size=(6, 2))
        nodes = rng.choice(u.grid, size=(4, 2))
        intervals = [tuple(sorted(ab)) for ab in np.concatenate([ends, nodes]).tolist()]
        intervals += [(w0, w1), (w1 + 1.0, w1 + 2.0), (w0, w0)]
        for interval in intervals:
            want = energy_measure_loop(u, interval, iset, subspace)
            if not math.isfinite(want):  # a subnormal cell: the slope overflows
                with pytest.raises(PreconditionError, match="not finite|is inf|is nan"):
                    tf.energy_measure(u, interval, iset=iset, subspace=subspace)
                continue
            got = tf.energy_measure(u, interval, iset=iset, subspace=subspace)
            assert got == want, interval


class TestContraction:
    def test_subnormal_cell_is_a_precondition(self):
        # a crossing inside the cell [0, 1e-323] interpolates to NaN
        u = random_gridfn(np.random.default_rng(1), _float_pair_set([0.5, 1e-323]), scale=2.0)
        with pytest.raises(PreconditionError, match="no finite value"):
            tf.unit_contraction(u)

    def test_clip_identity_on_two_window(self):
        u = tf.GridFunction(np.array([0.0, 2.0]), np.array([0.0, 2.0]))
        c = tf.unit_contraction(u)
        assert 1.0 in c.grid.tolist()
        assert tf.dirichlet_energy(c).value == 0.5
        assert tf.dirichlet_energy(u).value == 1.0

    def test_inside_band_unchanged(self, svc1, rng):
        vals = rng.uniform(0.0, 1.0, size=4)
        u = tf.GridFunction(np.array([0.0, 3 / 8, 5 / 8, 1.0]), vals)
        c = tf.unit_contraction(u)
        assert np.array_equal(c.grid, u.grid)
        assert np.array_equal(c.values, u.values)

    def test_negative_constant_clips_to_zero(self):
        u = tf.GridFunction(np.array([0.0, 1.0]), np.array([-1.0, -1.0]))
        c = tf.unit_contraction(u)
        assert np.all(c.values == 0.0)
        assert tf.dirichlet_energy(c).value == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_never_increases_energy(self, s):
        rng = np.random.default_rng(s)
        iset = random_iset(rng)
        u = random_gridfn(rng, iset, scale=2.0)
        assert tf.dirichlet_energy(tf.unit_contraction(u)).value <= \
            tf.dirichlet_energy(u).value + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.sampled_from(["I", "II", "III"]))
    def test_preserves_complement(self, s, case):
        # stability is a statement about the flat-on-G class: clipping a
        # nonzero constant G-slope would break slope constancy
        rng = np.random.default_rng(s)
        iset = random_iset(rng, case=case)
        sf = tf.ScaleFunction(iset, anchor=iset.window[0])
        u = random_complement_member(rng, sf, flat=True)
        assert tf.is_in_complement(u, sf)
        assert tf.is_in_complement(tf.unit_contraction(u), sf)

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, seeds)
    def test_matches_cell_loop(self, iset, s):
        # values crossing 0 and 1, touching them at nodes, and flat on cells
        rng = np.random.default_rng(s)
        u = random_gridfn(rng, iset, scale=2.0)
        values = np.where(rng.random(u.grid.size) < 0.2, rng.choice([0.0, 1.0]), u.values)
        for w in (u, tf.GridFunction(u.grid, values)):
            try:
                want = unit_contraction_loop(w)
            except PreconditionError:  # a subnormal cell: refining it gives NaN
                with pytest.raises(PreconditionError, match="no finite value"):
                    tf.unit_contraction(w)
                continue
            got = tf.unit_contraction(w)
            assert np.array_equal(got.grid, want.grid) and np.array_equal(got.values, want.values)


def _with_negative_zeros(rng, values):
    """values with about half of them, and every zero, made -0.0."""
    return np.where((rng.random(values.size) < 0.5) | (values == 0.0), -0.0, values)


class TestCommonGrid:
    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_equal_grids_return_the_arguments(self, s):
        rng = np.random.default_rng(s)
        u = random_gridfn(rng, random_iset(rng))
        v = tf.GridFunction(u.grid.copy(), _with_negative_zeros(rng, rng.normal(size=u.grid.size)))
        ru, rv = common_grid(u, v)
        assert ru is u and rv is v
        # refining onto the shared grid, as on unequal grids, changes no bit
        for w in (u, v):
            assert w.refine(np.union1d(u.grid, v.grid)).values.tobytes() == w.values.tobytes()

    def test_signed_zero_grids_are_refined(self):
        u = tf.GridFunction(np.array([-0.0, 1.0]), np.array([0.0, 1.0]))
        v = tf.GridFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        ru, rv = common_grid(u, v)
        assert ru is not u and rv is not v


class TestBreakdown:
    """Breakdowns against their former one-``float()``-per-value form."""

    @staticmethod
    def _check(rep, cells, contribs):
        assert rep.breakdown == report_by_float(cells, contribs)
        assert all(type(x) is float for row in rep.breakdown for x in row)
        assert rep.value == float(contribs.sum())

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.booleans())
    def test_cell_forms(self, s, same_grid):
        rng = np.random.default_rng(s)
        iset = random_iset(rng)
        u = random_subspace_member(rng, iset)
        v = (tf.GridFunction(u.grid, rng.normal(size=u.grid.size)) if same_grid
             else random_subspace_member(rng, iset))
        ru, rv = common_grid(u, v)
        cells = np.column_stack([ru.grid[:-1], ru.grid[1:]])
        contribs = 0.5 * ru.slopes * rv.slopes * ru.cell_lengths
        self._check(tf.dirichlet_energy(u, v), cells, contribs)
        if tf.is_in_subspace(v, iset):
            in_g = tf.gridfn.cell_in_g(ru, iset)
            self._check(tf.subspace_energy(u, v, iset=iset), cells,
                        np.where(in_g, contribs, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_jump_form(self, s):
        rng = np.random.default_rng(s)
        iset = random_iset(rng)
        phi = tf.restrict_to_f(random_subspace_member(rng, iset), iset)
        jumps = tf.trace.gap_jumps(phi)
        self._check(tf.trace_subspace_energy(phi), np.column_stack(iset.float_ends),
                    0.5 * (jumps * jumps) / iset.gap_widths)


def _edge_gridfn(rng, iset, kind):
    """A grid function of the given kind for the energy edge inputs."""
    if kind == "member":
        u = random_subspace_member(rng, iset)
    elif kind == "vanishing":
        u = random_vanishing(rng, iset)
    else:
        u = random_gridfn(rng, iset)
    grid, values = u.grid.copy(), u.values
    if kind == "unadapted" and grid.size > 2:
        grid = np.delete(grid, int(rng.integers(grid.size)))
        values = np.delete(values, 0)
    elif kind == "doubled span":
        grid = 2.0 * grid
    elif kind == "negative zeros":
        if grid[0] == 0.0:
            grid[0] = -0.0
        values = _with_negative_zeros(rng, values)
    return tf.GridFunction(grid, values)


def _edge_trace(rng, iset, kind):
    if kind == "jumps":
        return random_trace_fn(rng, iset)
    if kind == "other set":
        return random_trace_fn(rng, tf.svc_complement(1))
    sf = tf.ScaleFunction(iset)
    phi = tf.restrict_to_f(random_complement_member(rng, sf, flat=True), iset)
    if kind == "negative zeros":
        phi = tf.TraceFunction(iset, phi.nodes, _with_negative_zeros(rng, phi.values))
    return phi


GRIDFN_KINDS = st.sampled_from(["plain", "member", "vanishing", "unadapted", "doubled span",
                                "negative zeros"])
TRACE_KINDS = st.sampled_from(["flat", "jumps", "other set", "negative zeros"])
edge_floats = st.floats(allow_nan=True, allow_infinity=True)


class TestEnergyEdgeInputs:
    """Every energy either gives a finite value or raises PreconditionError."""

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, seeds, GRIDFN_KINDS, GRIDFN_KINDS, TRACE_KINDS, TRACE_KINDS,
           st.tuples(edge_floats, edge_floats), st.booleans())
    def test_value_or_precondition_error(self, iset, s, ku, kv, kphi, kpsi, interval, sub):
        # the member generators put nodes 1e-4 inside each gap
        assume(not iset.gap_widths.size or iset.gap_widths.min() > 1e-3)
        rng = np.random.default_rng(s)
        u, v = _edge_gridfn(rng, iset, ku), _edge_gridfn(rng, iset, kv)
        phi, psi = _edge_trace(rng, iset, kphi), _edge_trace(rng, iset, kpsi)
        calls = (
            lambda: tf.dirichlet_energy(u, v),
            lambda: tf.subspace_energy(u, v, iset=iset),
            lambda: tf.part_energy(u, v, iset=iset),
            lambda: tf.energy_measure(u, interval, iset=iset, subspace=sub),
            lambda: tf.trace_complement_energy(phi, psi),
        )
        for call in calls:
            try:
                out = call()
            except PreconditionError:
                continue
            value = out.value if isinstance(out, EnergyReport) else out
            assert type(value) is float and math.isfinite(value)


def _part_off_full():
    # vanishing on F within the tolerance, 1e-9 and -1e-9 at the ends of an F
    # stretch 1e-10 long, whose cell then holds full energy 2e-8
    d = Fr(1, 10**10)
    iset = tf.build_interval_set([(Fr(1, 4), Fr(1, 2)), (Fr(1, 2) + d, Fr(3, 4))], (0, 1))
    grid = tf.adapted_grid(iset)
    values = np.where(grid == 0.5, 1e-9, np.where(grid == float(Fr(1, 2) + d), -1e-9, 0.0))
    return tf.part_energy(tf.GridFunction(grid, values), iset=iset)


# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    "subspace measure without a set": (
        lambda: tf.energy_measure(tf.GridFunction([0.0, 1.0], [0.0, 1.0]), (0, 1), subspace=True),
        PreconditionError, "subspace energy measure needs the interval set"),
    "part energy off the full energy": (_part_off_full, PreconditionError,
                                        "part energy disagrees with the full energy"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()
