"""Hitting structure and trace forms: extensions, kernels, Feller weights."""

import math
import re
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import PreconditionError, Tail, ValidationError
from traceform.trace import jump_table_csv, trace_jump_energy, trace_local_energy

from helpers import (
    decimal_feller,
    geometry_sets,
    pushed_through,
    quad_feller,
    random_iset,
    random_subspace_member,
    random_trace_fn,
    required_trace_nodes,
    speed_measures,
    trace_atoms_merged,
)

seeds = st.integers(0, 10**6)


class TestHarmonicExtension:
    def test_single_gap_interpolation(self, one_gap):
        phi = tf.TraceFunction(one_gap, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        ext = tf.harmonic_extension(phi)
        assert np.interp(0.25, ext.grid, ext.values) == pytest.approx(0.25, abs=1e-15)

    def test_constant_extends_constant(self, svc2):
        nodes = np.array(required_trace_nodes(svc2))
        phi = tf.TraceFunction(svc2, nodes, np.full(nodes.size, 4.0))
        assert np.all(tf.harmonic_extension(phi).values == 4.0)

    def test_gap_slopes_match_formula(self, svc2, rng):
        phi = random_trace_fn(rng, svc2)
        ext = tf.harmonic_extension(phi)
        lookup = dict(zip(phi.nodes.tolist(), phi.values.tolist()))
        for a, b in svc2.components:
            a_f, b_f = float(a), float(b)
            expected = (lookup[b_f] - lookup[a_f]) / (b_f - a_f)
            i = ext.grid.tolist().index(a_f)
            assert ext.slopes[i] == pytest.approx(expected, rel=1e-12)

    def test_missing_endpoint_data(self, svc1):
        with pytest.raises(ValidationError, match="nodes must include"):
            tf.TraceFunction(svc1, np.array([3 / 8, 5 / 8]), np.array([0.0, 1.0]))

    def test_extension_is_built_once(self, svc2, rng):
        """The extension exists from construction on, one object that holds
        the trace's own node and value arrays."""
        phi = random_trace_fn(rng, svc2)
        assert "extension" in vars(phi)
        ext = phi.extension
        assert tf.harmonic_extension(phi) is ext is phi.extension
        assert ext.grid is phi.nodes and ext.values is phi.values


class TestAlphaHitting:
    def test_worked_value(self):
        iset = tf.build_interval_set([(0, 1)], (0, 1))
        p, q = tf.alpha_hitting(iset, 0, 2.0, 0.5)
        assert p == pytest.approx(math.sinh(1.0) / math.sinh(2.0), rel=1e-14)
        assert p == pytest.approx(0.32403, abs=5e-6)
        assert q == p

    def test_boundary_point(self, svc1):
        p, q = tf.alpha_hitting(svc1, 0, 3.0, 3 / 8)
        assert (p, q) == (1.0, 0.0)

    def test_small_alpha_limit(self):
        iset = tf.build_interval_set([(0, 1)], (0, 1))
        for x in (0.1, 0.4, 0.9):
            p, q = tf.alpha_hitting(iset, 0, 1e-10, x)
            assert p == pytest.approx(1 - x, abs=1e-8)
            assert q == pytest.approx(x, abs=1e-8)

    def test_large_alpha_stable(self):
        # deep in the gap both factors underflow cleanly instead of
        # overflowing through the sinh ratio
        iset = tf.build_interval_set([(0, 10)], (0, 10))
        last = 1.1
        for x in (1.0, 3.0, 5.0, 9.0):
            p, q = tf.alpha_hitting(iset, 0, 1e6, x)
            assert math.isfinite(p) and math.isfinite(q)
            assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
            assert p <= last
            last = p
        p1, _ = tf.alpha_hitting(iset, 0, 1e2, 1.0)
        assert 0.0 < p1 < 1e-5

    @pytest.mark.parametrize("alpha", [1e308, math.inf])
    def test_alpha_past_the_float_range_of_sqrt(self, alpha):
        # sqrt(2 alpha) overflows: the alpha -> inf limits, where it was (nan, nan)
        iset = tf.build_interval_set([(0, 1)], (0, 1))
        assert [tf.alpha_hitting(iset, 0, alpha, x) for x in (0.0, 0.5, 1.0)] == [
            (1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]

    def test_lengths_past_the_float_range(self):
        # sqrt(2 alpha) is finite but its product with the gap's lengths
        # overflows: the same limits, where it was nan
        iset = tf.build_interval_set([(0, 1e300)], (0, 1e300))
        assert [tf.alpha_hitting(iset, 0, 1e20, x) for x in (0.0, 5e299, 1e300)] == [
            (1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]

    def test_bad_component_index(self, svc1):
        with pytest.raises(PreconditionError, match="index"):
            tf.alpha_hitting(svc1, 3, 1.0, 0.5)

    def test_point_outside_component(self, svc1):
        with pytest.raises(PreconditionError):
            tf.alpha_hitting(svc1, 0, 1.0, 0.2)


class TestFeller:
    def test_weight_values(self):
        assert tf.feller_weight(0.5) == 1.0
        assert tf.feller_weight(Fr(1, 4)) == 2
        assert tf.feller_weight(float("inf")) == 0.0

    def test_nonpositive_width(self):
        with pytest.raises(PreconditionError):
            tf.feller_weight(0)

    def test_limit_at_large_alpha(self):
        assert tf.feller_numeric(1.0, 1e4) == pytest.approx(0.5, rel=1e-3)

    @pytest.mark.parametrize("d", [1.0, Fr(1, 3), 2])
    def test_infinite_alpha_is_the_limit(self, d):
        # it was nan; alpha = 1e308 already gave the float 1/(2d)
        assert [type(tf.feller_numeric(d, a)) for a in (1e308, math.inf)] == [float, float]
        assert tf.feller_numeric(d, math.inf) == tf.feller_numeric(d, 1e308) == float(1 / (2 * d))

    @pytest.mark.parametrize("call", [lambda: tf.feller_numeric(1.0, math.nan),
                                      lambda: tf.alpha_hitting(tf.svc_complement(1), 0, math.nan,
                                                               0.5)],
                             ids=["feller_numeric", "alpha_hitting"])
    def test_nan_alpha_is_refused(self, call):
        with pytest.raises(PreconditionError, match="alpha must be positive, got nan"):
            call()

    @pytest.mark.parametrize("d", [0.25, 0.5, 1.0])
    def test_monotone_ladder(self, d):
        vals = [tf.feller_numeric(d, a) for a in (1.0, 10.0, 100.0)]
        assert vals[0] < vals[1] < vals[2] < tf.feller_weight(d)

    @pytest.mark.parametrize("d", [1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 1.0, 1e3])
    def test_relative_accuracy(self, d):
        """Within 1e-12 of a 50-digit value for c d from 1e-12 to 20, where
        alpha is a float, and at alpha = 1, 1e100 and 1e300; the closed form
        alone lost digits to cancellation below c d = 0.05."""
        xs = np.geomspace(1e-12, 20.0, 137).tolist() + [0.05, math.nextafter(0.05, 0)]
        alphas = [1.0, 1e100, 1e300] + [a for a in ((x / d) * (x / d) / 2 for x in xs)
                                        if 0 < a < math.inf]
        for alpha in alphas:
            want = decimal_feller(d, alpha)
            assert abs(tf.feller_numeric(d, alpha) - want) <= 1e-12 * want, (d, alpha)

    @pytest.mark.parametrize("d", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 100.0])
    def test_against_quadrature(self, d, alpha):
        assert tf.feller_numeric(d, alpha) == pytest.approx(quad_feller(d, alpha), abs=1e-10)


class TestTraceEnergy:
    def test_worked_split(self, svc1):
        u = tf.from_callable(lambda xs: xs, svc1)
        phi = tf.restrict_to_f(u, svc1)
        assert trace_local_energy(phi) == pytest.approx(3 / 8, abs=1e-15)
        assert trace_jump_energy(phi) == pytest.approx(1 / 8, abs=1e-15)
        rep = tf.trace_energy(phi)
        assert rep.value == pytest.approx(0.5, abs=1e-15)
        assert rep.form == "trace"
        ext = tf.harmonic_extension(phi)
        assert tf.dirichlet_energy(ext).value == pytest.approx(0.5, abs=1e-15)

    def test_restrict_needs_adapted_grid(self, svc1):
        # the grid lacks the gap end 5/8: refused as every grid-function call refuses it
        u = tf.GridFunction(np.array([0.0, 0.375, 1.0]), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(PreconditionError, match="not adapted"):
            tf.restrict_to_f(u, svc1)

    def test_constant_is_null(self, svc2):
        nodes = np.array(required_trace_nodes(svc2))
        phi = tf.TraceFunction(svc2, nodes, np.full(nodes.size, 2.0))
        assert tf.trace_energy(phi).value == 0.0

    def test_subspace_jump_only(self, svc1):
        phi = tf.TraceFunction(svc1, np.array([0.0, 3 / 8, 5 / 8, 1.0]),
                               np.array([0.0, 0.0, 1.0, 1.0]))
        rep = tf.trace_subspace_energy(phi)
        assert rep.value == pytest.approx(2.0, abs=1e-15)
        assert rep.form == "trace_subspace"
        assert trace_local_energy(phi) == 0.0
        assert tf.trace_energy(phi).value == pytest.approx(rep.value, abs=1e-15)

    def test_subspace_claim_enforced(self, svc1):
        phi = tf.restrict_to_f(tf.from_callable(lambda xs: xs, svc1), svc1)
        with pytest.raises(PreconditionError, match="subspace"):
            tf.trace_subspace_energy(phi)

    @settings(max_examples=60, deadline=None)
    @given(seeds, seeds)
    def test_trace_identity(self, s1, s2):
        iset = random_iset(np.random.default_rng(s1))
        phi = random_trace_fn(np.random.default_rng(s2), iset)
        lhs = tf.trace_energy(phi).value
        rhs = tf.dirichlet_energy(tf.harmonic_extension(phi)).value
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seeds, seeds)
    def test_subspace_restrictions_agree(self, s1, s2):
        iset = random_iset(np.random.default_rng(s1))
        u = random_subspace_member(np.random.default_rng(s2), iset)
        phi = tf.restrict_to_f(u, iset)
        assert trace_local_energy(phi) <= 1e-12
        assert tf.trace_subspace_energy(phi).value == pytest.approx(
            tf.trace_energy(phi).value, rel=1e-12, abs=1e-12)
        assert trace_jump_energy(phi) == tf.trace_subspace_energy(phi).value

    def test_extension_operators_agree_for_members(self, svc2, rng):
        # linear-in-s equals linear-in-x across each gap since s is affine there
        u = random_subspace_member(rng, svc2)
        phi = tf.restrict_to_f(u, svc2)
        ext = tf.harmonic_extension(phi)
        sf = tf.ScaleFunction(svc2, anchor=0)
        lookup = dict(zip(phi.nodes.tolist(), phi.values.tolist()))
        for a, b in svc2.components:
            a_f, b_f = float(a), float(b)
            for t in (0.25, 0.5, 0.75):
                x = a_f + t * (b_f - a_f)
                s_frac = float(sf(x) - sf(a_f)) / float(sf(b_f) - sf(a_f))
                in_s = lookup[a_f] + (lookup[b_f] - lookup[a_f]) * s_frac
                assert np.interp(x, ext.grid, ext.values) == pytest.approx(in_s, rel=1e-12)


class TestTraceComplement:
    def test_f_cumulative(self, svc1):
        j = tf.DarningMap(svc1, z=0)
        u = tf.from_callable(lambda xs: [float(j(x)) for x in xs], svc1)
        phi = tf.restrict_to_f(u, svc1)
        rep = tf.trace_complement_energy(phi)
        assert rep.value == pytest.approx(0.5 * float(svc1.f_mass_window), abs=1e-15)

    def test_constant(self, svc1):
        nodes = np.array(required_trace_nodes(svc1))
        phi = tf.TraceFunction(svc1, nodes, np.full(nodes.size, 1.0))
        assert tf.trace_complement_energy(phi).value == 0.0

    def test_disjoint_supports(self, svc2):
        # bumps interior to the first and last F-components: both vanish at
        # every gap endpoint, so neither jumps across a gap
        nodes = np.array(sorted(required_trace_nodes(svc2) + [5 / 64, 59 / 64]))
        a = np.where(nodes == 5 / 64, 1.0, 0.0)
        b = np.where(nodes == 59 / 64, 1.0, 0.0)
        phi = tf.TraceFunction(svc2, nodes, a)
        psi = tf.TraceFunction(svc2, nodes, b)
        assert tf.trace_complement_energy(phi, psi).value == 0.0
        assert tf.trace_complement_energy(phi).value > 0.0

    def test_gap_jump_rejected(self, svc1):
        phi = tf.TraceFunction(svc1, np.array([0.0, 3 / 8, 5 / 8, 1.0]),
                               np.array([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(PreconditionError, match="jumps across gap"):
            tf.trace_complement_energy(phi)


class TestTraceMeasure:
    def test_svc1_atoms(self, svc1):
        tm = tf.trace_measure(svc1)
        assert tm.atoms == ((Fr(3, 8), Fr(1, 8)), (Fr(5, 8), Fr(1, 8)))

    def test_allg_absorbing_atoms(self, svc1_allg):
        tm = tf.trace_measure(svc1_allg)
        masses = dict(tm.atoms)
        assert math.isinf(masses[Fr(0)]) and math.isinf(masses[Fr(1)])
        assert masses[Fr(3, 8)] == Fr(1, 8)

    def test_density_lives_on_f(self, svc1):
        sp = tf.trace_measure(svc1)
        assert sp.carrier == (0, 1)
        assert sp.density_pieces == ((0, Fr(3, 8), 1), (Fr(5, 8), 1, 1))

    def test_pushforward_merges_to_m_j(self, svc1):
        # the trace's two atoms at the gap's ends land on the collapsed point
        dm = tf.DarningMap(svc1, z=0)
        sp = pushed_through(tf.trace_measure(svc1), dm)
        assert sp == tf.pushforward_speed(dm)
        assert sp.atoms == ((Fr(3, 8), Fr(1, 4)),)

    @pytest.mark.parametrize("iset", [
        *(tf.svc_complement(d, tails=(tl, tr)) for d in (0, 1, 3)
          for tl in (Tail.ALL_F, Tail.ALL_G) for tr in (Tail.ALL_F, Tail.ALL_G)),
        tf.periodic_fat_cantor(3, 2),
    ], ids=lambda s: f"{len(s.components)} gaps {s.tail_left.value}-{s.tail_right.value}")
    def test_pushforward_through_darning_is_darned_speed(self, iset):
        # the trace is time-changed by the trace measure, the complement by
        # the darned speed: the darning map carries the one onto the other
        dm = tf.DarningMap(iset)
        assert pushed_through(tf.trace_measure(iset), dm) == tf.pushforward_speed(dm)

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets)
    def test_pushforward_through_darning_on_geometry_sets(self, iset):
        try:
            dm = tf.DarningMap(iset)
        except PreconditionError:
            return  # F has no positive-length part in the window
        assert pushed_through(tf.trace_measure(iset), dm) == tf.pushforward_speed(dm)


    @settings(max_examples=60, deadline=None)
    @given(geometry_sets)
    def test_table_build_matches_constructor(self, iset):
        # the measure the validating constructor makes from the former atoms
        pieces = tuple((lo, hi, 1) for lo, hi in iset.f_components)
        want = tf.SpeedMeasure(iset.window, pieces, trace_atoms_merged(iset))
        got = tf.trace_measure(iset)
        for g, w in zip(got._atom_arrays, want._atom_arrays):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        assert "atoms" not in got.__dict__
        assert got == want and got.atoms == want.atoms and got.density_pieces == pieces

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets)
    def test_atoms_built_in_order(self, iset):
        # the atoms come out sorted and apart, as sorting and merging them would leave them
        assert tf.trace_measure(iset).atoms == trace_atoms_merged(iset)
        for speed in speed_measures(iset):
            ps = [p for p, _ in speed.atoms]
            assert all(p < q for p, q in zip(ps, ps[1:]))


class TestJumpTable:
    def test_rows(self, svc1):
        assert tf.jump_table(svc1) == [(0.375, 0.625, 0.25, 2.0)]

    def test_csv(self, svc1):
        assert jump_table_csv(svc1) == "a_n,b_n,d_n,weight\n0.375,0.625,0.25,2.0\n"

    def test_weights_follow_widths(self, svc2):
        for a, b, d, w in tf.jump_table(svc2):
            assert w == pytest.approx(1.0 / (2.0 * d), rel=1e-15)
            assert d == pytest.approx(b - a, rel=1e-15)


SVC1 = tf.svc_complement(1)

# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    # a trace function refuses what its extension, a GridFunction, refuses
    "trace lengths differ": (lambda: tf.TraceFunction(SVC1, [0, 0.375, 0.625, 1], [0, 1]),
                             ValidationError, "grid has 4 nodes but values has 2 entries"),
    "trace of an infinite value": (
        lambda: tf.TraceFunction(SVC1, [0, 0.375, 0.625, 1], [0, math.inf, 0, 0]),
        ValidationError, "grid nodes and values must be finite"),
    "trace of one node": (lambda: tf.TraceFunction(SVC1, [0.0], [0.0]), ValidationError,
                          "at least two nodes"),
    "trace node in a gap": (lambda: tf.TraceFunction(SVC1, [0, 0.375, 0.5, 0.625, 1], [0] * 5),
                            ValidationError, "trace node 0.5 lies inside a gap"),
    "hitting past an all-G edge": (
        lambda: tf.alpha_hitting(tf.svc_complement(1, tails=(Tail.ALL_G, Tail.ALL_G)), 0, 1.0,
                                 -1.0),
        PreconditionError, "unbounded G-component"),
    # c = sqrt(2 alpha) times the width underflows to 0
    "hitting where c d underflows": (
        lambda: tf.alpha_hitting(tf.build_interval_set([(0, 5e-324)], (0, 5e-324)), 0, 5e-324,
                                 0.0),
        PreconditionError, "sinh ratio needs b > 0"),
    "feller of an infinite gap": (lambda: tf.feller_numeric(math.inf, 1.0), PreconditionError,
                                  "gap width must be positive and finite"),
    # the weight 1/(2 d) of these is past the float range: 5e309, 5e399
    "feller of a subnormal gap": (lambda: tf.feller_numeric(1e-310, 1.0), PreconditionError,
                                  "its weight 1/(2 d) is past the float range"),
    "feller of an exact gap below floats": (
        lambda: tf.feller_numeric(Fr(1, 10**400), 1.0), PreconditionError,
        "its weight 1/(2 d) is past the float range"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()
