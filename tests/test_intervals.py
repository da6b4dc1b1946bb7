"""Interval geometry: construction, validation, measure queries."""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import Tail, ValidationError

from helpers import (g_window_mass_scan, geometry_sets, probe_points, random_iset,
                     scan_delta_dense, window_f_components)

isets = st.integers(0, 10**6).map(lambda s: random_iset(np.random.default_rng(s)))


class TestBuild:
    def test_one_gap_allg_complement(self):
        iset = tf.build_interval_set([(Fr(3, 8), Fr(5, 8))], (0, 1),
                                     tails=(Tail.ALL_G, Tail.ALL_G))
        assert iset.f_components == ((Fr(0), Fr(3, 8)), (Fr(5, 8), Fr(1)))

    def test_shared_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="1"):
            tf.build_interval_set([(0, 1), (1, 2)], (0, 2))

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            tf.build_interval_set([(0.1, 0.2), (0.15, 0.3)], (0, 1))

    def test_component_outside_window_rejected(self):
        with pytest.raises(ValidationError):
            tf.build_interval_set([(0.5, 1.5)], (0, 1))

    def test_edge_touching_component_with_allg_tail_rejected(self):
        # the touching endpoint would be an isolated point of F
        with pytest.raises(ValidationError, match="isolated"):
            tf.build_interval_set([(Fr(1, 2), 1)], (0, 1),
                                  tails=(Tail.ALL_F, Tail.ALL_G))

    def test_unsorted_components_rejected(self):
        with pytest.raises(ValidationError):
            tf.build_interval_set([(0.5, 0.6), (0.1, 0.2)], (0, 1))


class TestSvc:
    def test_depth1(self):
        iset = tf.svc_complement(1)
        assert iset.components == ((Fr(3, 8), Fr(5, 8)),)
        assert iset.g_mass_window == Fr(1, 4)

    def test_depth2(self):
        iset = tf.svc_complement(2)
        assert len(iset.components) == 3
        assert iset.g_mass_window == Fr(3, 8)
        assert iset.f_mass_window == Fr(5, 8)

    def test_depth0(self):
        iset = tf.svc_complement(0)
        assert iset.components == ()
        assert iset.f_mass_window == 1

    @pytest.mark.parametrize("k", range(11))
    def test_f_mass_fraction(self, k):
        iset = tf.svc_complement(k)
        width = iset.window[1] - iset.window[0]
        assert iset.f_mass_window / width == Fr(1, 2) + Fr(1, 2 ** (k + 1))

    def test_depth_cap(self):
        with pytest.raises(tf.PreconditionError):
            tf.svc_complement(25)


class TestPeriodic:
    def test_depth1_layout(self):
        iset = tf.periodic_fat_cantor(1, 2)
        assert iset.window == (0, 2)
        assert iset.components == ((Fr(3, 8), Fr(5, 8)), (Fr(1), Fr(2)))
        assert iset.tail_left is Tail.PERIODIC
        assert iset.tail_right is Tail.PERIODIC

    def test_depth0_layout(self):
        iset = tf.periodic_fat_cantor(0, 2)
        assert iset.components == ((Fr(1), Fr(2)),)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_always_case_one(self, depth):
        assert tf.classify_case(tf.periodic_fat_cantor(depth, 2)) is tf.Case.I

    def test_invalid_period(self):
        with pytest.raises(tf.PreconditionError):
            tf.periodic_fat_cantor(1, Fr(1, 2))

    # 1.0 - 0.1 rounds to 0.9 and 0.5 - 1/3 to a float: the period written
    # from such ends, or given as they give it, fits the exact window length
    @pytest.mark.parametrize("window, period", [
        ((0.1, 1.0), None), ((0.1, 1.0), 0.9),
        ((Fr(1, 3), 0.5), None), ((Fr(1, 3), 0.5), 0.5 - Fr(1, 3)),
    ])
    def test_period_from_inexact_ends(self, window, period):
        iset = tf.IntervalSet(window, [], Tail.PERIODIC, Tail.PERIODIC, period)
        assert iset.period == Fr(window[1]) - Fr(window[0])
        assert iset.to_dict()["period"] == window[1] - window[0]
        assert tf.IntervalSet.from_dict(iset.to_dict()) == iset

    def test_period_off_the_window_length(self):
        with pytest.raises(ValidationError, match="must equal the window length"):
            tf.IntervalSet((0.1, 1.0), [], Tail.PERIODIC, Tail.PERIODIC, Fr(9, 10))


class TestQueryTypes:
    def test_decimal_is_refused_as_lebesgue_refuses_it(self, svc2):
        # a Decimal is not a numbers.Real: every scalar query places it the same way
        x = Decimal("0.2")
        for call in (lambda: svc2.lebesgue(0, x), lambda: svc2.component_index(x),
                     lambda: svc2.in_g(x), lambda: svc2.is_endpoint(x)):
            with pytest.raises(TypeError, match="is not a real number"):
                call()


class TestValidate:
    def test_svc3_dense_at_02(self, svc3):
        report = svc3.validate(Fr(1, 5))
        assert report.measure_dense
        assert report.ok
        assert scan_delta_dense(svc3, Fr(1, 5))

    def test_sparse_set_not_dense(self):
        iset = tf.build_interval_set([(0, Fr(1, 10))], (0, 1))
        report = iset.validate(Fr(1, 5))
        assert not report.measure_dense
        assert not scan_delta_dense(iset, Fr(1, 5))
        # (0.5, 0.7) misses G; some reported violation must cover it
        assert any(lo <= Fr(1, 2) and hi >= Fr(7, 10) for lo, hi in report.violations)

    def test_empty_components_never_dense(self):
        iset = tf.svc_complement(0)
        assert not iset.validate(Fr(1, 2)).measure_dense

    def test_infinite_delta_report_is_json(self, svc1):
        # library only, as the CLI refuses an infinite delta; it was Infinity
        d = svc1.validate(math.inf).to_dict()
        assert d["delta"] == "inf"
        assert json.loads(json.dumps(d, allow_nan=False)) == d

    def test_equality_edge_counts_as_violation(self, svc1):
        # F-component of length exactly delta contains a G-free subinterval
        ok, violations = svc1.delta_dense(Fr(3, 8))
        assert not ok
        assert (Fr(0), Fr(3, 8)) in violations
        ok, violations = svc1.delta_dense(Fr(3, 8) + Fr(1, 1000))
        assert ok and violations == ()

    @settings(max_examples=60, deadline=None)
    @given(isets, st.fractions(min_value=Fr(1, 64), max_value=1, max_denominator=64))
    def test_matches_scan_oracle(self, iset, delta):
        assert iset.validate(delta).measure_dense == scan_delta_dense(iset, delta)

    @settings(max_examples=40, deadline=None)
    @given(isets,
           st.fractions(min_value=Fr(1, 64), max_value=1, max_denominator=64),
           st.fractions(min_value=0, max_value=1, max_denominator=64))
    def test_monotone_in_delta(self, iset, delta, bump):
        if iset.validate(delta).measure_dense:
            assert iset.validate(delta + bump).measure_dense


class TestLebesgue:
    def test_svc1_masses(self, svc1):
        assert svc1.lebesgue(0, 1, "G") == Fr(1, 4)
        assert svc1.lebesgue(0, Fr(3, 8), "F") == Fr(3, 8)

    def test_periodic_beyond_window(self, periodic1):
        assert periodic1.lebesgue(0, 4, "G") == Fr(5, 2)
        assert periodic1.lebesgue(-2, 0, "G") == Fr(5, 4)

    def test_allg_tail_mass(self, svc1_allg):
        assert svc1_allg.lebesgue(-3, 0, "G") == 3
        assert svc1_allg.lebesgue(-3, 0, "F") == 0

    def test_allf_tail_mass(self, svc1):
        assert svc1.lebesgue(1, 5, "G") == 0
        assert svc1.lebesgue(1, 5, "F") == 4

    @settings(max_examples=80, deadline=None)
    @given(isets,
           st.fractions(min_value=-2, max_value=3, max_denominator=48),
           st.fractions(min_value=-2, max_value=3, max_denominator=48))
    def test_g_plus_f_is_length(self, iset, x, y):
        lo, hi = min(x, y), max(x, y)
        assert iset.lebesgue(lo, hi, "G") + iset.lebesgue(lo, hi, "F") == hi - lo

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, st.lists(st.fractions(0, 1, max_denominator=10**6), min_size=2,
                                   max_size=12))
    def test_prefix_mass_matches_component_scan(self, iset, ts):
        w0, w1 = iset.window
        pts = sorted(w0 + (w1 - w0) * t for t in ts)
        ends = [e for ab in iset.components for e in ab]
        pts += ends[:: max(1, len(ends) // 8)]
        exact = all(isinstance(e, (int, Fr)) for e in pts)
        for lo in pts:
            for hi in pts:
                if lo > hi:
                    continue
                got, want = iset.lebesgue(lo, hi, "G"), g_window_mass_scan(iset, lo, hi)
                if exact:
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-12
                xlo, xhi = float(lo), float(hi)
                assert abs(iset.lebesgue(xlo, xhi, "G")
                           - float(g_window_mass_scan(iset, xlo, xhi))) <= 1e-12

    def test_prefix_table(self, svc2):
        # running G-masses as int numerators over the common denominator
        assert svc2.den == 32 and svc2.g_prefix == [0, 2, 10, 12]
        assert svc2.lebesgue(Fr(1, 8), Fr(1, 2)) == Fr(1, 16) + Fr(1, 8)
        assert svc2.lebesgue(Fr(3, 16), Fr(13, 16)) == Fr(1, 32) + Fr(1, 4) + Fr(1, 32)
        assert svc2.lebesgue(0, 1) == svc2.g_mass_window == Fr(3, 8)


class TestEndpoints:
    @settings(max_examples=50, deadline=None)
    @given(isets)
    def test_h_size_and_membership(self, iset):
        h = iset.endpoints
        expected = 2 * len(iset.components)
        if iset.tail_left is Tail.ALL_G:
            expected += 1
        if iset.tail_right is Tail.ALL_G:
            expected += 1
        assert len(h) == expected
        assert all(not iset.in_g(p) for p in h)

    def test_allg_edges_join_h(self, svc1_allg):
        assert set(svc1_allg.endpoints) == {Fr(0), Fr(3, 8), Fr(5, 8), Fr(1)}

    def test_component_index(self, svc1):
        assert svc1.component_index(Fr(1, 2)) == 0
        assert svc1.component_index(Fr(1, 5)) is None
        assert not svc1.in_g(Fr(3, 8))
        assert svc1.in_g(Fr(1, 2))

    def test_widths(self, svc1):
        assert svc1.gap_widths.tolist() == [0.25]
        assert svc1.den == 8 and svc1.g_prefix == [0, 2]


class TestClassify:
    """``classify`` against the exact ``Fraction`` oracle ``component_index``."""

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_midpoints_match_oracle(self, iset, seed):
        pts = probe_points(iset, np.random.default_rng(seed))
        # a float end rounded off its exact value is the one point where the
        # float test and the exact test part; no cell midpoint lands there
        rounded = [float(e) for ab in iset.components for e in ab if Fr(float(e)) != e]
        pts = pts[~np.isin(pts, rounded)]
        want = [iset.component_index(x) for x in pts.tolist()]
        assert iset.classify(pts).tolist() == [-1 if i is None else i for i in want]

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_nodes_follow_endpoint_rule(self, iset, seed):
        pts = probe_points(iset, np.random.default_rng(seed))
        got = iset.classify(pts, nodes=True)
        for x, g in zip(pts.tolist(), got.tolist()):
            i = iset.component_index(x)
            if i is None:
                assert g == -1
                continue
            a, b = (Fr(e) for e in iset.components[i])
            slack = Fr(1e-12 * max(1.0, abs(float(a)), abs(float(b))))
            dist = min(Fr(x) - a, b - Fr(x))
            if abs(dist - slack) <= slack / 10**6:
                continue  # float rounding decides exactly at the slack
            assert g == (i if dist > slack else -1)

    @settings(max_examples=40, deadline=None)
    @given(geometry_sets)
    def test_adapted_grid_nodes_lie_in_f(self, iset):
        assert np.all(iset.classify(tf.adapted_grid(iset), nodes=True) == -1)

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_closure_holds_the_node_classes(self, iset, seed):
        pts = probe_points(iset, np.random.default_rng(seed))
        closure = iset.closure_index(pts)
        lefts, rights = iset.float_ends
        ends = list(zip(lefts - iset.end_slack, rights + iset.end_slack))
        # the last component whose widened closure holds the point, else -1
        want = [max((i for i, (a, b) in enumerate(ends) if a <= x <= b), default=-1)
                for x in pts.tolist()]
        assert closure.tolist() == want
        nodes = iset.classify(pts, nodes=True)
        assert np.all((nodes == -1) | (nodes == closure))

    def test_f_ranks_count_the_gaps_to_the_left(self):
        for iset in (tf.svc_complement(2), tf.build_interval_set([(0, Fr(1, 4))], (0, 1))):
            lefts = [a for a, _ in iset.components]
            assert list(iset.f_ranks) == [sum(a < lo for a in lefts) for lo, _ in iset.f_components]

    def test_rounded_end_is_the_end(self):
        iset = tf.build_interval_set([(Fr(1, 3), Fr(2, 3))], (0, 1))
        assert iset.component_index(2 / 3) == 0  # float(2/3) < 2/3
        assert iset.classify([2 / 3], nodes=True).tolist() == [-1]
        assert iset.classify([0.5, 2 / 3 - 1e-9], nodes=True).tolist() == [0, 0]


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(isets)
    def test_json_round_trip(self, iset):
        assert tf.IntervalSet.from_dict(iset.to_dict()) == iset

    def test_dict_shape(self, svc1):
        d = svc1.to_dict()
        assert d["window"] == ["0", "1"]
        assert d["components"] == [["3/8", "5/8"]]
        assert d["tail_left"] == "AllF"

    @pytest.mark.parametrize("field, value, message", [
        ("window", [0, "inf"], "every end must be a finite real number"),
        ("components", [["-inf", "1/2"]], "every end must be a finite real number"),
        ("period", "inf", "period inf must equal the window length 1"),
    ], ids=["window end", "component end", "period"])
    def test_infinity_as_text_is_refused(self, field, value, message):
        # "inf" reads back as the float the codec writes for it, which the
        # finiteness checks refuse
        d = {**tf.svc_complement(1).to_dict(), field: value}
        if field == "period":
            d.update(tail_left="Periodic", tail_right="Periodic")
        with pytest.raises(ValidationError, match=message):
            tf.IntervalSet.from_dict(d)

    def test_codec_infinity(self):
        from traceform.intervals import _decode, _encode
        assert [_encode(x) for x in (math.inf, -math.inf, np.float64(-math.inf))] == [
            "inf", "-inf", "-inf"]
        assert [_decode(t) for t in ("inf", "-inf")] == [math.inf, -math.inf]
        assert (_encode(Fr(-1, 3)), _encode(0.25), _encode(2)) == ("-1/3", 0.25, 2)

    def test_f_components_cached_consistent(self, svc2):
        assert svc2.f_components == tuple(window_f_components(svc2))


SET_JSON = {"window": [0, 1], "components": [], "tail_left": "AllF", "tail_right": "AllF"}

# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    "window not a pair": (lambda: tf.IntervalSet((0, 1, 2)), ValidationError,
                          "window must be a pair"),
    "component not a pair": (lambda: tf.IntervalSet((0, 1), [(Fr(1, 2),)]), ValidationError,
                             "is not a pair"),
    "window reversed": (lambda: tf.IntervalSet((1, 0)), ValidationError,
                        "window must satisfy w0 < w1"),
    "tail not a Tail": (lambda: tf.IntervalSet((0, 1), [], "AllF"), ValidationError,
                        "tail must be a Tail enum member"),
    "period without Periodic": (lambda: tf.IntervalSet((0, 1), [], period=1), ValidationError,
                                "period given but neither tail is Periodic"),
    "component at the all-G left edge": (
        lambda: tf.IntervalSet((0, 1), [(0, Fr(1, 2))], Tail.ALL_G), ValidationError,
        "meets the all-G left tail"),
    "component at the all-G right edge": (
        lambda: tf.IntervalSet((0, 1), [(Fr(1, 2), 1)], Tail.ALL_F, Tail.ALL_G), ValidationError,
        "meets the all-G right tail"),
    "Periodic components at both edges": (
        lambda: tf.IntervalSet((0, 1), [(0, Fr(1, 4)), (Fr(3, 4), 1)], Tail.PERIODIC,
                               Tail.PERIODIC), ValidationError,
        "components touching both window edges"),
    "zero-length component": (lambda: tf.IntervalSet((0, 1), [(Fr(1, 2), Fr(1, 2))]),
                              ValidationError, "has nonpositive length"),
    "from_dict bool end": (lambda: tf.IntervalSet.from_dict({**SET_JSON, "window": [True, 2]}),
                           ValidationError, "boolean is not a valid endpoint"),
    "from_dict undecodable end": (
        lambda: tf.IntervalSet.from_dict({**SET_JSON, "window": [[0], 1]}), ValidationError,
        "cannot decode endpoint [0]"),
    "from_dict missing key": (
        lambda: tf.IntervalSet.from_dict({"window": [0, 1], "components": []}), ValidationError,
        "malformed interval set description"),
    "lebesgue of H": (lambda: tf.svc_complement(1).lebesgue(0, 1, which="H"),
                      tf.PreconditionError, "which must be 'G' or 'F'"),
    "delta 0": (lambda: tf.svc_complement(1).delta_dense(0), tf.PreconditionError,
                "delta must be positive"),
    "svc depth -1": (lambda: tf.svc_complement(-1), tf.PreconditionError,
                     "depth must be a nonnegative integer"),
    "svc window reversed": (lambda: tf.svc_complement(1, window=(1, 0)), tf.PreconditionError,
                            "window must satisfy w0 < w1, got (1, 0)"),
    "svc window reversed, exact": (lambda: tf.svc_complement(1, window=(Fr(1), Fr(-1, 2))),
                                   tf.PreconditionError, "window must satisfy w0 < w1, got (1, -1/2)"),
    "a set is immutable": (lambda: setattr(tf.svc_complement(1), "den", 2), AttributeError,
                           "IntervalSet is immutable: cannot set 'den'"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()


# (call, what it gives): an input for each line of the module that no other
# test reaches
REACHED = {
    "numpy int64 ends": (
        lambda: tf.build_interval_set([(np.int64(1), np.int64(2))], (np.int64(0), 3)).components,
        ((1, 2),)),
    "a set against another type": (lambda: tf.svc_complement(1) == (0, 1), False),
}


@pytest.mark.parametrize("call, want", REACHED.values(), ids=list(REACHED))
def test_reached(call, want):
    assert call() == want
