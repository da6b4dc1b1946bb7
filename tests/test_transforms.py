"""Scale function, darning map, case classification, speed measures."""

import json
import math
import re
import warnings
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import PreconditionError, Tail, ValidationError
from traceform.simulate import build_chain

from helpers import (OracleScale, OracleSet, _float_pair_set, darning_image_dict, geometry_sets,
                     probe_points, pushed_through, random_iset, speed_mass, speed_measures,
                     tent_integral_loop)

isets = st.integers(0, 10**6).map(lambda s: random_iset(np.random.default_rng(s)))
window_fracs = st.fractions(min_value=0, max_value=1, max_denominator=96)


def collapsed_positions(dm):
    """The collapsed points: the finite atoms of the Lebesgue pushforward."""
    return [p for p, m in tf.pushforward_speed(dm).atoms if m != math.inf]


def first_gap_interior(iset):
    a, b = iset.components[0]
    return (a + b) / 2


class TestScale:
    def test_gap_increment(self, svc1):
        s = tf.ScaleFunction(svc1, anchor=0)
        assert s(Fr(5, 8)) - s(Fr(3, 8)) == Fr(1, 4)

    def test_flat_on_f(self, svc1):
        s = tf.ScaleFunction(svc1, anchor=0)
        assert s(Fr(3, 8)) - s(0) == 0

    def test_inverse_of_plateau_is_component(self, svc1):
        s = tf.ScaleFunction(svc1, anchor=0)
        assert s.inverse(s(Fr(3, 8))) == (Fr(0), Fr(3, 8))

    def test_inverse_of_g_point_is_point(self, svc1):
        s = tf.ScaleFunction(svc1, anchor=0)
        y = s(0.5)
        assert s.inverse(y) == (0.5, 0.5)

    def test_inverse_outside_image(self, svc1):
        s = tf.ScaleFunction(svc1, anchor=0)
        with pytest.raises(PreconditionError):
            s.inverse(Fr(1, 2))

    def test_anchor_shift(self, svc1):
        s0 = tf.ScaleFunction(svc1, anchor=0)
        s1 = tf.ScaleFunction(svc1, anchor=Fr(1, 2))
        assert s1(Fr(1, 2)) == 0
        diff = s0(Fr(1, 2)) - s1(Fr(1, 2))
        for x in (0, Fr(3, 8), Fr(7, 10), 1):
            assert s0(x) - s1(x) == diff

    @settings(max_examples=60, deadline=None)
    @given(isets, window_fracs, window_fracs)
    def test_increment_is_g_mass(self, iset, t0, t1):
        w0, w1 = iset.window
        x = w0 + (w1 - w0) * min(t0, t1)
        y = w0 + (w1 - w0) * max(t0, t1)
        s = tf.ScaleFunction(iset, anchor=w0)
        assert s(y) - s(x) == iset.lebesgue(x, y, "G")


class TestClassify:
    def test_case_two(self):
        iset = tf.svc_complement(1, tails=(Tail.ALL_F, Tail.ALL_G))
        assert tf.classify_case(iset) is tf.Case.II

    def test_case_three(self, svc1):
        assert tf.classify_case(svc1) is tf.Case.III

    def test_case_one_allg(self, svc1_allg):
        assert tf.classify_case(svc1_allg) is tf.Case.I

    def test_window_enlargement_invariance(self):
        for tails in ((Tail.ALL_F, Tail.ALL_F), (Tail.ALL_G, Tail.ALL_F),
                      (Tail.ALL_G, Tail.ALL_G)):
            small = tf.build_interval_set([(Fr(1, 4), Fr(1, 2))], (0, 1), tails=tails)
            large = tf.build_interval_set([(Fr(1, 4), Fr(1, 2))], (-5, 6), tails=tails)
            assert tf.classify_case(small) is tf.classify_case(large)


class TestDarningMap:
    def test_worked_values(self, svc1):
        j = tf.DarningMap(svc1, z=0)
        assert j(1) == Fr(3, 4)
        for x in (Fr(3, 8), Fr(1, 2), Fr(5, 8)):
            assert j(x) == Fr(3, 8)
        assert j(0) == 0

    def test_collapsed_point(self, svc1):
        j = tf.DarningMap(svc1, z=0)
        ((position, width),) = tf.pushforward_speed(j).atoms
        assert position == Fr(3, 8)
        assert width == Fr(1, 4)
        assert j.image()["collapsed"] == [{"index": 0, "position": "3/8", "width": "1/4"}]

    def test_anchor_in_g_rejected(self, svc1):
        with pytest.raises(PreconditionError):
            tf.DarningMap(svc1, z=Fr(1, 2))

    def test_anchor_in_h_rejected(self, svc1):
        with pytest.raises(PreconditionError):
            tf.DarningMap(svc1, z=Fr(3, 8))

    def test_default_anchor_is_f_interior(self, svc1_allg):
        j = tf.DarningMap(svc1_allg)
        assert not svc1_allg.in_g(j.z)
        assert j.z not in svc1_allg.endpoints

    def test_image_boundary_membership(self, svc1, svc1_allg):
        img_f = tf.DarningMap(svc1, z=0).image()
        assert not img_f["bounded_left"] and not img_f["bounded_right"]
        img_g = tf.DarningMap(svc1_allg).image()
        assert img_g["bounded_left"] and img_g["bounded_right"]

    def test_image_of_a_point(self):
        # an anchor past a window that G fills: the image is one point, which
        # image() describes and pushforward_speed refuses
        iset = tf.build_interval_set([(0, 1)], (0, 1))
        dm = tf.DarningMap(iset, z=2)
        img = dm.image()
        assert img == darning_image_dict(dm)
        assert img["lo"] == img["hi"] == "-1"
        assert img["collapsed"] == [{"index": 0, "position": "-1", "width": "1"}]
        img["collapsed"].clear()  # a fresh dict each call
        assert dm.image() == darning_image_dict(dm)
        with pytest.raises(PreconditionError, match="single point"):
            tf.pushforward_speed(dm)

    def test_round_trip_on_f(self, svc1):
        j = tf.DarningMap(svc1, z=0)
        for x in (Fr(1, 10), Fr(3, 10), Fr(7, 10), Fr(9, 10)):
            lo, hi = j.inverse(j(x))
            assert lo == hi == x

    def test_inverse_of_collapsed_point(self, svc1):
        j = tf.DarningMap(svc1, z=0)
        assert j.inverse(Fr(3, 8)) == (Fr(3, 8), Fr(5, 8))

    @settings(max_examples=60, deadline=None)
    @given(isets, window_fracs, window_fracs)
    def test_scale_darn_complementarity(self, iset, t0, t1):
        w0, w1 = iset.window
        x = w0 + (w1 - w0) * min(t0, t1)
        y = w0 + (w1 - w0) * max(t0, t1)
        s = tf.ScaleFunction(iset, anchor=w0)
        j = tf.DarningMap(iset)
        assert (s(y) - s(x)) + (j(y) - j(x)) == y - x


def _beyond(iset):
    # how far past the window edges the probe points reach: two periods and a half
    return 2.5 * float(iset.period) if iset.period is not None else 0.5


def _exact_points(iset, rng):
    """Window edges, component ends, F-component midpoints and random points
    of the window and, past its edges, of the tails, as exact values."""
    w0, w1 = iset.window
    pts = [w0, w1] + [e for ab in iset.components for e in ab]
    pts += [(lo + hi) / 2 for lo, hi in iset.f_components]
    span = Fr(w1 - w0)
    reach = Fr(_beyond(iset)).limit_denominator(96)
    pts += [w0 - reach + (span + 2 * reach) * Fr(int(k), 10**6)
            for k in rng.integers(0, 10**6, size=40)]
    return pts


def _inverse_or_raise(f, y):
    """f.inverse(y), or the class of the precondition it refuses."""
    try:
        return f.inverse(y)
    except PreconditionError:
        return PreconditionError


def _close(got, want, scale=1.0):
    want = np.asarray(want, dtype=float)
    return np.all(np.abs(got - want) <= 1e-12 * scale * np.maximum(1.0, np.abs(want)))


class TestArrayPath:
    """The float ndarray path of each map and inverse against the exact
    scalar path, which stays the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_scale_map(self, iset, seed):
        xs = probe_points(iset, np.random.default_rng(seed), _beyond(iset))
        sf = tf.ScaleFunction(iset)
        assert _close(sf(xs), [float(sf(Fr(x))) for x in xs.tolist()])

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    @example(tf.build_interval_set([(0, 1), (3 / 2, 5 / 2), (3, 4)], (0, 5)), 0)
    def test_darning_map(self, iset, seed):
        try:
            dm = tf.DarningMap(iset)
        except PreconditionError:
            return  # F has no positive-length part in the window
        xs = probe_points(iset, np.random.default_rng(seed), _beyond(iset))
        got = dm(xs)
        # a point within the endpoint slack of a gap is moved onto the gap:
        # it is off the exact image by at most that slack, which grows with
        # the ends and not with the image
        want = np.array([float(dm(Fr(x))) for x in xs.tolist()])
        slack = 1e-12 * np.maximum(1.0, np.abs(want)) + iset.end_slack.max(initial=0.0)
        assert np.all(np.abs(got - want) <= slack)
        w0, w1 = (float(v) for v in iset.window)
        lefts, rights = iset.float_ends
        near = (((xs >= w0) & (xs <= w1))[:, None] & (xs[:, None] >= lefts - iset.end_slack)
                & (xs[:, None] <= rights + iset.end_slack))
        # an F stretch narrower than the slack leaves a point near two gaps
        one = near.sum(axis=1) == 1
        positions = np.array([float(p) for p in collapsed_positions(dm)])
        assert np.all(got[one] == positions[near[one].nonzero()[1]])

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_scale_inverse(self, iset, seed):
        sf = tf.ScaleFunction(iset)
        ys = [sf(x) for x in _exact_points(iset, np.random.default_rng(seed))]
        want = np.array([[float(v) for v in sf.inverse(y)] for y in ys])
        lo, hi = sf.inverse(np.array([float(y) for y in ys]))
        assert _close(lo, want[:, 0]) and _close(hi, want[:, 1])

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_scale_inverse_float_values(self, iset, seed):
        # the scalar and the array inverse given the same floats: the array
        # images of window points, the window's float edges among them
        w0, w1 = (float(v) for v in iset.window)
        xs = probe_points(iset, np.random.default_rng(seed), 0.0)
        sf = tf.ScaleFunction(iset)
        for y in sf(xs[(xs >= w0) & (xs <= w1)]).tolist():
            want, got = _inverse_or_raise(sf, np.array([y])), _inverse_or_raise(sf, y)
            if want is PreconditionError or got is PreconditionError:
                assert got is want, y
            else:
                assert _close(np.array([float(v) for v in got]), np.concatenate(want)), (y, got, want)

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    # the right F-stretch (1 - 2**-53, 1) darns onto [1/2, 1/2 + 2**-53], so the
    # float of its image is the collapsed point 1/2, whose preimage is the gap
    @example(_float_pair_set([0.5, 0.9999999999999999]), 0)
    def test_darning_inverse(self, iset, seed):
        try:
            dm = tf.DarningMap(iset)
        except PreconditionError:
            return
        # points of F and the collapsed points: inside a gap with float ends
        # the scalar map rounds off the collapsed point it should hit
        w0, w1 = iset.window
        positions = collapsed_positions(dm)
        ys = [float(dm(x)) for x in _exact_points(iset, np.random.default_rng(seed))
              if w0 <= x <= w1 and not iset.in_g(x)]
        ys += [float(p) for p in positions]
        # the exact value of each float the array path gets, where the float of
        # a collapsed point (the first of those that share it) stands for it
        snap = {float(p): p for p in reversed(positions)}
        want = np.array([[float(v) for v in dm.inverse(snap.get(y, Fr(y)))] for y in ys])
        lo, hi = dm.inverse(np.array(ys))
        assert _close(lo, want[:, 0]) and _close(hi, want[:, 1])

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    # s of the float one ulp below 199/240, in the last gap, rounds one ulp past
    # the float of s(w1), past which the all-F tail gives s no values
    @example(random_iset(np.random.default_rng(26974)), 0)
    def test_round_trips(self, iset, seed):
        w0, w1 = (float(v) for v in iset.window)
        xs = probe_points(iset, np.random.default_rng(seed), 0.0)
        xs = xs[(xs >= w0) & (xs <= w1)]
        tol = 1e-12 * np.maximum(1.0, np.abs(xs))
        maps = [(tf.ScaleFunction(iset), tol)]
        try:
            # the darning map moves a point within the endpoint slack onto the gap
            maps.append((tf.DarningMap(iset), tol + iset.end_slack.max(initial=0.0)))
        except PreconditionError:
            pass
        for f, slack in maps:
            lo, hi = f.inverse(f(xs))
            assert np.all((lo - slack <= xs) & (xs <= hi + slack))

    def test_a_hair_past_an_allf_edge_is_that_edge(self):
        # the value a hair past the float of s(w1) is s(w1), whose preimage is
        # the last F-component, on the scalar path, the array path and the
        # oracle; a value further out is refused
        sf = tf.ScaleFunction(random_iset(np.random.default_rng(26974)))
        y = sf(0.8291666666666666)
        assert y > float(sf.window_image()[1])
        assert sf.inverse(y) == OracleScale(OracleSet(sf.base)).inverse(y) == (Fr(199, 240), 1)
        lo, hi = sf.inverse(np.array([y]))
        assert (lo.tolist(), hi.tolist()) == ([199 / 240], [1.0])
        for far in (y + 1e-9, np.array([y, y + 1e-9])):
            with pytest.raises(PreconditionError, match="above the range"):
                sf.inverse(far)

    @pytest.mark.parametrize("comps", [
        [(0, Fr(3, 10)), (Fr(7, 15), Fr(101, 120))],  # a plateau ends at the seam
        [(Fr(1, 15), Fr(31, 48)), (Fr(37, 48), 1)],  # a plateau starts at the seam
    ])
    def test_periodic_plateaus_whole_periods_out(self, comps):
        # folding back k periods rounds; the plateau must still come back whole
        iset = tf.build_interval_set(comps, (0, 1), tails=(Tail.PERIODIC, Tail.PERIODIC))
        sf = tf.ScaleFunction(iset)
        values = [v for v, _ in tf.scale_pushforward_speed(sf).atoms]
        ys = [v + k * iset.g_mass_window for v in values for k in range(-3, 4)]
        want = np.array([[float(v) for v in sf.inverse(y)] for y in ys])
        lo, hi = sf.inverse(np.array([float(y) for y in ys]))
        assert _close(lo, want[:, 0]) and _close(hi, want[:, 1])

    def test_fraction_input_stays_exact(self, svc2):
        sf, dm = tf.ScaleFunction(svc2), tf.DarningMap(svc2, z=0)
        assert sf(Fr(1, 2)) == Fr(3, 16) and dm(Fr(1, 2)) == Fr(3, 8) - Fr(1, 16)
        assert sf.inverse(Fr(3, 16)) == (Fr(1, 2), Fr(1, 2))
        assert dm.inverse(Fr(5, 32)) == (Fr(5, 32), Fr(7, 32))

    def test_float_ends_rounded_image_inverts(self):
        # with float ends the scalar image of a gap point misses the collapsed
        # point by rounding; it still inverts, onto the gap's closure
        iset = tf.build_interval_set([(1e-05, 0.5)], (0, 1))
        dm = tf.DarningMap(iset)
        for k in range(1, 1000, 7):
            lo, hi = dm.inverse(dm(Fr(k, 2000)))
            assert 1e-05 - 1e-12 <= lo <= hi <= 0.5 + 1e-12

    def test_array_shapes(self, svc1):
        sf, dm = tf.ScaleFunction(svc1, anchor=0), tf.DarningMap(svc1, z=0)
        xs = np.array([[0.0, 0.5], [0.625, 1.0]])
        assert sf(xs).tolist() == [[0.0, 0.125], [0.25, 0.25]]
        assert dm(xs).tolist() == [[0.0, 0.375], [0.375, 0.75]]
        lo, hi = dm.inverse(np.array([0.375]))
        assert (lo.tolist(), hi.tolist()) == ([0.375], [0.625])
        assert [a.size for a in sf.inverse(np.array([]))] == [0, 0]

    def test_out_of_range_arrays_raise(self, svc1):
        with pytest.raises(PreconditionError, match="above the range"):
            tf.ScaleFunction(svc1, anchor=0).inverse(np.array([0.1, 0.5]))
        with pytest.raises(PreconditionError, match="outside the window image"):
            tf.DarningMap(svc1, z=0).inverse(np.array([-0.5]))

    @pytest.mark.parametrize("query", [math.nan, np.array([math.nan, 0.3])],
                             ids=["scalar", "array"])
    @pytest.mark.parametrize("method", ["__call__", "inverse"])
    @pytest.mark.parametrize("cls, comps", [(tf.ScaleFunction, [(0, 0.25), (0.5, 0.75)]),
                                            (tf.DarningMap, [(0.25, 0.5), (0.75, 1)])])
    def test_nan_queries_raise(self, cls, comps, method, query):
        """A NaN has no image and no preimage: both maps and both inverses
        refuse it, scalar or in an array, where they gave an end of the
        window or a neighbour's value."""
        f = getattr(cls(tf.build_interval_set(comps, (0, 1))), method)
        with pytest.raises(PreconditionError, match="NaN|finite"):
            f(query)

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    @pytest.mark.parametrize("cls", [tf.ScaleFunction, tf.DarningMap])
    @pytest.mark.parametrize("tails", [(Tail.ALL_G, Tail.ALL_G), (Tail.ALL_F, Tail.ALL_F),
                                       (Tail.ALL_G, Tail.ALL_F), (Tail.ALL_F, Tail.ALL_G)],
                             ids=["AllG", "AllF", "AllG-AllF", "AllF-AllG"])
    def test_infinity_raises_on_every_tail(self, tails, cls, x):
        """An infinite point past the window has no image on an all-G or all-F
        tail either, as every scalar call says: the array path refuses it,
        naming the tail it lies on, where it gave an end of the image or inf."""
        f = cls(tf.svc_complement(1, tails=tails))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError) as err:
                f(np.array([0.5, x]))
            with pytest.raises(PreconditionError):
                f(x)
        tail = tails[0] if x < 0 else tails[1]
        assert str(err.value) == f"point {x} must be finite on an {tail.value} tail"

    @pytest.mark.parametrize("x", [math.inf, -math.inf, np.float64(math.inf)],
                             ids=["inf", "-inf", "numpy inf"])
    @pytest.mark.parametrize("cls", [tf.ScaleFunction, tf.DarningMap])
    @pytest.mark.parametrize("iset", [
        tf.svc_complement(1), tf.svc_complement(1, tails=(Tail.ALL_G, Tail.ALL_G)),
        tf.svc_complement(1, tails=(Tail.ALL_F, Tail.ALL_G)), tf.periodic_fat_cantor(1, 2)],
        ids=["AllF", "AllG", "AllF-AllG", "Periodic"])
    def test_scalar_infinity_names_the_tail(self, iset, cls, x):
        """A scalar call refuses an infinite point with the array path's
        message, naming the tail it lies on; ``lebesgue`` keeps its own."""
        f = cls(iset)
        with pytest.raises(PreconditionError) as scalar:
            f(x)
        with pytest.raises(PreconditionError) as array:
            f(np.array([x]))
        assert str(scalar.value) == str(array.value)
        tail = iset.tail_left if x < 0 else iset.tail_right
        on = "a Periodic" if tail is Tail.PERIODIC else f"an {tail.value}"
        assert str(scalar.value) == f"point {float(x)} must be finite on {on} tail"
        with pytest.raises(PreconditionError, match="^lebesgue query endpoints must be finite$"):
            iset.lebesgue(0, x) if x > 0 else iset.lebesgue(x, 0)

    @pytest.mark.parametrize("y", [math.inf, -math.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("cls", [tf.ScaleFunction, tf.DarningMap])
    @pytest.mark.parametrize("iset", [
        tf.svc_complement(1), tf.svc_complement(1, tails=(Tail.ALL_G, Tail.ALL_G)),
        tf.svc_complement(1, tails=(Tail.ALL_F, Tail.ALL_G)), tf.periodic_fat_cantor(1, 2)],
        ids=["AllF", "AllG", "AllF-AllG", "Periodic"])
    def test_every_inverse_refuses_infinity(self, iset, cls, y):
        """Each inverse refuses an infinite value on both paths, as the maps
        refuse an infinite point; the all-G scale inverse names its tail."""
        f = cls(iset)
        with pytest.raises(PreconditionError) as scalar:
            f.inverse(y)
        with pytest.raises(PreconditionError) as array:
            f.inverse(np.array([y]))
        assert str(scalar.value) == str(array.value)
        if cls is tf.ScaleFunction and (iset.tail_left if y < 0 else iset.tail_right) is Tail.ALL_G:
            assert str(scalar.value) == f"value {y} must be finite on an AllG tail"

    def test_periodic_inverse_of_an_exact_value_past_the_float_range(self):
        """An exact value past the float range folds back by whole periods,
        as the map sends the point there: no float is made of it, and the
        oracle's fold gives the same pair."""
        iset = tf.periodic_fat_cantor(1, 2)
        sf, oracle = tf.ScaleFunction(iset), OracleScale(OracleSet(iset))
        for x in (Fr(10**400) + Fr(1, 3), -Fr(10**400) - Fr(1, 3)):
            lo, hi = sf.inverse(sf(x))
            assert lo <= x <= hi
        for y in (Fr(10**400), -Fr(10**400), sf(Fr(10**400) + Fr(1, 3))):
            assert sf.inverse(y) == oracle.inverse(y), y


class TestPushforward:
    def test_lebesgue_source(self, svc1):
        sp = tf.pushforward_speed(tf.DarningMap(svc1, z=0))
        assert sp.carrier == (0, Fr(3, 4))
        assert sp.density_pieces == ((0, Fr(3, 4), 1),)
        assert sp.atoms == ((Fr(3, 8), Fr(1, 4)),)

    def test_f_indicator_source(self, svc1):
        sp = tf.pushforward_speed(tf.DarningMap(svc1, z=0), "f_indicator")
        assert sp.atoms == ()

    def test_trace_source_merges_endpoint_atoms(self, svc1):
        # the trace measure's atoms 1/8 at 3/8 and 5/8 merge into one of 1/4
        sp = pushed_through(tf.trace_measure(svc1), tf.DarningMap(svc1, z=0))
        assert sp.atoms == ((Fr(3, 8), Fr(1, 4)),)

    def test_unknown_source(self, svc1):
        for source in ("counting", "trace"):
            with pytest.raises(PreconditionError, match="unknown pushforward source"):
                tf.pushforward_speed(tf.DarningMap(svc1, z=0), source)

    def test_float_anchor_is_its_exact_value(self):
        # the last gap ends at w1, so its collapsed point is j(w1), the end of
        # the carrier, and no further
        iset = tf.build_interval_set(
            [(0.06608249672407474, 0.0666900087671014), (0.8413172796123832, 1.0)], (0.0, 1.0))
        z = 0.4540036441897423
        dm, exact = tf.DarningMap(iset, z=z), tf.DarningMap(iset, z=Fr(z))
        for source in tf.transforms.PUSHFORWARD_SOURCES:
            sp = tf.pushforward_speed(dm, source)
            assert sp == tf.pushforward_speed(exact, source)
            (lo, hi), positions = sp.carrier, [p for p, _ in sp.atoms]
            assert all(lo <= p <= hi for p in positions)
            assert all(p < q for p, q in zip(positions, positions[1:]))
        assert [p for p, _ in tf.pushforward_speed(dm).atoms][-1] == dm(1)

    def test_allg_tails_add_infinite_atoms(self, svc1_allg):
        sp = tf.pushforward_speed(tf.DarningMap(svc1_allg))
        lo, hi = sp.carrier
        masses = dict(sp.atoms)
        assert math.isinf(masses[lo]) and math.isinf(masses[hi])

    @settings(max_examples=50, deadline=None)
    @given(isets, window_fracs, window_fracs)
    def test_mass_preservation_between_f_points(self, iset, t0, t1):
        # sample query endpoints from F so collapsed atoms are never split
        f_pts = []
        for lo, hi in iset.f_components:
            f_pts.append(lo + (hi - lo) * Fr(1, 3))
            f_pts.append(lo + (hi - lo) * Fr(2, 3))
        if len(f_pts) < 2:
            return
        x = f_pts[int(t0 * (len(f_pts) - 1))]
        y = f_pts[int(t1 * (len(f_pts) - 1))]
        x, y = min(x, y), max(x, y)
        j = tf.DarningMap(iset)
        sp = tf.pushforward_speed(j)
        assert speed_mass(sp, j(x), j(y)) == y - x


class TestScalePushforward:
    def test_svc1_speed(self, svc1):
        sp = tf.scale_pushforward_speed(tf.ScaleFunction(svc1, anchor=0))
        assert sp.carrier == (0, Fr(1, 4))
        assert sp.density_pieces == ((0, Fr(1, 4), 1),)
        assert sp.atoms == ((0, Fr(3, 8)), (Fr(1, 4), Fr(3, 8)))

    def test_periodic_speed(self, periodic1):
        sp = tf.scale_pushforward_speed(tf.ScaleFunction(periodic1, anchor=0))
        assert sp.carrier == (0, Fr(5, 4))
        assert sp.atoms == ((0, Fr(3, 8)), (Fr(1, 4), Fr(3, 8)))

    def test_depth0_collapses(self):
        sf = tf.ScaleFunction(tf.svc_complement(0))
        with pytest.raises(PreconditionError, match="collapse"):
            tf.scale_pushforward_speed(sf)

    @settings(max_examples=40, deadline=None)
    @given(isets)
    def test_total_mass_matches_window(self, iset):
        if not iset.components:
            return
        sp = tf.scale_pushforward_speed(tf.ScaleFunction(iset, anchor=iset.window[0]))
        lo, hi = sp.carrier
        assert speed_mass(sp, lo, hi) == iset.window[1] - iset.window[0]


class TestSpeedMeasure:
    def test_round_trip_with_infinity(self):
        sp = tf.SpeedMeasure((0, 1), ((0, 1, 2),), atoms=((Fr(1, 2), Fr(1, 4)), (1, float("inf"))))
        text = json.dumps(sp.to_dict(), allow_nan=False)
        again = tf.SpeedMeasure.from_dict(json.loads(text))
        assert again.to_dict() == sp.to_dict() and sp.to_dict()["atoms"][-1][1] == "inf"
        assert math.isinf(again.atoms[-1][1]) and again == sp

    @pytest.mark.parametrize("field, value, message", [
        ("carrier", [0, "inf"], "carrier must be finite, got (0, inf)"),
        ("density_pieces", [[0, 1, "inf"]], "density inf is not finite"),
        ("atoms", [["1/2", "-inf"]], "atom mass -inf must be positive"),
    ], ids=["carrier end", "density", "negative mass"])
    def test_infinity_as_text_is_refused(self, field, value, message):
        # the codec reads "inf" and "-inf" as floats, which the checks refuse;
        # they were "malformed speed measure description" errors
        d = {**tf.SpeedMeasure((0, 1), ((0, 1, 1),)).to_dict(), field: value}
        with pytest.raises(ValidationError) as err:
            tf.SpeedMeasure.from_dict(d)
        assert str(err.value) == message

    def test_atom_outside_carrier_rejected(self):
        with pytest.raises(ValidationError):
            tf.SpeedMeasure((0, 1), ((0, 1, 1),), atoms=((2, 1),))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValidationError):
            tf.SpeedMeasure((0, 1), ((0, 1, 1),), atoms=((Fr(1, 2), 1), (Fr(1, 2), 2)))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValidationError):
            tf.SpeedMeasure((0, 1), ((0, 1, 1),), atoms=((Fr(1, 2), 0),))

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError):
            tf.SpeedMeasure((0, 1), ((0, 1, -1),))

    @pytest.mark.parametrize("carrier, pieces, atoms, message", [
        ((0, 1), ((0, 1, math.nan),), (), "density nan is not finite"),
        ((0, 1), ((0, 1, math.inf),), (), "density inf is not finite"),
        ((0, math.inf), ((0, 1, 1),), (), "carrier must be finite, got (0, inf)"),
        ((-math.inf, 1), (), (), "carrier must be finite, got (-inf, 1)"),
        ((0, 1), ((0, 1, 1),), ((math.nan, 1),), "atom at nan leaves the carrier"),
    ], ids=["nan density", "inf density", "inf carrier end", "-inf carrier end", "nan atom"])
    def test_non_finite_rejected(self, carrier, pieces, atoms, message):
        # a NaN density made a walk that never ended, an infinite one a walk
        # stuck at its start, and an infinite carrier an OverflowError
        with pytest.raises(ValidationError) as err:
            tf.SpeedMeasure(carrier, pieces, atoms)
        assert str(err.value) == message

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 2), st.integers(1, 64), st.integers(0, 10**6))
    def test_tent_integral_matches_loop(self, iset, kind, n, seed):
        # nodes of an h-grid, every atom, and points h either side of every
        # atom, where an infinite atom's kernel is zero or negative
        speed = speed_measures(iset)[kind % len(speed_measures(iset))]
        lo, hi = (float(x) for x in speed.carrier)
        h = (hi - lo) / n
        positions = np.array([float(p) for p, _ in speed.atoms])
        ys = np.concatenate([lo + h * np.arange(n + 1), positions, positions + h, positions - h,
                             np.random.default_rng(seed).uniform(lo, hi, size=8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            density = speed._tent_density(ys, h)
            for y, d in zip(ys.tolist(), density.tolist()):
                assert d == tent_integral_loop(speed, y, h, atoms=False), y

    # the holds of a walk chain are the tent integrals of its speed measure

    def test_tent_integral_interior(self):
        chain = build_chain(tf.SpeedMeasure((0, 1), ((0, 1, 1),)), 0.125)
        assert chain.holds[4] == pytest.approx(0.125**2, rel=1e-12)

    def test_tent_integral_boundary_is_half(self):
        # half the kernel lies past the end; a reflecting end folds it back
        sp = tf.SpeedMeasure((0, 1), ((0, 1, 1),))
        assert sp._tent_density(np.array([0.0]), 0.125)[0] == pytest.approx(0.5 * 0.125**2,
                                                                            rel=1e-12)
        holds = build_chain(sp, 0.125).holds
        assert holds[0] == holds[-1] == pytest.approx(0.125**2, rel=1e-12)

    def test_tent_integral_atom_contribution(self):
        # an atom adds h times its mass at the one node it snaps to
        h = 0.125
        for p in (0.5, 0.5 + h / 4):
            chain = build_chain(tf.SpeedMeasure((0, 1), ((0, 1, 1),), atoms=((p, 2.0),)), h)
            assert chain.atom_nodes == (4,)
            assert chain.holds[4] == pytest.approx(h * h + h * 2.0, rel=1e-12)
            assert chain.holds[5] == pytest.approx(h * h, rel=1e-12)

    def test_tent_integral_infinite_atom(self):
        sp = tf.SpeedMeasure((0, 1), ((0, 1, 1),), atoms=((0.5, float("inf")),))
        chain = build_chain(sp, 0.125)
        assert np.flatnonzero(chain.absorbing).tolist() == [4] and math.isinf(chain.holds[4])

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, st.booleans())
    def test_tables_match_constructor(self, iset, float_anchor):
        # every table-built measure against the validating constructor given
        # its exact tuples: bit-equal float tables and an equal measure
        def tried(build):
            # no measure where an image is one point
            try:
                return [build()]
            except PreconditionError:
                return []

        w0, w1 = (float(x) for x in iset.window)
        speeds = speed_measures(iset)
        for anchor in (0, w0 + 0.3 * (w1 - w0)) if float_anchor else (0,):
            speeds += tried(lambda: tf.scale_pushforward_speed(tf.ScaleFunction(iset, anchor)))
        if float_anchor and iset.f_components:
            lo, hi = iset.f_components[-1]
            for source in tf.transforms.PUSHFORWARD_SOURCES:
                speeds += tried(lambda: tf.pushforward_speed(
                    tf.DarningMap(iset, (float(lo) + float(hi)) / 2), source))
        for got in speeds:
            want = tf.SpeedMeasure(got.carrier, got.density_pieces, got.atoms)
            for g, w in zip(got._piece_arrays + got._atom_arrays,
                            want._piece_arrays + want._atom_arrays):
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
            assert got == want and hash(got) == hash(want)


class TestPeriodicFold:
    """A value past the image of a periodic scale function folds back by
    whole periods once, onto the whole plateau where it lands on the seam."""

    def found_set(self):
        return tf.build_interval_set([(0, Fr(3, 10)), (Fr(7, 15), Fr(101, 120))], (0, 1),
                                     tails=(Tail.PERIODIC, Tail.PERIODIC))

    def test_seam_plateau_from_below(self):
        sf = tf.ScaleFunction(self.found_set(), anchor=0)
        # s(-2) = -2 * 27/40, flat on the last F-component three periods back
        assert sf.inverse(Fr(-27, 20)) == (Fr(101, 120) - 3, -2)
        lo, hi = sf.inverse(np.array([-27 / 20]))
        assert _close(lo, [101 / 120 - 3]) and _close(hi, [-2.0])

    def test_seam_plateau_from_above(self):
        sf = tf.ScaleFunction(self.found_set(), anchor=0)
        assert sf.inverse(Fr(81, 40)) == (Fr(101, 120) + 2, 3)
        lo, hi = sf.inverse(np.array([81 / 40]))
        assert _close(lo, [101 / 120 + 2]) and _close(hi, [3.0])

    def test_seam_joins_both_edges(self):
        # F at both window edges: the plateau runs from the last F-component
        # of one period to the first of the next
        iset = tf.build_interval_set([(Fr(1, 4), Fr(1, 2))], (0, 1),
                                     tails=(Tail.PERIODIC, Tail.PERIODIC))
        sf = tf.ScaleFunction(iset, anchor=0)
        assert sf.inverse(Fr(-1, 2)) == (Fr(-5, 2), Fr(-7, 4))
        assert sf.inverse(Fr(3, 4)) == (Fr(5, 2), Fr(13, 4))
        lo, hi = sf.inverse(np.array([-0.5, 0.75]))
        assert _close(lo, [-2.5, 2.5]) and _close(hi, [-1.75, 3.25])

    def test_seam_value_inside_the_image(self):
        # the last component ends at w1 = 2, and s is flat from 2 to 19/8, the
        # first F-stretch of the next period: s(w1) is that plateau, not w1
        iset = tf.periodic_fat_cantor(1, 2)
        sf = tf.ScaleFunction(iset)
        assert sf(2) == sf(Fr(19, 8)) == Fr(5, 4)
        for y in (Fr(5, 4), 1.25):
            assert sf.inverse(y) == OracleScale(OracleSet(iset)).inverse(y) == (2, Fr(19, 8))
        lo, hi = sf.inverse(np.array([1.25]))
        assert (lo.tolist(), hi.tolist()) == ([2.0], [2.375])
        x = 2.2796293092061584
        lo, hi = sf.inverse(sf(x))
        assert lo <= x <= hi

    @pytest.mark.parametrize("tails, want", [
        ((Tail.PERIODIC, Tail.PERIODIC), (Fr(-1, 4), 0)),
        ((Tail.ALL_F, Tail.PERIODIC), (0, 0)),  # no seam at w0: clipped to the window
    ])
    def test_seam_value_at_w0(self, tails, want):
        # a component starts at w0, and s is 0 on [-1/4, 0], the last F-stretch
        # of the period before, where the left tail is Periodic
        iset = tf.build_interval_set([(0, Fr(1, 4)), (Fr(1, 2), Fr(3, 4))], (0, 1), tails=tails)
        sf = tf.ScaleFunction(iset)
        for y in (0, 0.0):
            assert sf.inverse(y) == OracleScale(OracleSet(iset)).inverse(y) == want
        lo, hi = sf.inverse(np.array([0.0]))
        assert (lo.tolist(), hi.tolist()) == ([float(want[0])], [float(want[1])])

    def test_float_fold_does_not_loop(self):
        # the float image of the seam point w0 inverts to a preimage holding it
        iset = tf.build_interval_set([(0, Fr(67, 240)), (Fr(149, 240), Fr(17, 24))], (0, 1),
                                     tails=(Tail.PERIODIC, Tail.PERIODIC))
        sf = tf.ScaleFunction(iset, anchor=0.3)
        lo, hi = sf.inverse(sf(0.0))
        assert lo - 1e-12 <= 0.0 <= hi + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.sampled_from([2, 3, Fr(5, 2)]), st.integers(0, 10**6))
    def test_float_round_trips_past_the_window(self, depth, period, seed):
        # a float point past the window comes back inside its preimage,
        # scalar and array alike, unless its value is the window's own (the
        # preimage of such a value is clipped to the window, but at a seam value)
        iset = tf.periodic_fat_cantor(depth, period)
        sf = tf.ScaleFunction(iset)
        p, (s0, s1) = float(iset.period), sf.window_image()
        xs = np.random.default_rng(seed).uniform(-2.5 * p, 3.5 * p, size=60)
        xs = xs[[not s0 <= sf(x) <= s1 for x in xs.tolist()]]
        for x in xs.tolist():
            lo, hi = sf.inverse(sf(x))
            assert lo - 1e-12 * max(1.0, abs(x)) <= x <= hi + 1e-12 * max(1.0, abs(x))
        lo, hi = sf.inverse(sf(xs))
        tol = 1e-12 * np.maximum(1.0, np.abs(xs))
        assert np.all((lo - tol <= xs) & (xs <= hi + tol))

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    @pytest.mark.parametrize("call, message", [
        (lambda p, x: tf.ScaleFunction(p).inverse(x), "value {} must be finite on a Periodic tail"),
        (lambda p, x: p.in_g(x), "point {} must be finite on a Periodic tail"),
        (lambda p, x: tf.DarningMap(p, z=x), "darning anchor must be finite, got {}"),
        # the array paths, which gave inf, nan and (nan, nan) with a warning
        (lambda p, x: tf.ScaleFunction(p)(np.array([0.5, x])),
         "point {} must be finite on a Periodic tail"),
        (lambda p, x: tf.DarningMap(p)(np.array([0.5, x])),
         "point {} must be finite on a Periodic tail"),
        (lambda p, x: tf.ScaleFunction(p).inverse(np.array([0.5, x])),
         "value {} must be finite on a Periodic tail"),
    ], ids=["scale inverse", "in_g", "darning anchor", "scale array", "darning array",
            "scale inverse array"])
    def test_infinity_raises(self, periodic1, call, message, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError) as err:
                call(periodic1, x)
        assert str(err.value) == message.format(x)


class TestDarningEdge:
    def test_past_the_last_collapsed_point(self):
        # a component at the right window edge leaves no F-span past its
        # collapsed point, which is j(w1): that value and its float both
        # invert to the component
        iset = tf.build_interval_set([(0, Fr(91, 240)), (Fr(17, 40), 1)], (0, 1))
        dm = tf.DarningMap(iset, z=(91 / 240 + 17 / 40) / 2)
        assert dm.inverse(dm(1)) == (Fr(17, 40), 1)
        lo, hi = dm.inverse(np.array([float(dm(1))]))
        assert (lo.tolist(), hi.tolist()) == ([17 / 40], [1.0])


# (call, error type, fragment of its message): each refusal of the module once
REFUSALS = {
    "darning without F": (lambda: tf.DarningMap(tf.IntervalSet((0, 1), [(0, 1)])),
                          PreconditionError, "F has no positive-length part in the window"),
    "carrier reversed": (lambda: tf.SpeedMeasure((1, 0)), ValidationError,
                         "carrier must satisfy lo < hi"),
    "zero-length piece": (lambda: tf.SpeedMeasure((0, 1), [(Fr(1, 2), Fr(1, 2), 1)]),
                          ValidationError, "has nonpositive length"),
    "piece outside the carrier": (lambda: tf.SpeedMeasure((0, 1), [(0, 2, 1)]), ValidationError,
                                  "leaves the carrier"),
    "overlapping pieces": (lambda: tf.SpeedMeasure((0, 1), [(0, Fr(1, 2), 1), (Fr(1, 4), 1, 1)]),
                           ValidationError, "density pieces overlap"),
    "speed from an empty dict": (lambda: tf.SpeedMeasure.from_dict({}), ValidationError,
                                 "malformed speed measure description"),
    "a speed measure is immutable": (lambda: setattr(tf.SpeedMeasure((0, 1)), "carrier", (0, 2)),
                                     AttributeError, "SpeedMeasure is immutable: cannot set 'carrier'"),
}


@pytest.mark.parametrize("call, kind, fragment", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()


# (call, what it gives): an input for each line of the module that no other
# test reaches
REACHED = {
    "a speed measure against another type": (lambda: tf.SpeedMeasure((0, 1)) == (0, 1), False),
}


@pytest.mark.parametrize("call, want", REACHED.values(), ids=list(REACHED))
def test_reached(call, want):
    assert call() == want
