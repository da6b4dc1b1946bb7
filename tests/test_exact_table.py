"""The exact integer table against the Fraction oracle in ``helpers``.

Every table (running G-masses, scale levels and plateaus, collapsed points
and F-spans) and every scalar and array map is compared with the oracle,
which computes on the endpoint objects one comparison at a time: exact and
equal in value where the result is exact, within 1e-12 where it is a float.
"""

import json
import math
import resource
import time
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import PreconditionError, Tail
from traceform.intervals import _decode

from helpers import (OracleDarning, OracleScale, OracleSet, darning_image_dict, geometry_sets,
                     probe_points, pushforward_per_gap, scale_pushforward_per_plateau, svc_g_mass)


def same(got, want) -> bool:
    """Exact and equal in value where ``want`` is exact (an int and a
    ``Fraction`` of the same value match); a float within 1e-12 max(1, |want|)
    where it is a float."""
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= 1e-12 * max(1.0, abs(want))
    return not isinstance(got, float) and got == want


def outcome(fn, *args):
    """fn(*args), or the class of the precondition it refuses."""
    try:
        return fn(*args)
    except PreconditionError:
        return PreconditionError


def _reach(iset):
    return 2.5 * iset.period if iset.period is not None else Fr(1, 2)


def exact_points(iset, rng):
    """Window edges, component ends, F-component midpoints, and random
    points of the window and of the tails past it, as exact values."""
    w0, w1 = iset.window
    pts = [w0, w1] + [e for ab in iset.components for e in ab]
    pts += [(lo + hi) / 2 for lo, hi in iset.f_components]
    span, reach = Fr(w1 - w0), Fr(_reach(iset)).limit_denominator(96)
    pts += [Fr(w0) - reach + (span + 2 * reach) * Fr(int(k), 10**6)
            for k in rng.integers(0, 10**6, size=30)]
    return pts


def some_probes(iset, rng, size=120):
    xs = probe_points(iset, rng, float(_reach(iset)))
    return rng.choice(xs, size=min(size, xs.size), replace=False).tolist()


def darning_anchor(iset):
    """The float midpoint of the last F-component, or None if it is not a
    valid anchor."""
    if not iset.f_components:
        return None
    lo, hi = iset.f_components[-1]
    z = (float(lo) + float(hi)) / 2
    return None if iset.in_g(z) or iset.is_endpoint(z) else z


class TestTables:
    @settings(max_examples=80, deadline=None)
    @given(geometry_sets)
    def test_set_tables(self, iset):
        o = OracleSet(iset)
        assert same([iset._prefix.get(j) for j in range(len(iset.g_prefix))], o.g_prefix)
        # the int table holds the exact running sums, whatever type the ends were given as
        assert [Fr(n, iset.den) for n in iset.g_prefix] == list(
            accumulate_exact(Fr(b) - Fr(a) for a, b in iset.components))
        assert same(iset.g_mass_window, o.g_mass_window)
        assert same(iset.f_mass_window, o.f_mass_window)
        assert same(iset.f_components, o.f_components) and iset.f_ranks == o.f_ranks
        assert same(iset.endpoints, o.endpoints)
        assert np.array_equal(iset.gap_widths, np.array([float(w) for w in o.widths]))

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, st.sampled_from([0, "float", "fraction"]))
    def test_scale_tables(self, iset, anchor):
        anchor = {0: 0, "float": float(iset.window[0]) + 0.3,
                  "fraction": Fr(iset.window[0]) + Fr(1, 3)}[anchor]
        # a float anchor stands for its exact value
        sf, want = tf.ScaleFunction(iset, anchor), OracleScale(OracleSet(iset), Fr(anchor))
        assert same([sf._levels.get(j) for j in range(len(want.levels))], want.levels)
        # the plateaus as atoms: each value and its F-width
        got = speed_atoms(tf.scale_pushforward_speed, sf)
        assert twins(got, speed_atoms(scale_pushforward_per_plateau, sf))
        if not isinstance(got, str):
            assert same(got, tuple((v, hi - lo) for v, lo, hi in want.plateaus))
        assert same(sf.window_image(), (want.levels[0], want.levels[-1]))
        levels, values, lows, highs = sf._tables
        assert np.array_equal(levels, [float(v) for v in want.levels])
        columns = list(zip(*want.plateaus)) or [(), (), ()]
        for got, col in zip((values, lows, highs), columns):
            assert np.array_equal(got, np.array([float(v) for v in col]))

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, st.booleans())
    def test_darning_tables(self, iset, float_z):
        z = darning_anchor(iset) if float_z else None
        try:
            dm = tf.DarningMap(iset, z)
        except PreconditionError:
            return  # F has no positive-length part in the window
        want = OracleDarning(OracleSet(iset), dm.z)
        assert same(dm._ends, want.ends)
        collapsed = dm.image()["collapsed"]
        assert [c["index"] for c in collapsed] == list(range(len(iset.components)))
        assert same([_decode(c["position"]) for c in collapsed], want.positions)
        assert same([_decode(c["width"]) for c in collapsed], OracleSet(iset).widths)
        got = speed_atoms(tf.pushforward_speed, dm)
        assert twins(got, speed_atoms(pushforward_per_gap, dm))
        if not isinstance(got, str):
            finite = [(p, w) for p, w in got if w != math.inf]
            assert same(finite, tuple(zip(want.positions, OracleSet(iset).widths)))
        positions, *spans = dm._tables
        assert floats_match(positions, want.positions)
        for got, col in zip(spans, list(zip(*want.spans)) or [()] * 4):
            assert floats_match(got, col)


def speed_or_error(build):
    """build(), or the type and message of the error it raises: both
    builders refuse a window whose image is one point."""
    try:
        return build()
    except tf.TraceformError as exc:
        return f"{type(exc).__name__}: {exc}"


def speed_atoms(build, f):
    """The atoms of the speed measure build(f), or its error."""
    speed = speed_or_error(lambda: build(f))
    return speed if isinstance(speed, str) else speed.atoms


class TestTableSpeeds:
    """The speed measures and the darning image read from the tables against
    their former per-gap builders: equal atoms of the same types, equal
    dicts, and bit-equal float64 atom arrays, for exact and float anchors."""

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, st.booleans())
    def test_against_per_gap_builders(self, iset, float_anchor):
        sf = tf.ScaleFunction(iset, float(iset.window[0]) + 0.3 if float_anchor else 0)
        pairs = [(lambda: tf.scale_pushforward_speed(sf), lambda: scale_pushforward_per_plateau(sf))]
        try:
            dm = tf.DarningMap(iset, darning_anchor(iset) if float_anchor else None)
        except PreconditionError:
            dm = None  # F has no positive-length part in the window
        if dm is not None:
            assert dm.image() == darning_image_dict(dm)
            for source in tf.transforms.PUSHFORWARD_SOURCES:
                pairs.append((lambda s=source: tf.pushforward_speed(dm, s),
                              lambda s=source: pushforward_per_gap(dm, s)))
        for build, former in pairs:
            got, want = speed_or_error(build), speed_or_error(former)
            if isinstance(want, str):
                assert got == want
                continue
            assert got == want and got.to_dict() == want.to_dict()
            assert twins(got.carrier, want.carrier) and twins(got.atoms, want.atoms)
            assert twins(got.density_pieces, want.density_pieces)
            for g, w in zip(got._atom_arrays, want._atom_arrays):
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def floats_match(got, want) -> bool:
    """A float table against the oracle's numbers: the float of each exact
    one, and within 1e-12 of each float one."""
    return len(got) == len(want) and all(
        abs(g - w) <= 1e-12 * max(1.0, abs(w)) if isinstance(w, float) else g == float(w)
        for g, w in zip(got.tolist(), want))


def accumulate_exact(widths):
    total = Fr(0)
    yield total
    for w in widths:
        total += w
        yield total


class TestScalarMaps:
    """Each scalar call at exact points and at float probe points, with the
    default anchors and with float anchors."""

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_against_oracle(self, iset, seed):
        rng = np.random.default_rng(seed)
        o = OracleSet(iset)
        w0 = iset.window[0]
        maps = [(tf.ScaleFunction(iset), OracleScale(o)),
                (tf.ScaleFunction(iset, float(w0) + 0.3), OracleScale(o, Fr(float(w0) + 0.3)))]
        for z in (None, darning_anchor(iset)):
            try:
                dm = tf.DarningMap(iset, z)
            except PreconditionError:
                continue
            maps.append((dm, OracleDarning(o, dm.z)))
        for x in exact_points(iset, rng) + some_probes(iset, rng):
            lo, hi = (w0, x) if x >= w0 else (x, w0)
            for which in ("G", "F"):
                assert same(iset.lebesgue(lo, hi, which), o.lebesgue(lo, hi, which)), (x, which)
            assert same(iset.component_index(x), o.component_index(x)), x
            assert same(iset.in_g(x), o.in_g(x)), x
            assert iset.is_endpoint(x) == o.is_endpoint(x), x
            for f, g in maps:
                y = f(x)
                assert same(y, g(x)), (x, f)
                got, want = outcome(f.inverse, y), outcome(g.inverse, y)
                assert got is want if want is PreconditionError else same(got, want), (x, y, f)

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_array_maps(self, iset, seed):
        rng = np.random.default_rng(seed)
        xs = probe_points(iset, rng, float(_reach(iset)))
        o = OracleSet(iset)
        maps = [(tf.ScaleFunction(iset), OracleScale(o))]
        try:
            dm = tf.DarningMap(iset)
            maps.append((dm, OracleDarning(o, dm.z)))
        except PreconditionError:
            pass
        for f, g in maps:
            want = np.array([float(g(Fr(x))) for x in xs.tolist()])
            bound = 1e-12 * np.maximum(1.0, np.abs(want))
            if isinstance(f, tf.DarningMap):
                # a window point within the endpoint slack of a gap's closure
                # (``IntervalSet.end_slack``) moves onto its collapsed point
                i = iset.closure_index(tf.transforms._fold(iset, xs, "F")[0])
                bound = bound + np.append(iset.end_slack, 0.0)[i]
            assert np.all(np.abs(f(xs) - want) <= bound)


def bits(fn, *args):
    """fn(*args) as the type and bits of each number (a float by its hex, so
    the sign of a zero counts), or the type and message of the error it raises."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return _bits(got)


def _bits(v):
    if isinstance(v, tuple):
        return tuple(_bits(u) for u in v)
    return type(v), v.hex() if isinstance(v, float) else v


class TestFormerScalarPath:
    """``lebesgue`` and the scale and darning maps and inverses against the
    oracle, the former ``Fraction`` scalar path, which computes with
    ``Fraction`` and float arithmetic on the numbers themselves: the same
    type and the same bits for every result, and the same error type and
    message, at exact points, float probes, ints, signed zeros, infinities
    and NaN, for exact and float anchors."""

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_bit_for_bit(self, iset, seed):
        rng = np.random.default_rng(seed)
        o = OracleSet(iset)
        w0, w1 = iset.window
        a = float(w0) + 0.3 * float(w1 - w0)
        maps = [tf.ScaleFunction(iset, anchor) for anchor in (0, a, Fr(1, 3))]
        for z in (None, darning_anchor(iset)):
            try:
                maps.append(tf.DarningMap(iset, z))
            except PreconditionError:
                continue
        maps = [(f, oracle_map(f, o)) for f in maps]
        xs = exact_points(iset, rng) + some_probes(iset, rng) + [0, 1, -2, 3, 0.0, -0.0]
        for x in xs + [math.inf, -math.inf, math.nan]:  # the last ones refused alike
            for lo, hi in ((w0, x), (x, w0), (a, x), (x, x)):
                for which in ("G", "F"):
                    assert bits(iset.lebesgue, lo, hi, which) == bits(
                        o.lebesgue, lo, hi, which), (lo, hi, which)
            for f, g in maps:
                y = bits(f, x)
                assert y == bits(g, x), (x, f)
                for v in ([f(x)] if y[0] is not PreconditionError else []) + [x]:
                    assert bits(f.inverse, v) == bits(g.inverse, v), (x, v, f)

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets.filter(lambda s: s.period is not None), st.integers(0, 10**6))
    def test_periodic_past_the_window(self, iset, seed):
        """Queries past a Periodic window, folded back by whole periods: exact,
        float and int ends, on one side of the window or across it."""
        rng = np.random.default_rng(seed)
        o = OracleSet(iset)
        w0, w1 = iset.window
        p = iset.period
        xs = [Fr(w0) - 3 * p + 7 * p * Fr(int(k), 997) for k in rng.integers(0, 997, size=12)]
        xs += [float(x) for x in rng.uniform(float(w0 - 3 * p), float(w1 + 3 * p), size=12)]
        xs += [w0 - p, w1 + p, float(w1 + 2 * p), int(math.floor(w0 - p)), int(math.ceil(w1 + p))]
        xs += [e + k * p for e in iset.endpoints[:3] for k in (-2, 1)]
        for lo in xs:
            for hi in xs:
                for which in ("G", "F"):
                    assert bits(iset.lebesgue, lo, hi, which) == bits(
                        o.lebesgue, lo, hi, which), (lo, hi, which)


def oracle_map(f, oset):
    """The oracle of a scale function or darning map, at its own anchor."""
    if isinstance(f, tf.ScaleFunction):
        return OracleScale(oset, f.anchor)
    return OracleDarning(oset, f.z)


def test_periodic_fold_builds_one_fraction(monkeypatch):
    """An exact query past a Periodic window builds one ``Fraction``, its
    result, as one inside the window does, and a float query whose result is
    a float builds none: the fold stays on int pairs."""
    iset = tf.periodic_fat_cantor(2, 2)
    calls = [(Fr(-7, 3), Fr(5, 2)), (Fr(1, 3), Fr(1, 2)), (Fr(-9, 2), Fr(17, 3)), (-7 / 3, 2.5),
             (-11.2, -4.3), (Fr(1, 5), 9.75)]
    iset.lebesgue(*calls[0])  # fills the set's caches
    built = []
    new = Fr.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    counts = []
    monkeypatch.setattr(Fr, "__new__", staticmethod(counting_new))
    for lo, hi in calls:
        for which in ("G", "F"):
            built.clear()
            got = iset.lebesgue(lo, hi, which)
            counts.append((len(built), type(got)))
    monkeypatch.undo()
    assert counts == [(1, Fr)] * 6 + [(0, float)] * 6


def test_float_queries_build_no_fraction(monkeypatch):
    """A float query of the darning map, or of the F-mass of ``lebesgue``,
    whose result is a float builds no ``Fraction`` on the way: exact parts
    stay int pairs and meet the float as n / d."""
    iset = tf.svc_complement(3, tails=(Tail.ALL_G, Tail.ALL_F))
    maps = [tf.DarningMap(iset), tf.DarningMap(iset, darning_anchor(iset))]
    xs = probe_points(iset, np.random.default_rng(3)).tolist()
    calls = [(dm, x) for dm in maps for x in xs]
    calls += [(lambda x, lo=lo: iset.lebesgue(lo, x, "F"), x)
              for lo in (iset.window[0], -0.25, Fr(1, 3)) for x in xs if x >= lo]
    # the first pass fills every cache; the second counts
    calls = [(f, x) for f, x in calls if isinstance(f(x), float)]
    assert len(calls) > 300
    built = []
    new = Fr.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fr, "__new__", staticmethod(counting_new))
    for f, x in calls:
        f(x)
    monkeypatch.undo()
    assert not built, built[:3]


def fraction_twin(iset):
    """The set rebuilt from the ``Fraction`` of each of its given ends, with
    the default period (a given float period need not be the exact length)."""
    d = iset.to_dict()
    return tf.IntervalSet([Fr(x) for x in d["window"]],
                          [(Fr(a), Fr(b)) for a, b in d["components"]],
                          iset.tail_left, iset.tail_right)


def twins(got, want) -> bool:
    """Equal in value and in type, all the way down."""
    if isinstance(want, (tuple, list)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(twins(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


class TestFractionTwin:
    """A set and its rebuild from the ``Fraction`` of each given end are one
    set: every table, scalar map and inverse gives the same numbers of the
    same type, whether the ends were given as ints, Fractions or floats."""

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_given_ends_are_exact(self, iset, seed):
        rng = np.random.default_rng(seed)
        twin = fraction_twin(iset)
        assert twin == iset and twins(twin.window, iset.window) and twin.period == iset.period
        assert twins(twin.components, iset.components)
        assert twins(twin.f_components, iset.f_components)
        assert twins([twin._prefix.get(j) for j in range(len(twin.g_prefix))],
                     [iset._prefix.get(j) for j in range(len(iset.g_prefix))])
        w0 = iset.window[0]
        pairs = [(tf.ScaleFunction(twin, a), tf.ScaleFunction(iset, a)) for a in (0, float(w0) + 0.3)]
        for z in (None, darning_anchor(iset)):
            try:
                pairs.append((tf.DarningMap(twin, z), tf.DarningMap(iset, z)))
            except PreconditionError:
                continue
        for f, g in pairs:
            assert twins([f._levels.get(j) for j in range(len(f._levels.nums))],
                         [g._levels.get(j) for j in range(len(g._levels.nums))])
            assert np.array_equal(f._tables[0], g._tables[0])
            if isinstance(f, tf.DarningMap):
                assert f.image() == g.image()
                assert twins(speed_atoms(tf.pushforward_speed, f),
                             speed_atoms(tf.pushforward_speed, g))
        for x in exact_points(iset, rng) + some_probes(iset, rng):
            lo, hi = (w0, x) if x >= w0 else (x, w0)
            for which in ("G", "F"):
                assert twins(twin.lebesgue(lo, hi, which), iset.lebesgue(lo, hi, which)), x
            for f, g in pairs:
                y = g(x)
                assert twins(f(x), y), (x, g)
                assert twins(outcome(f.inverse, y), outcome(g.inverse, y)), (x, y, g)


class TestExactAnchor:
    """A float anchor and its ``Fraction`` are one anchor: every scalar map
    and inverse, table, image and pushforward gives the same numbers of the
    same type, and the same float64 tables bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(geometry_sets, st.integers(0, 10**6))
    def test_float_anchor_is_its_fraction(self, iset, seed):
        rng = np.random.default_rng(seed)
        w0, w1 = (float(v) for v in iset.window)
        a = w0 + 0.3 * (w1 - w0)
        pairs = [(tf.ScaleFunction(iset, a), tf.ScaleFunction(iset, Fr(a)))]
        z = darning_anchor(iset)
        if z is not None:
            pairs.append((tf.DarningMap(iset, z), tf.DarningMap(iset, Fr(z))))
        for f, g in pairs:
            for t, u in zip(f._tables, g._tables):
                assert t.dtype == u.dtype and t.shape == u.shape and t.tobytes() == u.tobytes()
            if isinstance(f, tf.DarningMap):
                assert twins(f._ends, g._ends)
                assert json.dumps(f.image()) == json.dumps(g.image())
                speeds = [(lambda h, s=s: tf.pushforward_speed(h, s))
                          for s in tf.transforms.PUSHFORWARD_SOURCES]
            else:
                assert twins(f.window_image(), g.window_image())
                speeds = [tf.scale_pushforward_speed]
            for build in speeds:
                got, want = speed_or_error(lambda: build(f)), speed_or_error(lambda: build(g))
                if isinstance(want, str):
                    assert got == want
                    continue
                assert twins(got.carrier, want.carrier)
                assert twins(got.density_pieces, want.density_pieces)
                assert twins(got.atoms, want.atoms)
                for t, u in zip(got._piece_arrays + got._atom_arrays,
                                want._piece_arrays + want._atom_arrays):
                    assert t.dtype == u.dtype and t.shape == u.shape and t.tobytes() == u.tobytes()
        for x in exact_points(iset, rng) + some_probes(iset, rng):
            for f, g in pairs:
                y = g(x)
                assert twins(f(x), y), (x, g)
                assert twins(outcome(f.inverse, y), outcome(g.inverse, y)), (x, y, g)


def test_depth20_allg():
    """svc_complement(20) with all-G tails (1,048,575 gaps): its G-mass, the
    scalar maps and inverses at exact and float points against the prefix-sum
    oracle, and the array maps against the scalar ones."""
    start = time.perf_counter()
    iset = tf.svc_complement(20, tails=(Tail.ALL_G, Tail.ALL_G))
    assert len(iset.g_prefix) == 2**20
    assert iset.g_mass_window == Fr(1, 2) * (1 - Fr(1, 2**20))
    sf, dm = tf.ScaleFunction(iset), tf.DarningMap(iset)
    z = dm.z
    rng = np.random.default_rng(20)
    exact = [Fr(int(k), 10**7) for k in rng.integers(-2 * 10**6, 12 * 10**6, size=150)]
    exact += [Fr(int(k), 2**41) for k in rng.integers(0, 2**41, size=50)]
    floats = rng.uniform(-0.2, 1.2, size=150).tolist()

    def g(x):  # G-mass of [0, x]: all of it past the window edges
        if x < 0:
            return Fr(x)
        return svc_g_mass(20, min(x, 1)) + max(Fr(x) - 1, 0)

    for x in exact + floats:
        want_s = g(x)
        want_j = (Fr(x) - Fr(z)) - (g(x) - g(z)) if 0 <= x <= 1 else None
        got = iset.lebesgue(min(x, 0), max(x, 0))
        assert abs(Fr(got) - abs(want_s)) <= (0 if isinstance(x, Fr) else Fr(1, 10**12))
        y = sf(x)
        if isinstance(x, Fr):
            assert type(y) is Fr and y == want_s
        else:
            assert abs(y - float(want_s)) <= 1e-12
        lo, hi = sf.inverse(y)
        assert lo <= x <= hi if isinstance(x, Fr) else lo - 1e-12 <= x <= hi + 1e-12
        if want_j is None:
            continue
        j = dm(x)
        if isinstance(x, Fr):
            assert type(j) is Fr and j == want_j
        else:
            assert abs(j - float(want_j)) <= 1e-12
        lo, hi = dm.inverse(j)
        assert lo <= x <= hi if isinstance(x, Fr) else lo - 1e-12 <= x <= hi + 1e-12
    xs = np.array(floats)
    assert np.all(np.abs(sf(xs) - [sf(x) for x in floats]) <= 1e-12)
    inside = xs[(xs >= 0) & (xs <= 1)]
    assert np.all(np.abs(dm(inside) - [dm(x) for x in inside.tolist()]) <= 2e-12)
    lo, hi = sf.inverse(sf(xs))
    assert np.all((lo - 1e-12 <= xs) & (xs <= hi + 1e-12))
    print(f"depth 20: {time.perf_counter() - start:.1f} s, peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")


def test_infinite_queries_are_refused(svc1):
    sf, dm = tf.ScaleFunction(svc1, anchor=0), tf.DarningMap(svc1, z=0)
    for f in (sf, dm):
        for x in (float("inf"), float("-inf"), float("nan")):
            try:
                f(x)
            except PreconditionError:
                continue
            raise AssertionError(f"{f} accepted {x}")
    assert not svc1.in_g(float("inf"))
    # NaN lies nowhere: every query of the set refuses it, scalar or in an array
    queries = [(q, float("nan")) for q in (svc1.component_index, svc1.in_g, svc1.is_endpoint)]
    queries += [(q, np.array([0.5, np.nan])) for q in (svc1.classify, svc1.closure_index)]
    queries.append((lambda xs: svc1.classify(xs, nodes=True), np.array([np.nan])))
    for query, x in queries:
        with pytest.raises(PreconditionError, match="^query values must not be NaN$"):
            query(x)
