"""Work taken out of every call, against the former forms kept in ``helpers``.

The fold of points that are already in the window, the widened closure ends,
the validation checks, the check of an argument passed once for two, the
trace match of equal grids, the exact pairs the scalar inverses return, the
classes of each set's adapted grid and the darning images of it, the
adaptedness check of each grid and the grid diff under the slopes are each
done once now, five CSV writers are one and two CSV readers are one, and
the three walks share one set-up, one end and one recorder.  Every result keeps its type and
its bits, the sign of a zero and a NaN included, and every error its type,
message and precedence.
"""

import math
from collections import Counter
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import traceform as tf
from traceform import Tail
from traceform.darning import _trace_match, darn_trace
from traceform.gridfn import _collapse_nodes
from traceform.intervals import _csv_text
from traceform.simulate import _result_from_samples
from traceform.transforms import _fold

from helpers import (OracleDarning, OracleScale, OracleSet, _float_pair_set,
                     former_classify_nodes, former_closure_index, former_collapse_nodes,
                     former_evaluate, former_feller_csv, former_fold, former_grid_checks,
                     former_grid_csv, former_jump_table_csv, former_missing_nodes,
                     former_path_csv, former_placed, former_result_from_samples,
                     former_scale_csv, former_simulate_xs, former_slopes,
                     former_trace_checks, former_trace_match, former_walk_chain,
                     former_walk_occupation, geometry_sets, probe_points, random_complement_member,
                     random_gridfn, random_iset, random_subspace_member, random_trace_fn,
                     random_vanishing)

seeds = st.integers(0, 10**6)


def outcome(fn, *args, **kwargs):
    """fn(...), or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def raw(a):
    """An array as its dtype, shape and bytes; a float as its type and hex."""
    if isinstance(a, float):
        return type(a), a.hex()
    return a.dtype, a.shape, a.tobytes()


def edge_arrays(iset):
    """Points exactly at the window ends, signed zeros, NaN, empty and
    inside-only arrays, and an array past both ends."""
    w0, w1 = (float(x) for x in iset.window)
    inside = np.linspace(w0, w1, 9)
    return [inside, np.array([w0, w1]), np.array([-0.0, 0.0, w0, w1]),
            np.array([np.nan]), np.array([np.nan, w0 - 1.0, w1 + 1.0]), np.zeros(0),
            inside.reshape(3, 3), np.array([w0 - 0.5, w1 + 2.5, -0.0])]


class TestFold:
    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, seeds)
    def test_bit_for_bit(self, iset, seed):
        xs = probe_points(iset, np.random.default_rng(seed), beyond=1.5)
        w0, w1 = (float(x) for x in iset.window)
        arrays = [xs, xs[(xs >= w0) & (xs <= w1)]] + edge_arrays(iset)
        for arr in arrays:
            for which in ("G", "F"):
                got, want = _fold(iset, arr, which), former_fold(iset, arr, which)
                assert [raw(a) for a in got] == [raw(a) for a in want], (arr, which)

    @pytest.mark.parametrize("window", [(0, 1), (-1, 0)])
    def test_signed_zero_at_a_window_end(self, window):
        iset = tf.build_interval_set([(Fr(window[0]) + Fr(1, 4), Fr(window[0]) + Fr(1, 2))],
                                     window)
        xin, gain = _fold(iset, np.array([-0.0, 0.0]), "F")
        assert [x.hex() for x in xin.tolist()] == ["-0x0.0p+0", "0x0.0p+0"]
        assert not np.signbit(gain).any()


class TestClosure:
    @settings(max_examples=80, deadline=None)
    @given(geometry_sets, seeds)
    def test_same_ints(self, iset, seed):
        xs = probe_points(iset, np.random.default_rng(seed), beyond=0.5)
        far = [np.array([np.nan, np.inf, -np.inf]), np.array([np.inf, -np.inf])]
        for arr in [xs, *far] + edge_arrays(iset):
            if np.isnan(arr).any():  # NaN lies nowhere: refused, as a scalar NaN query is
                refused = (tf.PreconditionError, "query values must not be NaN")
                assert outcome(iset.closure_index, arr) == refused
                assert outcome(iset.classify, arr, nodes=True) == refused
                continue
            assert raw(iset.closure_index(arr)) == raw(former_closure_index(iset, arr))
            assert raw(iset.classify(arr, nodes=True)) == raw(former_classify_nodes(iset, arr))
        assert raw(tf.adapted_grid(iset)) == raw(np.union1d(iset._adapted, np.array([])))


def _grid_cases():
    good = [0.0, 0.25, 0.5, 1.0]
    cases = [(good, [1.0, 2.0, 3.0, 4.0])]
    for at in range(4):  # a NaN node anywhere
        cases.append((good[:at] + [np.nan] + good[at + 1:], [0.0] * 4))
    cases += [
        ([-np.inf, 0.25, 0.5, 1.0], [0.0] * 4), ([0.0, 0.25, 0.5, np.inf], [0.0] * 4),
        ([-np.inf, np.inf], [0.0, 0.0]), ([0.0, 0.25, 0.25, 1.0], [0.0] * 4),
        ([1.0, 0.5, 0.25, 0.0], [0.0] * 4), ([0.0, 0.5, 0.25, 1.0], [0.0] * 4),
        (good, [0.0, np.inf, 0.0, 0.0]), (good, [0.0, 0.0, 0.0, -np.inf]),
        (good, [np.nan, 0.0, 0.0, 0.0]),
        # precedence: the first failing check names the error
        ([0.0, np.nan, 0.5, 1.0], [np.inf] * 4), ([0.0, 0.25, 0.25, np.inf], [0.0] * 4),
        ([0.0, 0.25, 0.5, np.inf], [np.inf] * 4), ([1.0, 0.0], [np.nan, 0.0]),
        ([0.0, 1.0], [0.0]), ([0.0], [0.0]), ([], []), ([[0.0, 1.0]], [[0.0, 1.0]]),
    ]
    return cases


_special = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, np.nan, np.inf, -np.inf, 1e308, -1e308])


class TestValidation:
    @pytest.mark.parametrize("grid, values", _grid_cases())
    def test_grid_function_errors(self, grid, values):
        got = outcome(tf.GridFunction, np.array(grid), np.array(values))
        want = outcome(former_grid_checks, np.array(grid), np.array(values))
        assert (got if isinstance(got, tuple) else None) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_special, max_size=5), st.lists(_special, max_size=5))
    def test_grid_function_errors_drawn(self, grid, values):
        self.test_grid_function_errors(grid, values)

    @pytest.mark.parametrize("edit", range(7))
    def test_trace_function_errors(self, svc1, edit):
        nodes = np.array([float(x) for x in svc1._adapted])
        values = np.zeros(nodes.size)
        if edit == 1:
            nodes[1] = np.nan
        elif edit == 2:
            nodes[-1] = np.inf
        elif edit == 3:
            nodes[0] = -np.inf
        elif edit == 4:
            nodes[2] = nodes[1]
        elif edit == 5:
            nodes = nodes[::-1].copy()
        elif edit == 6:
            values[0] = np.inf  # refused as a grid function refuses it
        got = outcome(tf.TraceFunction, svc1, nodes, values)
        assert (got if isinstance(got, tuple) else None) == outcome(
            former_trace_checks, svc1, nodes, values)

    @pytest.mark.parametrize("x", [
        0.5, 1.0, 1.0 + 5e-13, 1.0 + 2e-12, -2e-12, np.nan, np.inf, -np.inf, [], np.zeros(0),
        [0.2, 0.7], [np.nan, -5.0], [np.nan, 5.0], [np.nan, np.nan], np.array(0.3),
        np.array(-1.0), [[0.1, 0.9], [0.0, 1.0]], [[0.1, 3.0]],
    ])
    def test_evaluation_span(self, x):
        u = tf.GridFunction(np.array([0.0, 0.25, 1.0]), np.array([1.0, -2.0, 0.5]))
        got, want = outcome(u, x), outcome(former_evaluate, u, x)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert raw(got) == raw(want)


def _report_bits(rep):
    if isinstance(rep, tuple):  # an error
        return rep
    return rep.form, rep.value.hex(), [raw(a) for a in rep.cells]


def _twin(u):
    return tf.GridFunction(u.grid.copy(), u.values.copy())


class TestOneArgument:
    """f(u) checks u once and gives what f(u, u') gives for an equal u' that
    is another object, errors naming the first argument included."""

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_grid_forms(self, seed):
        rng = np.random.default_rng(seed)
        iset = random_iset(rng)
        for form, inputs in ((tf.subspace_energy, (random_subspace_member(rng, iset),
                                                  random_gridfn(rng, iset))),
                             (tf.part_energy, (random_vanishing(rng, iset),
                                               random_gridfn(rng, iset)))):
            for u in inputs:
                one = outcome(form, u, iset=iset)
                assert _report_bits(one) == _report_bits(outcome(form, u, _twin(u), iset=iset))
                assert isinstance(one, tuple) == (u is inputs[1])  # members pass, others fail
                if isinstance(one, tuple):
                    assert "first argument" in one[1]

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_trace_complement(self, seed):
        rng = np.random.default_rng(seed)
        iset = random_iset(rng)
        member = tf.restrict_to_f(random_complement_member(rng, tf.ScaleFunction(iset), flat=True),
                                  iset)
        for phi in (member, random_trace_fn(rng, iset)):
            twin = tf.TraceFunction(iset, phi.nodes.copy(), phi.values.copy())
            one = outcome(tf.trace_complement_energy, phi)
            assert _report_bits(one) == _report_bits(outcome(tf.trace_complement_energy, phi, twin))
            if phi is member:
                assert not isinstance(one, tuple)


class TestTraceMatch:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_equivalence_report(self, seed):
        rng = np.random.default_rng(seed)
        iset = random_iset(rng)
        dm = tf.DarningMap(iset)
        u = random_complement_member(rng, tf.ScaleFunction(iset), flat=True)
        uh, phih = tf.darn_function(u, dm), darn_trace(tf.restrict_to_f(u, iset), dm)
        got = tf.equivalence_report([u], dm).samples[0].trace_match
        assert raw(got) == raw(former_trace_match(uh, phih))

    @settings(max_examples=80, deadline=None)
    @given(seeds, st.sampled_from(["equal", "differ", "signed zero", "span slack", "span"]))
    def test_grids(self, seed, kind):
        rng = np.random.default_rng(seed)
        grid = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=6)]))
        other = grid.copy()
        if kind == "differ":
            other = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=4)]))
        elif kind == "signed zero":
            grid[0] = -0.0
        elif kind == "span slack":
            other[-1] = 1.0 + 5e-13
        elif kind == "span":
            other[-1] = 1.5
        a = tf.GridFunction(grid, rng.normal(size=grid.size))
        b = tf.GridFunction(other, rng.normal(size=other.size))
        for x, y in ((a, b), (b, a), (a, a)):
            got, want = outcome(_trace_match, x, y), outcome(former_trace_match, x, y)
            assert (got == want) if isinstance(want, tuple) else raw(got) == raw(want)


def test_repeated_inverses_build_no_fraction(monkeypatch):
    """A scalar inverse onto a plateau of the scale function or a collapsed
    point of the darning map returns the set's exact pair, built on its
    first return: asked again, for an exact or a float value, it builds no
    ``Fraction``."""
    iset = tf.svc_complement(3, tails=(Tail.ALL_G, Tail.ALL_F))
    sf, dm = tf.ScaleFunction(iset), tf.DarningMap(iset)
    f_mids = [(lo + hi) / 2 for lo, hi in iset.f_components]
    g_mids = [(a + b) / 2 for a, b in iset.components]
    calls = [(sf.inverse, v) for x in f_mids for v in (sf(x), float(sf(x)))]
    calls += [(dm.inverse, v) for x in g_mids for v in (dm(x), float(dm(x)))]
    first = [f(y) for f, y in calls]
    assert all(lo < hi for lo, hi in first)
    built = []
    new = Fr.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fr, "__new__", staticmethod(counting_new))
    again = [f(y) for f, y in calls]
    monkeypatch.undo()
    assert not built, built[:3]
    assert all(x is y for a, b in zip(again, first) for x, y in zip(a, b))
    n = 2 * len(f_mids)
    assert first[:n:2] == list(iset.f_components) and first[n::2] == list(iset.components)


class TestSlopes:
    @settings(max_examples=80, deadline=None)
    @given(seeds, st.sampled_from([1.0, 1e300]))
    def test_bit_for_bit(self, seed, scale):
        rng = np.random.default_rng(seed)
        u = random_gridfn(rng, random_iset(rng), scale=scale)
        assert raw(u.slopes) == raw(former_slopes(u))

    def test_subnormal_cells(self):
        # cells too short for the change across them give infinite slopes,
        # and no change over a subnormal cell a zero one
        grid = np.array([0.0, 5e-324, 1e-323, 1.0, np.nextafter(1.0, 2.0)])
        u = tf.GridFunction(grid, np.array([0.0, 1e300, 1e300, -1.0, 1e-300]))
        assert np.isinf(u.slopes).any()
        assert raw(u.slopes) == raw(former_slopes(u))


def _typed(fn, *args):
    """fn(...) as the type and bits of each number it returns, or the type and
    message of the error it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)

    def bits(v):
        return type(v), v.hex() if isinstance(v, float) else v
    return [bits(v) for v in out] if isinstance(out, tuple) else bits(out)


class TestNumpyFloatQueries:
    """A numpy float64 query is taken as its Python float: ``lebesgue``, both
    maps and both inverses give the same type and bits for it as for that
    float, whichever side of an exact value it stands.  A numpy float32 is
    not a float, so it keeps its exact value, as its ``Fraction`` does."""

    def test_examples(self):
        iset = tf.svc_complement(2)
        o, dm = OracleSet(iset), tf.DarningMap(iset)
        for got, want in ((iset.lebesgue(0, np.float64(0.3), "F"), o.lebesgue(0, 0.3, "F")),
                          (dm(np.float64(0.3)), OracleDarning(o, dm.z)(0.3)),
                          (tf.ScaleFunction(iset)(np.float64(0.2)), OracleScale(o)(0.2))):
            assert type(got) is type(want) is float and got.hex() == want.hex()
        assert iset.lebesgue(0, np.float32(0.3), "F") == Fr(3984589, 16777216)

    @settings(max_examples=50, deadline=None)
    @given(geometry_sets, seeds)
    def test_types_and_bits(self, iset, seed):
        rng = np.random.default_rng(seed)
        xs = rng.choice(probe_points(iset, rng, beyond=0.5), size=10).tolist()
        w0, w1 = iset.window
        exact = [0, 2, w0, w1, Fr(1, 3)] + [e for c in iset.components[:1] for e in c]
        maps = [tf.ScaleFunction(iset)] + ([tf.DarningMap(iset)] if iset.f_ranks else [])
        for x in xs:
            single = np.float32(x)
            # each numpy query, and the number it is taken as
            for n, taken, same in ((np.float64(x), x, _typed),
                                   (single, Fr(float(single)), _valued)):
                z = float(rng.choice(xs))
                for other, as_taken in [(e, e) for e in exact] + [(z, z), (np.float64(z), z)]:
                    for which in ("G", "F"):
                        assert same(iset.lebesgue, other, n, which) == same(
                            iset.lebesgue, as_taken, taken, which), (other, n, which)
                        assert same(iset.lebesgue, n, other, which) == same(
                            iset.lebesgue, taken, as_taken, which), (n, other, which)
                for f in maps:
                    assert same(f, n) == same(f, taken), (n, f)
                    assert same(f.inverse, n) == same(f.inverse, taken), (n, f)
            for f in maps:  # an image value, as numpy would hold it
                y = f(x)
                if isinstance(y, float):
                    assert _typed(f.inverse, np.float64(y)) == _typed(f.inverse, y), (y, f)


def _valued(fn, *args):
    """fn(...) as the type and value of each number it returns, or the type of
    the error it raises: its message names the query as given."""
    try:
        out = fn(*args)
    except Exception as exc:
        return "error", type(exc)
    return [(type(v), v) for v in out] if isinstance(out, tuple) else (type(out), out)


def _collapsed(grid, dm, collapse=_collapse_nodes):
    """The darned grid and values of a function constant on each component
    closure, as raw arrays, or the error collapsing it raises."""
    u = outcome(collapse, grid, np.cos(dm(grid)), dm)
    return u if isinstance(u, tuple) else [raw(u.grid), raw(u.values)]


def _grid_sets():
    return [tf.svc_complement(3), tf.svc_complement(2, tails=(Tail.ALL_G, Tail.ALL_G)),
            tf.periodic_fat_cantor(2, 2),
            tf.build_interval_set([(0.1, 0.2), (0.30000000000000004, 0.7)], (0, 1))]


class TestPairPlacement:
    """``_Table.place`` of an int pair against the nested ``placed`` of
    ``_g_periodic_mass`` that it replaces, bit for bit (``repr`` of ints and
    tuples), on the table and off it, with scalars passed through."""

    @pytest.mark.parametrize("iset", _grid_sets() + [tf.periodic_fat_cantor(3, Fr(7, 3), (-1, 1))],
                             ids=["svc3", "svc2 allg", "periodic2", "float ends", "periodic3"])
    def test_pairs_match_the_former_placement(self, iset):
        table, rng = iset._ends, np.random.default_rng(5)
        den = table.den
        queries = []
        for n in [*table.nums, table.nums[0] - den, table.nums[-1] + 3 * den]:
            queries += [(n, den), (3 * n, 3 * den), Fr(n, den).as_integer_ratio(),
                        (2 * n + 1, 2 * den), (2 * n - 1, 2 * den), (n * 7 + 1, den * 7)]
        queries += [(int(k), int(d)) for k, d in zip(rng.integers(-10**6, 10**6, 50),
                                                      rng.integers(1, 10**4, 50))]
        queries += [(0, 1), 0, 0.3, Fr(1, 3), -2]
        for x in queries:
            assert repr(table.place(x)) == repr(former_placed(table, x)), x


class TestGridTables:
    """Each set classifies its adapted grid once and each darning map maps it
    once; a grid that differs from it in any bit is computed as before."""

    @settings(max_examples=80, deadline=None)
    @given(geometry_sets)
    @example(_float_pair_set([0.9999999999999999, 5.57423001609835e-168]))  # darns to one node
    def test_tables_match_the_kernel(self, iset):
        grid = tf.adapted_grid(iset)
        tables = [(iset._cell_classes, iset.classify((grid[:-1] + grid[1:]) / 2)),
                  (iset._node_classes, iset.classify(grid, nodes=True))]
        assert iset._grid_classes(grid) is iset._cell_classes
        assert iset._grid_classes(grid, nodes=True) is iset._node_classes
        if iset.f_ranks:
            dm = tf.DarningMap(iset)
            tables += list(zip(dm._adapted_images, dm._images(grid)))
            assert _collapsed(grid, dm) == _collapsed(grid, dm, former_collapse_nodes)
        for table, computed in tables:
            assert raw(table) == raw(computed)
            assert not table.flags.writeable
        assert not tf.gridfn._missing_nodes(grid, iset).size

    @pytest.mark.parametrize("edit", ["signed zero", "extra node", "ulp"])
    @pytest.mark.parametrize("k", range(4))
    def test_other_grids_are_computed(self, k, edit):
        iset = _grid_sets()[k]
        dm = tf.DarningMap(iset)
        grid = tf.adapted_grid(iset)
        if edit == "signed zero":
            grid[0] = -0.0  # every window here starts at 0
        elif edit == "extra node":
            grid = np.union1d(grid, [(grid[1] + grid[2]) / 2])
        else:
            grid[2] = np.nextafter(grid[2], np.inf)
        assert not iset._is_adapted(grid)
        mids = (grid[:-1] + grid[1:]) / 2
        pairs = [(iset._grid_classes(grid), iset.classify(mids)),
                 (iset._grid_classes(grid, nodes=True), iset.classify(grid, nodes=True)),
                 (tf.gridfn._missing_nodes(grid, iset), former_missing_nodes(grid, iset))]
        for got, want in pairs:
            assert raw(got) == raw(want)
            assert got.flags.writeable
        assert _collapsed(grid, dm) == _collapsed(grid, dm, former_collapse_nodes)
        assert tf.gridfn._missing_nodes(grid, iset).size == (edit == "ulp")

    def test_public_arrays_stay_writable(self):
        iset = tf.svc_complement(3)
        dm = tf.DarningMap(iset)
        grid = tf.adapted_grid(iset)
        tables = [iset._cell_classes, iset._node_classes, *dm._adapted_images]
        saved = [t.copy() for t in tables]
        for points in (grid, iset._adapted):
            mids = (points[:-1] + points[1:]) / 2
            outs = [iset.classify(mids), iset.classify(points, nodes=True),
                    iset.closure_index(points), dm(points)]
            for out in outs:
                assert out.flags.writeable
                out[...] = 7
        assert [raw(t) for t in tables] == [raw(t) for t in saved]

    def test_classified_once(self, monkeypatch):
        """cell_in_g, three restrict_to_f calls, darn_function and darn_trace
        on one adapted grid classify its cells once and its nodes once, and
        map it once."""
        iset = tf.svc_complement(4, tails=(Tail.ALL_G, Tail.ALL_F))
        dm = tf.DarningMap(iset)
        u = tf.from_callable(lambda x: np.sin(dm(x)), iset)  # constant on each closure
        calls = Counter()
        classify, images = tf.IntervalSet.classify, tf.DarningMap._images

        def counting_classify(self, points, nodes=False):
            calls["nodes" if nodes else "cells"] += 1
            return classify(self, points, nodes)

        def counting_images(self, xs):
            calls["images"] += 1
            return images(self, xs)

        monkeypatch.setattr(tf.IntervalSet, "classify", counting_classify)
        monkeypatch.setattr(tf.DarningMap, "_images", counting_images)
        tf.gridfn.cell_in_g(u, iset)
        phis = [tf.restrict_to_f(u, iset) for _ in range(3)]
        tf.darn_function(u, dm)
        darn_trace(phis[0], dm)
        assert calls == {"cells": 1, "nodes": 1, "images": 1}

    def test_adaptedness_checked_once(self, monkeypatch):
        """Each grid a caller passes is checked for adaptedness once; the
        common grid of two adapted grids is adapted and is not checked.  On a
        grid that lacks a node, the first check raises, as before."""
        iset = tf.svc_complement(3)
        sf = tf.ScaleFunction(iset)
        extra = [0.05, 0.5]  # adapted, but not the set's own adapted grid
        u = tf.from_callable(np.sin, iset, extra)
        in_g = iset.classify(u.grid, nodes=True) >= 0
        w = tf.GridFunction(u.grid, np.where(in_g, np.cos(u.grid), 0.0))  # 0 on F
        w2 = tf.GridFunction(u.grid, 2 * w.values)
        member = tf.project_subspace(u, sf).u1
        line = tf.from_callable(lambda x: 3 * x, iset, extra)
        calls = []
        missing = tf.gridfn._missing_nodes

        def counting(grid, iset):
            calls.append(grid.size)
            return missing(grid, iset)

        monkeypatch.setattr(tf.gridfn, "_missing_nodes", counting)
        cases = [(lambda: tf.part_energy(w, iset=iset), 1),
                 (lambda: tf.part_energy(w, w2, iset=iset), 2),
                 (lambda: tf.subspace_energy(member, iset=iset), 1),
                 (lambda: tf.project_subspace(u, sf), 1),
                 (lambda: tf.is_in_complement(u, sf), 1),
                 (lambda: tf.decompose_harmonic(line, sf), 1)]
        for call, want in cases:
            calls.clear()
            call()
            assert calls == [u.grid.size] * want
        holed = tf.GridFunction(np.delete(u.grid, 3), np.delete(u.values, 3))
        for call in (lambda: tf.project_subspace(holed, sf),
                     lambda: tf.is_in_complement(holed, sf),
                     lambda: tf.decompose_harmonic(holed, sf),
                     lambda: tf.part_energy(holed, iset=iset)):
            calls.clear()
            with pytest.raises(tf.PreconditionError, match="not adapted"):
                call()
            assert len(calls) == 1


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestCsvText:
    """``intervals._csv_text`` against the five writers it replaced, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2,
                    unique_by=lambda p: p[0]))
    @example([(-0.0, 5e-324), (1e-310, -0.0), (1e300, -1e300)])
    def test_grid_function(self, pairs):
        grid, values = zip(*sorted(pairs))
        u = tf.GridFunction(grid, values)
        assert u.to_csv() == former_grid_csv(u)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(finite_floats, st.floats(), st.integers(0, 2)), min_size=1,
                    unique_by=lambda r: r[0]))
    def test_path(self, rows):
        times, states, flags = zip(*sorted(rows, key=lambda r: r[0]))
        path = tf.PathSample(times, states, flags, seed=0)
        assert path.to_csv() == former_path_csv(path)

    def test_bm_paths(self):
        for path in tf.bm_paths(3, 0.01, 0.5, -0.25, seed=4):
            assert path.to_csv() == former_path_csv(path)

    @pytest.mark.parametrize("depth", range(8))
    def test_jump_table(self, depth):
        iset = tf.svc_complement(depth)
        assert tf.trace.jump_table_csv(iset) == former_jump_table_csv(iset)

    @settings(max_examples=50, deadline=None)
    @given(geometry_sets)
    def test_jump_table_of_any_set(self, iset):
        assert tf.trace.jump_table_csv(iset) == former_jump_table_csv(iset)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats())),
           st.lists(st.tuples(st.floats(), st.floats(), st.floats())))
    def test_scale_and_feller_rows(self, pairs, triples):
        assert _csv_text("x,scale", pairs) == former_scale_csv(pairs)
        assert _csv_text("alpha,numeric,limit", triples) == former_feller_csv(triples)


CSV_READERS = [(tf.GridFunction.from_csv, "grid function", "x,value"),
               (tf.PathSample.from_csv, "path", "t,x,flag")]


@pytest.mark.parametrize("read, what, header", CSV_READERS, ids=["grid function", "path"])
class TestCsvColumns:
    """``intervals._csv_columns`` behind both CSV readers: the messages of the
    two readers it replaced, byte for byte."""

    @pytest.mark.parametrize("text, message", [
        ("a,b,c\n0,0,0\n1,1,0\n", None),
        ("", None),
        ("{header}\n0,0,0\n0.5\n", "bad CSV row ['0.5']: list index out of range"),
        ("{header}\n0,abc,0\n", "bad CSV row ['0', 'abc', '0']: could not convert string to "
                                "float: 'abc'"),
    ], ids=["wrong header", "empty", "short row", "non-numeric value"])
    def test_bad_input(self, read, what, header, text, message):
        with pytest.raises(tf.ValidationError) as err:
            read(text.format(header=header))
        assert str(err.value) == (message or f'{what} CSV must start with header "{header}"')

    def test_blank_rows_are_skipped(self, read, what, header):
        rows = ["0,0,0", "0.5,1,1", "1,1,0"]
        dense = read("\n".join([header, *rows]) + "\n")
        sparse = read("\n".join([header, "", rows[0], "", "", *rows[1:], ""]) + "\n\n")
        assert repr(sparse) == repr(dense)


def _path_bits(path):
    """A path's arrays as raw bytes and its fields, or the error it raised."""
    if isinstance(path, tuple):
        return path
    return ([raw(a) for a in (path.times, path.states, path.flags)], path.seed,
            raw(path.horizon), path.absorbed_at, path.absorbed_time)


def _result_bits(results):
    if isinstance(results, tuple):
        return results
    return [(raw(r.estimate), raw(r.stderr), r.n, r.target, r.warning) for r in results]


BOUNDARIES = [(left, right) for left in ("reflect", "absorb") for right in ("reflect", "absorb")]


def _walk_speeds():
    """(name, speed, h, start points): Lebesgue measure darned onto svc1, the
    same with all-G tails (infinite atoms at both carrier ends, where a walk
    may start), and the trace measure of svc2."""
    allg = tf.svc_complement(1, tails=(Tail.ALL_G, Tail.ALL_G))
    return [("lebesgue", tf.pushforward_speed(tf.DarningMap(tf.svc_complement(1), z=0),
                                              "lebesgue"), 3 / 128, (0.1,)),
            ("infinite atoms", tf.pushforward_speed(tf.DarningMap(allg), "lebesgue"), 3 / 128,
             (0.1875, -0.1875)),
            ("trace", tf.trace_measure(tf.svc_complement(2)), 1 / 32, (0.5,))]


class TestWalkEngine:
    """``walk_paths``, ``simulate_xs`` and ``walk_occupation`` against the
    former walk, bit for bit: one set-up, one loop, one end and one recorder
    where there were three set-ups, a pending first block, two ends and a
    remap of the recorded states.  A horizon of 1e-6 ends every walk inside
    its first hold."""

    @pytest.mark.parametrize("holding", ["exponential", "deterministic"])
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids="-".join)
    def test_walk_paths(self, boundary, holding):
        for _, speed, h, starts in _walk_speeds():
            chain = tf.build_chain(speed, h, boundary)
            for x0 in starts:
                for horizon, seed in ((1e-6, 3), (5.0, 1), (5.0, 8)):
                    args = (x0, horizon, seed)
                    assert _path_bits(outcome(tf.walk_paths, speed, h, *args, boundary,
                                              holding)) == \
                        _path_bits(outcome(former_walk_chain, chain, *args, holding))

    @pytest.mark.parametrize("holding", ["exponential", "deterministic"])
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids="-".join)
    def test_simulate_xs(self, boundary, holding):
        iset = tf.build_interval_set([(Fr(30, 240), Fr(90, 240)), (Fr(120, 240), Fr(200, 240))],
                                     (0, 1))
        for sf, h, x0 in ((tf.ScaleFunction(tf.svc_complement(1), anchor=0), 1 / 32, 0.1),
                          (tf.ScaleFunction(iset, anchor=0), 7 / 492, 0.3)):
            for horizon, seed in ((1e-6, 3), (5.0, 1), (5.0, 8)):
                args = (sf, h, x0, horizon, seed, boundary, holding)
                assert _path_bits(outcome(tf.simulate_xs, *args)) == \
                    _path_bits(outcome(former_simulate_xs, *args))

    @pytest.mark.parametrize("holding", ["exponential", "deterministic"])
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids="-".join)
    def test_walk_occupation(self, boundary, holding):
        for _, speed, h, starts in _walk_speeds():
            for x0 in starts:
                args = (speed, h, x0, 5.0, 2, [0.375, (0.0, 0.2)], boundary, holding, 0.5, 4)
                assert _result_bits(outcome(tf.walk_occupation, *args)) == \
                    _result_bits(outcome(former_walk_occupation, *args))

    @pytest.mark.parametrize("x0, horizon, seed, holding", [
        (0.1, 0.0, 1, "exponential"), (0.1, math.nan, 1, "exponential"),
        (0.1, math.inf, 1, "exponential"), (0.9, 1.0, 1, "exponential"),
        (math.nan, 1.0, 1, "exponential"), (0.1, 1.0, -1, "exponential"),
        (0.1, 1.0, 1, "weird"), (0.9, math.nan, -1, "weird")])
    def test_refusals(self, x0, horizon, seed, holding):
        _, speed, h, _ = _walk_speeds()[0]
        chain = tf.build_chain(speed, h)
        assert _path_bits(outcome(tf.walk_paths, speed, h, x0, horizon, seed, holding=holding)) \
            == _path_bits(outcome(former_walk_chain, chain, x0, horizon, seed, holding))
        sf = tf.ScaleFunction(tf.svc_complement(1), anchor=0)
        args = (sf, 1 / 32, x0, horizon, seed)
        assert _path_bits(outcome(tf.simulate_xs, *args, holding=holding)) == \
            _path_bits(outcome(former_simulate_xs, *args, holding=holding))
        args = (speed, h, x0, horizon, seed, [0.375])
        assert _result_bits(outcome(tf.walk_occupation, *args, holding=holding, batches=2)) == \
            _result_bits(outcome(former_walk_occupation, *args, holding=holding, batches=2))

    @pytest.mark.parametrize("x0", [0, -0.0, 0.25, np.float32(0.1), Fr(1, 3)],
                             ids=["int", "-0.0", "float", "float32", "Fraction"])
    def test_zero_step_bm_paths(self, x0):
        # a horizon under one step gives the start alone, as the former
        # zero-step branch built it
        for horizon in (0.0, 0.05):
            for i, path in enumerate(tf.bm_paths(2, 0.1, horizon, x0, seed=6)):
                former = tf.PathSample(np.array([0.0]), np.array([float(x0)]),
                                       np.zeros(1, dtype=np.int8), seed=6 ^ i)
                assert _path_bits(path) == _path_bits(former)


class TestInPlaceReduction:
    """``_result_from_samples``, which overwrites its samples with their
    squared deviations, against the former ``np.std`` and ``.mean()``, bit for
    bit: zeros, both signs, and one or two samples, where the std is 0 or
    from a single difference."""

    @staticmethod
    def _both(samples):
        return (_result_bits([_result_from_samples(samples.copy(), "t")]),
                _result_bits([former_result_from_samples(samples.copy(), "t")]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10_000), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 1.0]),
           st.sampled_from(["normal", "unit", "exit side"]), st.sampled_from([1e-300, 1.0, 1e100]))
    @example(1, 0, 0.0, "normal", 1.0)
    @example(2, 0, 0.0, "normal", 1.0)
    @example(2, 0, 1.0, "normal", 1.0)
    def test_drawn(self, n, seed, zeros, kind, scale):
        rng = np.random.default_rng(seed)
        samples = {"normal": rng.standard_normal(n),  # both signs
                   "unit": rng.random(n),  # exp(-alpha tau) weights
                   "exit side": (rng.random(n) < 0.3).astype(float)}[kind] * scale
        samples[rng.random(n) < zeros] = 0.0
        got, want = self._both(samples)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0]), min_size=1,
                    max_size=40))
    def test_listed(self, values):
        got, want = self._both(np.array(values))
        assert got == want
