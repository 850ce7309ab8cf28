"""Sketch construction: hashing composition, turnstile linearity,
update-cost instrumentation, and the binary file format."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from joinsketch import sketch as sketch_module
from joinsketch.cli import EXIT_DATA, main
from joinsketch.errors import DataError, QueryError
from joinsketch.hashing import bin_eval, derive_hash_set, sign_eval
from joinsketch.ingest import fnv1a64
from joinsketch.sketch import (
    DENSE_SPAN,
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    build_sketch,
    bulk_update,
    group_tuples,
    merge,
    update,
    updates_to_columns,
)
from joinsketch import sketchfile
from joinsketch.sketchfile import MAP_BYTES, load_sketch_file, save_sketch_file

from conftest import (
    circ_convolve,
    multiway_graph,
    patch_sketch_header,
    turnstile_stream,
    two_rel_graph,
    two_rel_query_doc,
)


def make_conv(graph, relation, m=8, l=2, seed=3):
    config = SketchConfig(m=m, l=l, seed=seed, method="conv")
    hashes = derive_hash_set(config, graph)
    return RelationSketch(relation, config, graph, hashes), hashes


def _written_cell(sk, rep):
    """(bin, value) of the one counter that a one-tuple update wrote in
    repetition `rep`."""
    (j,) = np.flatnonzero(sk.counters[rep])
    return int(j), sk.counters[rep, j]


def _relation_1_sign(hashes, rep, x1, x2):
    """Sign of multiway relation 1's tuple (x1, x2): attribute 1 joins
    attributes 0 and 3, attribute 2 joins attribute 4."""
    return (
        sign_eval(hashes.sign_for(1, 3)[rep], x1)
        * sign_eval(hashes.sign_for(1, 0)[rep], x1)
        * sign_eval(hashes.sign_for(2, 4)[rep], x2)
    )


class TestTupleHashing:
    def test_twice_joined_sign_is_three_factor_product(self):
        graph = multiway_graph()
        sk, hashes = make_conv(graph, relation=1, m=16, l=1, seed=11)
        update(sk, TupleUpdate(relation=1, values={1: 7, 2: 9}))
        assert _written_cell(sk, 0)[1] == _relation_1_sign(hashes, 0, 7, 9)

    def test_single_attribute_sign_is_single_factor(self):
        graph = two_rel_graph()
        sk, hashes = make_conv(graph, relation=0, m=16, l=1, seed=11)
        update(sk, TupleUpdate(relation=0, values={0: 42}))
        assert _written_cell(sk, 0)[1] == sign_eval(hashes.sign_for(0, 1)[0], 42)

    def test_two_attr_bin_adds_component_hashes(self):
        graph = multiway_graph()
        sk, hashes = make_conv(graph, relation=1, m=8, l=1, seed=5)
        update(sk, TupleUpdate(relation=1, values={1: 7, 2: 9}))
        expected = (
            bin_eval(hashes.bin_for(graph.psi[1])[0], 7)
            + bin_eval(hashes.bin_for(graph.psi[2])[0], 9)
        ) % 8
        assert _written_cell(sk, 0)[0] == expected

    def test_m_one_bins_to_zero(self):
        graph = multiway_graph()
        sk, _ = make_conv(graph, relation=1, m=1, l=1)
        update(sk, TupleUpdate(relation=1, values={1: 7, 2: 9}))
        assert _written_cell(sk, 0)[0] == 0


class TestUpdate:
    def test_single_tuple_grid(self):
        graph = two_rel_graph()
        sk, hashes = make_conv(graph, relation=0, m=8, l=3)
        update(sk, TupleUpdate(relation=0, values={0: 5}, delta=1.0))
        for rep in range(3):
            expected = np.zeros(8)
            expected[bin_eval(hashes.bin_for(graph.psi[0])[rep], 5) % 8] = sign_eval(
                hashes.sign_for(0, 1)[rep], 5
            )
            np.testing.assert_array_equal(sk.counters[rep], expected)

    def test_turnstile_cancellation(self):
        graph = two_rel_graph()
        sk, hashes = make_conv(graph, relation=0, m=8, l=3)
        update(sk, TupleUpdate(0, {0: 5}, +2.0))
        for rep in range(3):
            assert _written_cell(sk, rep) == (
                bin_eval(hashes.bin_for(graph.psi[0])[rep], 5) % 8,
                2 * sign_eval(hashes.sign_for(0, 1)[rep], 5),
            )
        update(sk, TupleUpdate(0, {0: 5}, -2.0))
        assert not sk.counters.any()

    def test_repeated_update_doubles(self):
        graph = two_rel_graph()
        sk, _ = make_conv(graph, relation=0, m=8, l=2)
        update(sk, TupleUpdate(0, {0: 5}, 1.0))
        single = sk.counters.copy()
        update(sk, TupleUpdate(0, {0: 5}, 1.0))
        np.testing.assert_array_equal(sk.counters, 2 * single)

    def test_touches_exactly_l_cells(self):
        graph = two_rel_graph()
        for m in (2**4, 2**8, 2**12, 2**18):
            sk, _ = make_conv(graph, relation=0, m=m, l=5)
            before = sk.counters.copy()
            update(sk, TupleUpdate(0, {0: 1234}, 1.0))
            assert sk.touched_cells == 5
            assert int((sk.counters != before).sum()) == 5

    def test_rejects_wrong_relation(self):
        graph = two_rel_graph()
        sk, _ = make_conv(graph, relation=0)
        with pytest.raises(DataError):
            update(sk, TupleUpdate(1, {1: 3}, 1.0))

    @pytest.mark.parametrize(
        "graph, t",
        [
            (two_rel_graph, TupleUpdate(0, {0: 3, 1: 4}, 1.0)),
            (multiway_graph, TupleUpdate(1, {1: 7})),
        ],
        ids=["extra", "missing"],
    )
    def test_rejects_extra_attributes(self, graph, t):
        sk, _ = make_conv(graph(), relation=t.relation)
        with pytest.raises(DataError, match="cover attributes"):
            update(sk, t)


class TestMergeAndLinearity:
    def _stream(self, rng, relation, attrs, n, domain=32):
        return [
            TupleUpdate(
                relation,
                {u: int(rng.integers(0, domain)) for u in attrs},
                float(rng.integers(1, 4)),
            )
            for _ in range(n)
        ]

    def test_merge_identity(self):
        graph = two_rel_graph()
        rng = np.random.default_rng(0)
        config = SketchConfig(m=8, l=2, seed=1)
        hashes = derive_hash_set(config, graph)
        stream = self._stream(rng, 0, [0], 10)
        built = build_sketch(stream, graph, hashes, config, relation=0)
        zero = RelationSketch(0, config, graph, hashes)
        merged = merge(built, zero)
        np.testing.assert_array_equal(merged.counters, built.counters)

    def test_merge_equals_concatenated_build(self):
        graph = multiway_graph()
        rng = np.random.default_rng(1)
        config = SketchConfig(m=16, l=3, seed=9)
        hashes = derive_hash_set(config, graph)
        a = self._stream(rng, 1, [1, 2], 25)
        b = self._stream(rng, 1, [1, 2], 17)
        merged = merge(
            build_sketch(a, graph, hashes, config, 1),
            build_sketch(b, graph, hashes, config, 1),
        )
        together = build_sketch(a + b, graph, hashes, config, 1)
        np.testing.assert_array_equal(merged.counters, together.counters)

    def test_merge_self_doubles(self):
        graph = two_rel_graph()
        rng = np.random.default_rng(2)
        config = SketchConfig(m=8, l=2, seed=1)
        hashes = derive_hash_set(config, graph)
        sk = build_sketch(self._stream(rng, 0, [0], 12), graph, hashes, config, 0)
        doubled = merge(sk, sk)
        np.testing.assert_array_equal(doubled.counters, 2 * sk.counters)

    def test_merge_rejects_config_mismatch(self):
        graph = two_rel_graph()
        c1 = SketchConfig(m=8, l=2, seed=1)
        c2 = SketchConfig(m=8, l=2, seed=2)
        a = RelationSketch(0, c1, graph, derive_hash_set(c1, graph))
        b = RelationSketch(0, c2, graph, derive_hash_set(c2, graph))
        with pytest.raises(QueryError):
            merge(a, b)

    def test_merge_rejects_relation_mismatch(self):
        graph = two_rel_graph()
        c = SketchConfig(m=8, l=2, seed=1)
        hashes = derive_hash_set(c, graph)
        with pytest.raises(QueryError):
            merge(RelationSketch(0, c, graph, hashes), RelationSketch(1, c, graph, hashes))

    @pytest.mark.parametrize(
        "deltas, exact",
        [((2**52, 2**52 - 1), True), ((2**52, 2**52 + 1), False), ((2**53, 0), False)],
        ids=["sum-below", "sum-reaches", "input-reaches"],
    )
    def test_merge_guards_the_2_to_the_53_bound(self, deltas, exact):
        # 2^52 + (2^52 + 1) is 2^53 + 1, which float64 rounds to 2^53.
        graph = two_rel_graph()
        config = SketchConfig(m=4, l=1)
        hashes = derive_hash_set(config, graph)
        a, b = (
            build_sketch([TupleUpdate(0, {0: 5}, float(d))], graph, hashes, config, 0)
            for d in deltas
        )
        if exact:
            assert np.abs(merge(a, b).counters).max() == 2**53 - 1
        else:
            with pytest.raises(DataError, match=r"2\^53"):
                merge(a, b)

    def test_order_invariance(self):
        graph = multiway_graph()
        rng = np.random.default_rng(3)
        config = SketchConfig(m=8, l=2, seed=4)
        hashes = derive_hash_set(config, graph)
        stream = self._stream(rng, 1, [1, 2], 30)
        shuffled = list(stream)
        rng.shuffle(shuffled)
        a = build_sketch(stream, graph, hashes, config, 1)
        b = build_sketch(shuffled, graph, hashes, config, 1)
        np.testing.assert_array_equal(a.counters, b.counters)

    def test_empty_stream_zero_grid(self):
        graph = two_rel_graph()
        config = SketchConfig(m=8, l=2, seed=4)
        hashes = derive_hash_set(config, graph)
        sk = build_sketch([], graph, hashes, config, 0)
        assert not sk.counters.any()

    def test_bulk_matches_scalar_updates(self):
        graph = multiway_graph()
        rng = np.random.default_rng(4)
        config = SketchConfig(m=16, l=3, seed=7)
        hashes = derive_hash_set(config, graph)
        stream = self._stream(rng, 1, [1, 2], 40)
        bulk = build_sketch(stream, graph, hashes, config, 1)
        scalar = RelationSketch(1, config, graph, hashes)
        for t in stream:
            update(scalar, t)
        np.testing.assert_array_equal(bulk.counters, scalar.counters)


class TestBulkUpdate:
    @pytest.mark.parametrize("relation", [0, 1], ids=["one-attribute", "two-attribute"])
    def test_counters_byte_equal_to_per_tuple_updates(self, relation):
        graph = multiway_graph()
        stream = turnstile_stream(np.random.default_rng(40 + relation), graph, relation, n=600)
        net: dict[tuple, float] = {}
        for t in stream:
            key = tuple(sorted(t.values.items()))
            net[key] = net.get(key, 0.0) + t.delta
        assert len(net) < len(stream) and 0.0 in net.values()

        bulk, _ = make_conv(graph, relation, m=61, l=4, seed=12)
        columns, deltas = updates_to_columns(stream, graph, relation)
        bulk_update(bulk, columns, deltas)
        scalar, _ = make_conv(graph, relation, m=61, l=4, seed=12)
        for t in stream:
            update(scalar, t)
        assert bulk.counters.tobytes() == scalar.counters.tobytes()
        assert bulk.touched_cells == 4 * sum(f != 0.0 for f in net.values())

    def test_hashes_only_values_that_kept_tuples_use(self, monkeypatch):
        graph = multiway_graph()
        omega = graph.omega[1]
        stream = turnstile_stream(np.random.default_rng(43), graph, 1, n=300)
        # A tuple of a value no other tuple uses, inserted and deleted again.
        stream += [TupleUpdate(1, dict.fromkeys(omega, 99), d) for d in (1.0, -1.0)]
        net: dict[tuple, float] = {}
        for t in stream:
            key = tuple(t.values[u] for u in omega)
            net[key] = net.get(key, 0.0) + t.delta
        kept = [sorted({key[p] for key, f in net.items() if f != 0.0}) for p in range(len(omega))]
        assert any(f == 0.0 for f in net.values()) and all(99 not in vals for vals in kept)

        hashed = []
        bin_eval_vec = sketch_module.bin_eval_vec

        def spy(fns, values):
            hashed.append(values.tolist())
            return bin_eval_vec(fns, values)

        monkeypatch.setattr(sketch_module, "bin_eval_vec", spy)
        bulk, _ = make_conv(graph, 1, m=61, l=4, seed=12)
        bulk_update(bulk, *updates_to_columns(stream, graph, 1))
        assert hashed == kept  # one call per attribute, over its used values
        scalar, _ = make_conv(graph, 1, m=61, l=4, seed=12)
        for t in stream:
            update(scalar, t)
        assert bulk.counters.tobytes() == scalar.counters.tobytes()

    def test_fractional_deltas_into_a_zero_grid_equal_bincount(self):
        # np.add.at adds the distinct tuples into each bin in group order,
        # as np.bincount does, so even sums that rounding makes
        # order-dependent come out bit for bit the same.
        graph = multiway_graph()
        rng = np.random.default_rng(44)
        n, m, l = 500, 7, 3
        stream = [TupleUpdate(1, {1: int(a), 2: int(b)}, float(d)) for a, b, d in zip(
            rng.integers(0, 30, n), rng.integers(0, 30, n), rng.uniform(-1.0, 2.0, n))]
        sk, hashes = make_conv(graph, 1, m=m, l=l, seed=13)
        columns, deltas = updates_to_columns(stream, graph, 1)
        bulk_update(sk, columns, deltas)
        groups, weights = group_tuples(columns, graph.omega[1], deltas)
        tuples = [dict(zip(graph.omega[1], row)) for row in zip(
            *(values[inverse].tolist() for values, inverse in groups))]
        for rep in range(l):
            bins, signs = [], []
            for values in tuples:
                j, s = 0, 1
                for u, x in values.items():
                    j += bin_eval(hashes.bin_for(graph.psi[u])[rep], x)
                    for v in graph.gamma[u]:
                        s *= sign_eval(hashes.sign_for(u, v)[rep], x)
                bins.append(j % m)
                signs.append(s)
            expected = np.bincount(bins, weights=np.array(signs) * weights, minlength=m)
            assert sk.counters[rep].tobytes() == expected.tobytes()

    def test_integer_deltas_into_a_nonzero_grid_equal_per_tuple_updates(self):
        graph = multiway_graph()
        rng = np.random.default_rng(45)
        stream = turnstile_stream(rng, graph, 1, n=400)
        start = rng.integers(-50, 50, size=(4, 61)).astype(np.float64)
        bulk, hashes = make_conv(graph, 1, m=61, l=4, seed=12)
        bulk.counters[:] = start
        bulk_update(bulk, *updates_to_columns(stream, graph, 1))
        scalar = RelationSketch(1, bulk.config, graph, hashes, start.copy())
        for t in stream:
            update(scalar, t)
        assert bulk.counters.tobytes() == scalar.counters.tobytes()

    def test_rejects_mismatched_tuples(self):
        graph = multiway_graph()
        with pytest.raises(DataError, match="contains a tuple for relation 0"):
            updates_to_columns([TupleUpdate(0, {0: 1})], graph, 1)
        with pytest.raises(DataError, match="cover attributes"):
            updates_to_columns([TupleUpdate(1, {1: 1})], graph, 1)


def _stacked_distinct_tuples(columns, attrs, deltas):
    """The structured-row grouping that `group_tuples` replaced, kept as
    its reference: one `np.unique(axis=0)` over the stacked columns."""
    if len(deltas) == 0:
        return np.empty((0, len(attrs)), dtype=np.uint64), np.empty(0, dtype=np.float64)
    stacked = np.stack([np.asarray(columns[u], dtype=np.uint64) for u in attrs], axis=1)
    keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
    sums = np.bincount(inverse.reshape(-1), weights=deltas, minlength=len(keys))
    keep = sums != 0.0
    return keys[keep], sums[keep]


TOP = 2**64 - 1


def _fnv_column(rng, n):
    """FNV-1a hashes of `cust-N` strings: keys spread over all of 2^64."""
    return np.array([fnv1a64(f"cust-{k}".encode()) for k in rng.integers(0, 40, size=n)], np.uint64)


def _column(case, rng, n):
    """One uint64 column of `n` rows for a column-code case."""
    if case == "all-equal":
        return np.full(n, 12345, dtype=np.uint64)
    if case in ("dense-bound", "past-bound"):
        # Both ends present, so the span is DENSE_SPAN * n, or one more.
        span = DENSE_SPAN * n + (case == "past-bound")
        col = rng.integers(0, span, size=n).astype(np.uint64) + np.uint64(1000)
        col[:2] = [1000, 1000 + span - 1]
        return col
    if case == "full-range":
        col = rng.integers(0, 50, size=n).astype(np.uint64)
        col[:2] = [0, TOP]  # a span of 2^64, one past the uint64 range
        return col
    if case == "top-window":
        col = np.uint64(TOP) - rng.integers(0, n, size=n).astype(np.uint64)
        col[0] = TOP
        return col
    if case == "negative":
        # Int keys of both signs, canonical as two's complement.
        return rng.integers(-250, 250, size=n).astype(np.int64).view(np.uint64)
    if case == "fnv":
        return _fnv_column(rng, n)
    return rng.integers(0, 6, size=n).astype(np.uint64)


def _tuple_batch(case):
    """(columns, attrs, deltas) for one grouping case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    width = {"empty": 2, "one": 1, "two": 2, "three": 3, "four": 4}.get(case, 3)
    n = {"empty": 0, "one-row": 1}.get(case, 500)
    # Attribute ids out of order: keys follow `attrs`, not the dict.
    attrs = tuple(range(width, 0, -1))
    columns = {u: rng.integers(0, 6, size=n).astype(np.uint64) for u in attrs}
    deltas = rng.choice([-1.0, 1.0, 2.0], size=n)
    if case == "high-bit":
        top = np.array([2**63, 2**63 + 5, 2**64 - 1, 7, 0], dtype=np.uint64)
        columns = {u: top[rng.integers(0, len(top), size=n)] for u in attrs}
    elif case == "cancelling":
        # Every row appears once with +d and once with -d, except the last ten.
        half = {u: col[: n // 2] for u, col in columns.items()}
        columns = {u: np.concatenate([col, col[::-1]]) for u, col in half.items()}
        deltas = np.concatenate([deltas[: n // 2], -deltas[: n // 2][::-1]])
        deltas[-10:] = 3.0
    elif case == "cancelled-value":
        # One tuple with 99 in every column is inserted and deleted again:
        # no tuple that is kept uses 99.
        extra = np.array([99, 99], dtype=np.uint64)
        columns = {u: np.concatenate([col, extra]) for u, col in columns.items()}
        deltas = np.concatenate([deltas, [1.0, -1.0]])
    elif case == "fractional":
        deltas = rng.random(n) * rng.choice([-1.0, 1.0], size=n) / 3.0
    elif case == "dense-and-fnv":
        columns[attrs[1]] = _fnv_column(rng, n)
    elif case in COLUMN_CASES and case != "empty":
        # The case's column first, then a dense and a sparse one to fold.
        columns[attrs[0]] = _column(case, rng, n)
        columns[attrs[2]] = _column("negative", rng, n)
    return columns, attrs, deltas


# Column-code cases: the dense ones are coded without a sort.
COLUMN_CASES = {
    "empty": False,
    "one-row": True,
    "all-equal": True,
    "dense-bound": True,
    "past-bound": False,
    "full-range": False,
    "top-window": True,
    "negative": False,
    "fnv": False,
}


@pytest.mark.parametrize(
    "case",
    ["empty", "one", "two", "three", "four", "high-bit", "cancelling", "cancelled-value"]
    + ["fractional", "one-row", "all-equal", "dense-bound", "past-bound", "full-range"]
    + ["top-window", "negative", "dense-and-fnv"],
)
def test_group_tuples_matches_the_stacked_unique(case):
    columns, attrs, deltas = _tuple_batch(case)
    groups, sums = group_tuples(columns, attrs, deltas)
    for values, inverse in groups:
        assert np.all(values[:-1] < values[1:])  # sorted and distinct
        # Every value is used by some kept tuple.
        assert np.bincount(inverse, minlength=len(values)).all()
    keys = np.stack([values[inverse] for values, inverse in groups], axis=1)
    ref_keys, ref_sums = _stacked_distinct_tuples(columns, attrs, deltas)
    assert keys.dtype == ref_keys.dtype == np.uint64
    assert keys.shape == ref_keys.shape
    assert np.array_equal(keys, ref_keys)  # same rows in the same order
    assert sums.dtype == ref_sums.dtype
    assert sums.tobytes() == ref_sums.tobytes()
    if case == "high-bit":
        assert keys.max() >= 2**63
    if case == "cancelling":
        rows = {tuple(int(columns[u][i]) for u in attrs) for i in range(len(deltas))}
        assert 0 < len(keys) < len(rows)
    if case == "cancelled-value":
        assert all(99 in columns[u] for u in attrs)
        assert all(99 not in values for values, _ in groups)
    if case in ("three", "four"):
        assert len(keys) > 6  # the batch had tuples to fold past the first column


@pytest.mark.parametrize("case", list(COLUMN_CASES))
def test_column_code_matches_np_unique(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    col = _column(case, rng, {"empty": 0, "one-row": 1}.get(case, 500))
    dense = sketch_module._dense_code(col)
    assert (dense is not None) == COLUMN_CASES[case]
    values, inverse = dense or np.unique(col, return_inverse=True)
    ref_values, ref_inverse = np.unique(col, return_inverse=True)
    assert values.dtype == ref_values.dtype == np.uint64
    assert inverse.dtype == ref_inverse.dtype == np.intp
    assert np.array_equal(values, ref_values)
    assert np.array_equal(inverse, ref_inverse)
    if case == "top-window":
        assert values[-1] == TOP


def _unique_arguments(monkeypatch):
    """Record the array of every np.unique call."""
    calls = []
    unique = np.unique

    def spy(ar, *args, **kwargs):
        calls.append(np.asarray(ar))
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return calls


def test_only_sparse_columns_are_sorted(monkeypatch):
    rng = np.random.default_rng(4)
    dense, fnv = _column("dense-bound", rng, 300), _fnv_column(rng, 300)
    deltas = np.ones(300)
    calls = _unique_arguments(monkeypatch)
    group_tuples({1: dense}, (1,), deltas)
    assert calls == []
    group_tuples({2: fnv}, (2,), deltas)
    assert len(calls) == 1 and calls[0].tobytes() == fnv.tobytes()
    calls.clear()
    group_tuples({1: dense, 2: fnv}, (1, 2), deltas)
    # The fnv column and the one fold; the fold's codes are int64.
    assert [c.dtype for c in calls] == [np.uint64, np.int64]
    assert calls[0].tobytes() == fnv.tobytes()


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_dense_code_peaks_below_the_sort(monkeypatch):
    # The widest dense span, DENSE_SPAN * n, is the dense code's worst case.
    n = 10**6
    col = _column("dense-bound", np.random.default_rng(5), n)
    deltas = np.ones(n)
    dense = _peak_bytes(lambda: group_tuples({0: col}, (0,), deltas))
    monkeypatch.setattr(sketch_module, "_dense_code", lambda col: None)
    sort = _peak_bytes(lambda: group_tuples({0: col}, (0,), deltas))
    assert dense <= sort, (dense, sort)


class TestDirectSumOracle:
    def test_m_one_counter_is_signed_frequency_sum(self):
        # With one bin, every repetition's counter must equal the
        # frequency-weighted sum of tuple signs.
        graph = multiway_graph()
        rng = np.random.default_rng(5)
        config = SketchConfig(m=1, l=3, seed=13)
        hashes = derive_hash_set(config, graph)
        stream = [
            TupleUpdate(1, {1: int(rng.integers(0, 6)), 2: int(rng.integers(0, 6))}, float(d))
            for d in rng.integers(1, 5, size=10)
        ]
        sk = build_sketch(stream, graph, hashes, config, 1)
        for rep in range(3):
            expected = sum(
                _relation_1_sign(hashes, rep, t.values[1], t.values[2]) * t.delta
                for t in stream
            )
            assert sk.counters[rep, 0] == expected

    def test_single_tuple_sketch_is_attr_sketch_convolution(self):
        # The tuple encoding equals the circular convolution of the
        # per-attribute single-item Count sketches.
        graph = multiway_graph()
        for m in (4, 16, 64):
            config = SketchConfig(m=m, l=1, seed=21)
            hashes = derive_hash_set(config, graph)
            t = TupleUpdate(1, {1: 123, 2: 456}, 1.0)
            sk = RelationSketch(1, config, graph, hashes)
            update(sk, t)

            attr1 = np.zeros(m)
            s1 = sign_eval(hashes.sign_for(1, 0)[0], 123) * sign_eval(
                hashes.sign_for(1, 3)[0], 123
            )
            attr1[bin_eval(hashes.bin_for(graph.psi[1])[0], 123) % m] = s1
            attr2 = np.zeros(m)
            s2 = sign_eval(hashes.sign_for(2, 4)[0], 456)
            attr2[bin_eval(hashes.bin_for(graph.psi[2])[0], 456) % m] = s2

            np.testing.assert_allclose(
                sk.counters[0], circ_convolve(attr1, attr2), atol=1e-9
            )


class TestConfigValidation:
    def test_bad_m(self):
        with pytest.raises(QueryError):
            SketchConfig(m=0, l=1)

    def test_bad_l(self):
        with pytest.raises(QueryError):
            SketchConfig(m=4, l=0)

    def test_bad_method(self):
        with pytest.raises(QueryError):
            SketchConfig(m=4, l=1, method="magic")


class TestSketchFile:
    def test_round_trip_bit_exact(self, tmp_path):
        graph = multiway_graph()
        rng = np.random.default_rng(6)
        config = SketchConfig(m=8, l=5, seed=123456789, method="conv")
        hashes = derive_hash_set(config, graph)
        relations = []
        for rel in range(graph.r):
            sk = RelationSketch(rel, config, graph, hashes)
            sk.counters = rng.normal(size=(5, 8))
            relations.append((graph.spec.relations[rel].name, sk.counters))
        path = str(tmp_path / "x.jsk")
        save_sketch_file(path, graph, config, relations)
        loaded_config, loaded = load_sketch_file(path)
        assert loaded_config == config
        assert [name for name, _ in loaded] == [name for name, _ in relations]
        for (_, a), (_, b) in zip(relations, loaded):
            assert a.tobytes() == b.tobytes()
            # The CLI hands loaded grids to the estimator without a copy.
            assert b.dtype == np.float64 and b.dtype.isnative
            assert b.flags.c_contiguous and b.flags.writeable
            assert b.base is None  # owns its memory, not a view over bytes
        loaded[0][1][:] = -1.0
        _, again = load_sketch_file(path)
        assert again[0][1].tobytes() == relations[0][1].tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.jsk"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            load_sketch_file(str(path))

    def test_truncated(self, tmp_path):
        graph = two_rel_graph()
        config = SketchConfig(m=4, l=1, seed=0)
        relations = [("A", np.zeros((1, 4))), ("B", np.zeros((1, 4)))]
        path = str(tmp_path / "t.jsk")
        save_sketch_file(path, graph, config, relations)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_sketch_file(path)

    def _saved(self, tmp_path):
        config = SketchConfig(m=4, l=2, seed=0)
        path = str(tmp_path / "h.jsk")
        relations = [("A", np.zeros((2, 4))), ("B", np.ones((2, 4)))]
        save_sketch_file(path, two_rel_graph(), config, relations)
        return path

    def test_huge_grid_claim_is_truncated_not_allocated(self, tmp_path):
        path = self._saved(tmp_path)
        patch_sketch_header(path, "m", 2**40)
        with pytest.raises(DataError, match="truncated"):
            load_sketch_file(path)

    @pytest.mark.parametrize("field", ["m", "l"])
    def test_zero_shape_header_is_data_error(self, tmp_path, field):
        path = self._saved(tmp_path)
        patch_sketch_header(path, field, 0)
        with pytest.raises(DataError, match=f"h.jsk: bad sketch file header: .* {field} must be"):
            load_sketch_file(path)

    def test_non_utf8_name_is_data_error(self, tmp_path):
        path = self._saved(tmp_path)
        patch_sketch_header(path, "name0", 0xFF)
        with pytest.raises(DataError, match="h.jsk: relation name is not UTF-8"):
            load_sketch_file(path)

    def test_ams_tag_round_trip(self, tmp_path):
        config = SketchConfig(m=4, l=2, seed=9, method="ams")
        relations = [("A", np.ones((2, 4))), ("B", np.ones((2, 4)))]
        path = str(tmp_path / "a.jsk")
        save_sketch_file(path, two_rel_graph(), config, relations)
        loaded_config, _ = load_sketch_file(path)
        assert loaded_config.method == "ams"


def _big_relations(seed=0, l=2):
    """Two relations A and B whose grids total MAP_BYTES rounded up to
    whole columns: exactly MAP_BYTES for the default l."""
    m = -(-MAP_BYTES // (2 * 8 * l))
    rng = np.random.default_rng(seed)
    return SketchConfig(m=m, l=l, seed=seed), [
        ("A", rng.normal(size=(l, m))), ("B", rng.normal(size=(l, m)))
    ]


class TestMappedSketchFile:
    """Files whose grids total at least MAP_BYTES are mapped copy-on-write."""

    def _saved(self, tmp_path, seed=0):
        config, relations = _big_relations(seed)
        path = str(tmp_path / "big.jsk")
        save_sketch_file(path, two_rel_graph(), config, relations)
        return path, config, relations

    def test_round_trip_bit_exact_through_writable_views(self, tmp_path):
        path, config, relations = self._saved(tmp_path)
        before = open(path, "rb").read()
        loaded_config, loaded = load_sketch_file(path)
        assert loaded_config == config
        assert [name for name, _ in loaded] == ["A", "B"]
        for (_, a), (_, b) in zip(relations, loaded):
            assert a.tobytes() == b.tobytes()
            assert b.dtype == np.float64 and b.dtype.isnative
            assert b.flags.c_contiguous and b.flags.writeable
            assert not b.flags.owndata
        # Copy-on-write: a write into a grid never reaches the file.
        loaded[0][1][:] = -1.0
        loaded[1][1][0, 0] = 7.0
        assert open(path, "rb").read() == before

    def test_one_column_under_the_threshold_is_read(self, tmp_path):
        config, relations = _big_relations()
        small = SketchConfig(m=config.m - 1, l=config.l, seed=config.seed)
        path = str(tmp_path / "small.jsk")
        save_sketch_file(
            path, two_rel_graph(), small, [(name, grid[:, 1:]) for name, grid in relations]
        )
        for (_, a), (_, b) in zip(relations, load_sketch_file(path)[1]):
            assert b.flags.owndata and b.flags.writeable
            assert b.tobytes() == a[:, 1:].tobytes()

    def test_saving_over_a_loaded_file_keeps_its_grids(self, tmp_path):
        # The save replaces the file; rewriting the mapped inode in place
        # would change these grids, and truncating it would raise SIGBUS.
        path, _, relations = self._saved(tmp_path)
        loaded = load_sketch_file(path)[1]
        config, other = _big_relations(seed=1)
        save_sketch_file(path, two_rel_graph(), config, other)
        for (_, a), (_, b) in zip(relations, loaded):
            assert a.tobytes() == b.tobytes()
        assert load_sketch_file(path)[1][1][1].tobytes() == other[1][1].tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.jsk"]

    def test_estimate_prints_what_the_read_file_gives(self, tmp_path, capsys, monkeypatch):
        q = tmp_path / "q.json"
        q.write_text(json.dumps(two_rel_query_doc()))
        config, relations = _big_relations(l=5)
        path = str(tmp_path / "big.jsk")
        save_sketch_file(path, two_rel_graph(), config, relations)
        assert not load_sketch_file(path)[1][0][1].flags.owndata

        def estimate_json():
            assert main(["estimate", "--query", str(q), "--sketches", path]) == 0
            payload = json.loads(capsys.readouterr().out)
            del payload["infer_ms"]
            return payload

        mapped = estimate_json()
        monkeypatch.setattr(sketchfile, "MAP_BYTES", 2 * MAP_BYTES)
        assert estimate_json() == mapped


def test_failed_save_leaves_the_file_and_no_temporary(tmp_path):
    path = tmp_path / "s.jsk"
    _save_two(path)
    before = path.read_bytes()
    with pytest.raises(DataError, match="counter grid for 'A' has shape"):
        _save_two(path, a_rows=1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsk"]


def test_failing_producer_leaves_the_file_and_no_temporary(tmp_path):
    path = tmp_path / "s.jsk"
    _save_two(path)
    before = path.read_bytes()
    asked = []

    def relations():
        yield "A", np.zeros((2, 4))
        asked.append("B")
        raise DataError("source of B is bad")

    with pytest.raises(DataError, match="source of B is bad"):
        save_sketch_file(str(path), two_rel_graph(), SketchConfig(m=4, l=2), relations())
    assert asked == ["B"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsk"]


def test_save_writes_each_grid_before_asking_for_the_next(tmp_path):
    # A producer may hand over one grid, refilled for every relation.
    grid = np.empty((2, 4))

    def relations():
        for k, name in enumerate("ABC"):
            grid.fill(k + 1.5)
            yield name, grid

    path = str(tmp_path / "s.jsk")
    save_sketch_file(path, two_rel_graph(), SketchConfig(m=4, l=2), relations())
    _, loaded = load_sketch_file(path)
    assert [(name, g.tolist()) for name, g in loaded] == [
        (name, [[k + 1.5] * 4] * 2) for k, name in enumerate("ABC")
    ]


def _save_two(path, a_rows=2):
    """Save relations A and B under m=4, l=2; A's grid has `a_rows` rows."""
    relations = [("A", np.zeros((a_rows, 4))), ("B", np.ones((2, 4)))]
    save_sketch_file(str(path), two_rel_graph(), SketchConfig(m=4, l=2), relations)


def _edited_file(tmp_path, edit, big=False):
    """A valid two-relation file whose bytes `edit` then changed in place;
    a `big` file's grids total MAP_BYTES, so it loads through a mapping."""
    path = tmp_path / "e.jsk"
    if big:
        save_sketch_file(str(path), two_rel_graph(), *_big_relations())
    else:
        _save_two(path)
    data = bytearray(path.read_bytes())
    edit(data)
    path.write_bytes(bytes(data))
    return str(path)


def _load_edited(edit, big=False):
    return lambda tmp_path: load_sketch_file(_edited_file(tmp_path, edit, big))


def _version_1(data):
    data[:4] = b"JSK1"


# Offsets: magic 0, method tag 4, m 5.
_BAD_SKETCH_FILES = {
    "unsupported-version": (
        _load_edited(_version_1),
        "e.jsk: a JSK1 sketch file, which this version no longer reads; "
        "re-run `joinsketch sketch`"),
    "unknown-method-tag": (
        _load_edited(lambda data: struct.pack_into("<B", data, 4, 7)),
        "e.jsk: unknown method tag 7"),
    "cut-in-the-header": (
        _load_edited(lambda data: data.__delitem__(slice(12, None))),
        "e.jsk: truncated sketch file while reading header"),
    "trailing-bytes": (
        _load_edited(lambda data: data.extend(b"\0")),
        "e.jsk: trailing bytes after sketch data"),
    "mapped-truncated": (
        _load_edited(lambda data: data.__delitem__(slice(-5, None)), big=True),
        "e.jsk: truncated sketch file while reading counters for 'B'"),
    "mapped-trailing-bytes": (
        _load_edited(lambda data: data.extend(b"\0"), big=True),
        "e.jsk: trailing bytes after sketch data"),
    "mapped-huge-m": (
        _load_edited(lambda data: struct.pack_into("<Q", data, 5, 2**40), big=True),
        "e.jsk: truncated sketch file while reading counters for 'A'"),
    "grid-shape-on-save": (
        lambda tmp_path: _save_two(tmp_path / "s.jsk", a_rows=1),
        "counter grid for 'A' has shape (1, 4), expected (2, 4)"),
}


@pytest.mark.parametrize("case", list(_BAD_SKETCH_FILES))
def test_bad_sketch_file_raises(tmp_path, case):
    run, fragment = _BAD_SKETCH_FILES[case]
    with pytest.raises(DataError) as raised:
        run(tmp_path)
    assert type(raised.value) is DataError
    assert fragment in str(raised.value)


def test_bad_sketch_file_exits_3(tmp_path, caplog):
    q = tmp_path / "q.json"
    q.write_text(json.dumps(two_rel_query_doc()))
    path = _edited_file(tmp_path, _version_1)
    assert main(["estimate", "--query", str(q), "--sketches", path]) == EXIT_DATA
    assert "re-run `joinsketch sketch` to write it as JSK2" in caplog.text
