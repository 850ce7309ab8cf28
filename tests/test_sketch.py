"""Sketch construction: hashing composition, turnstile linearity,
update-cost instrumentation, and the binary file format."""

import json
import struct

import numpy as np
import pytest

from joinsketch.cli import EXIT_DATA, main
from joinsketch.errors import DataError, QueryError
from joinsketch.hashing import bin_eval, derive_hash_set, sign_eval
from joinsketch.sketch import (
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    build_sketch,
    bulk_update,
    distinct_tuples,
    merge,
    tuple_bin,
    tuple_sign,
    update,
    updates_to_columns,
)
from joinsketch.sketchfile import load_sketch_file, save_sketch_file

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


class TestTupleHashing:
    def test_twice_joined_sign_is_three_factor_product(self):
        graph = multiway_graph()
        sk, hashes = make_conv(graph, relation=1, m=16, l=1, seed=11)
        t = TupleUpdate(relation=1, values={1: 7, 2: 9})
        expected = (
            sign_eval(hashes.sign_for(1, 3, 0), 7)
            * sign_eval(hashes.sign_for(1, 0, 0), 7)
            * sign_eval(hashes.sign_for(2, 4, 0), 9)
        )
        assert tuple_sign(graph, hashes, 0, t) == expected

    def test_single_attribute_sign_is_single_factor(self):
        graph = two_rel_graph()
        sk, hashes = make_conv(graph, relation=0, m=16, l=1, seed=11)
        t = TupleUpdate(relation=0, values={0: 42})
        assert tuple_sign(graph, hashes, 0, t) == sign_eval(hashes.sign_for(0, 1, 0), 42)

    def test_two_attr_bin_adds_component_hashes(self):
        graph = multiway_graph()
        sk, hashes = make_conv(graph, relation=1, m=8, l=1, seed=5)
        t = TupleUpdate(relation=1, values={1: 7, 2: 9})
        expected = (
            bin_eval(hashes.bin_for(graph.psi[1], 0), 7)
            + bin_eval(hashes.bin_for(graph.psi[2], 0), 9)
        ) % 8
        assert tuple_bin(graph, hashes, 0, t) == expected

    def test_m_one_bins_to_zero(self):
        graph = multiway_graph()
        sk, hashes = make_conv(graph, relation=1, m=1, l=1)
        t = TupleUpdate(relation=1, values={1: 7, 2: 9})
        assert tuple_bin(graph, hashes, 0, t) == 0

    def test_missing_attribute_value(self):
        graph = multiway_graph()
        sk, hashes = make_conv(graph, relation=1)
        t = TupleUpdate(relation=1, values={1: 7})
        with pytest.raises(DataError, match="misses attribute"):
            tuple_sign(graph, hashes, 0, t)


class TestUpdate:
    def test_single_tuple_grid(self):
        graph = two_rel_graph()
        sk, hashes = make_conv(graph, relation=0, m=8, l=3)
        t = TupleUpdate(relation=0, values={0: 5}, delta=1.0)
        update(sk, t)
        for rep in range(3):
            j = tuple_bin(graph, hashes, rep, t)
            s = tuple_sign(graph, hashes, rep, t)
            expected = np.zeros(8)
            expected[j] = s
            np.testing.assert_array_equal(sk.counters[rep], expected)

    def test_turnstile_cancellation(self):
        graph = two_rel_graph()
        sk, _ = make_conv(graph, relation=0, m=8, l=3)
        update(sk, TupleUpdate(0, {0: 5}, +2.0))
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

    def test_rejects_extra_attributes(self):
        graph = two_rel_graph()
        sk, _ = make_conv(graph, relation=0)
        with pytest.raises(DataError, match="cover attributes"):
            update(sk, TupleUpdate(0, {0: 3, 1: 4}, 1.0))


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
        assert bulk.touched_cells == 4 * len(stream)

    def test_rejects_mismatched_tuples(self):
        graph = multiway_graph()
        with pytest.raises(DataError, match="contains a tuple for relation 0"):
            updates_to_columns([TupleUpdate(0, {0: 1})], graph, 1)
        with pytest.raises(DataError, match="cover attributes"):
            updates_to_columns([TupleUpdate(1, {1: 1})], graph, 1)


def _stacked_distinct_tuples(columns, attrs, deltas):
    """The structured-row grouping that `distinct_tuples` replaced, kept
    as its reference: one `np.unique(axis=0)` over the stacked columns."""
    if len(deltas) == 0:
        return np.empty((0, len(attrs)), dtype=np.uint64), np.empty(0, dtype=np.float64)
    stacked = np.stack([np.asarray(columns[u], dtype=np.uint64) for u in attrs], axis=1)
    keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
    sums = np.bincount(inverse.reshape(-1), weights=deltas, minlength=len(keys))
    keep = sums != 0.0
    return keys[keep], sums[keep]


def _tuple_batch(case):
    """(columns, attrs, deltas) for one grouping case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    width = {"empty": 2, "one": 1, "two": 2, "three": 3, "four": 4}.get(case, 3)
    n = 0 if case == "empty" else 500
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
    elif case == "fractional":
        deltas = rng.random(n) * rng.choice([-1.0, 1.0], size=n) / 3.0
    return columns, attrs, deltas


@pytest.mark.parametrize(
    "case", ["empty", "one", "two", "three", "four", "high-bit", "cancelling", "fractional"]
)
def test_distinct_tuples_matches_the_stacked_unique(case):
    columns, attrs, deltas = _tuple_batch(case)
    keys, sums = distinct_tuples(columns, attrs, deltas)
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
    if case in ("three", "four"):
        assert len(keys) > 6  # the batch had tuples to fold past the first column


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
            expected = sum(tuple_sign(graph, hashes, rep, t) * t.delta for t in stream)
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
            s1 = sign_eval(hashes.sign_for(1, 0, 0), 123) * sign_eval(
                hashes.sign_for(1, 3, 0), 123
            )
            attr1[bin_eval(hashes.bin_for(graph.psi[1], 0), 123)] = s1
            attr2 = np.zeros(m)
            s2 = sign_eval(hashes.sign_for(2, 4, 0), 456)
            attr2[bin_eval(hashes.bin_for(graph.psi[2], 0), 456)] = s2

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
        save_sketch_file(path, config, relations)
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
        save_sketch_file(path, config, relations)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_sketch_file(path)

    def _saved(self, tmp_path):
        config = SketchConfig(m=4, l=2, seed=0)
        path = str(tmp_path / "h.jsk")
        save_sketch_file(path, config, [("A", np.zeros((2, 4))), ("B", np.ones((2, 4)))])
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
        save_sketch_file(path, config, relations)
        loaded_config, _ = load_sketch_file(path)
        assert loaded_config.method == "ams"


def _save_two(path, a_rows=2):
    """Save relations A and B under m=4, l=2; A's grid has `a_rows` rows."""
    save_sketch_file(
        str(path), SketchConfig(m=4, l=2), [("A", np.zeros((a_rows, 4))), ("B", np.ones((2, 4)))]
    )


def _edited_file(tmp_path, edit):
    """A valid two-relation file whose bytes `edit` then changed in place."""
    path = tmp_path / "e.jsk"
    _save_two(path)
    data = bytearray(path.read_bytes())
    edit(data)
    path.write_bytes(bytes(data))
    return str(path)


def _load_edited(edit):
    return lambda tmp_path: load_sketch_file(_edited_file(tmp_path, edit))


def _version_2(data):
    struct.pack_into("<I", data, 4, 2)


# Offsets: magic 0, version 4, method tag 8, m 9.
_BAD_SKETCH_FILES = {
    "unsupported-version": (
        _load_edited(_version_2),
        "e.jsk: unsupported sketch file version 2"),
    "unknown-method-tag": (
        _load_edited(lambda data: struct.pack_into("<B", data, 8, 7)),
        "e.jsk: unknown method tag 7"),
    "cut-in-the-header": (
        _load_edited(lambda data: data.__delitem__(slice(12, None))),
        "e.jsk: truncated sketch file while reading m"),
    "trailing-bytes": (
        _load_edited(lambda data: data.extend(b"\0")),
        "e.jsk: trailing bytes after sketch data"),
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
    path = _edited_file(tmp_path, _version_2)
    assert main(["estimate", "--query", str(q), "--sketches", path]) == EXIT_DATA
    assert "unsupported sketch file version 2" in caplog.text
