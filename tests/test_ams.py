"""Dense AMS baseline: counter semantics, estimator rules, and the
exact agreement with the convolution sketch at m=1."""

import numpy as np
import pytest

from joinsketch.ams import (
    ams_bulk_update,
    ams_estimate,
    ams_sketch,
    ams_update,
)
from joinsketch.errors import QueryError
from joinsketch.hashing import SignHash, derive_hash_set, sign_eval
from joinsketch.mersenne import sign_parity_table
from joinsketch.sketch import (
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    build_sketch,
    updates_to_columns,
)

from conftest import ams_build, chain3_graph, multiway_graph, turnstile_stream, two_rel_graph


def signs(coeffs, x):
    """Sign vector of one item over a family's m counters; float64 +-1."""
    return 1.0 - 2.0 * sign_parity_table(coeffs, np.array([x], dtype=np.uint64))[0]


class TestAmsUpdate:
    def test_single_tuple_fills_every_counter_with_signs(self):
        graph = two_rel_graph()
        config = SketchConfig(m=16, l=1, seed=3, method="ams")
        sk = ams_sketch(0, config, graph)
        ams_update(sk, TupleUpdate(0, {0: 99}, 1.0))
        expected = signs(sk.hashes.coefficients(0, 1, 0), 99)
        np.testing.assert_array_equal(sk.counters[0], expected)
        assert set(np.unique(sk.counters[0])) <= {-1.0, 1.0}

    def test_counter_signs_match_scalar_polynomials(self):
        graph = two_rel_graph()
        config = SketchConfig(m=8, l=1, seed=4, method="ams")
        sk = ams_sketch(0, config, graph)
        coeffs = sk.hashes.coefficients(0, 1, 0)
        for j in range(8):
            h = SignHash(tuple(int(c) for c in coeffs[j]), (0, 1), 0)
            got = signs(coeffs, 12345)[j]
            assert int(got) == sign_eval(h, 12345)

    def test_cancellation(self):
        graph = two_rel_graph()
        config = SketchConfig(m=8, l=2, seed=5, method="ams")
        sk = ams_sketch(0, config, graph)
        ams_update(sk, TupleUpdate(0, {0: 7}, 1.0))
        ams_update(sk, TupleUpdate(0, {0: 7}, -1.0))
        assert not sk.counters.any()

    def test_touch_count_is_l_times_m(self):
        graph = two_rel_graph()
        config = SketchConfig(m=32, l=3, seed=5, method="ams")
        sk = ams_sketch(0, config, graph)
        ams_update(sk, TupleUpdate(0, {0: 7}, 1.0))
        assert sk.touched_cells == 3 * 32

    def test_rejects_conv_sketch(self):
        graph = two_rel_graph()
        config = SketchConfig(m=8, l=1, seed=5, method="conv")
        hashes = derive_hash_set(config, graph)
        sk = RelationSketch(0, config, graph, hashes)
        with pytest.raises(QueryError):
            ams_update(sk, TupleUpdate(0, {0: 7}, 1.0))

    def test_bulk_updates_reject_the_other_method(self):
        # build_sketch under an ams config used to scatter conv counters
        # into a sketch labelled ams, which ams_estimate then read.
        graph = two_rel_graph()
        ams_config = SketchConfig(m=8, l=1, seed=5, method="ams")
        with pytest.raises(QueryError, match="applies to conv sketches"):
            build_sketch(
                [TupleUpdate(0, {0: 7}, 1.0)], graph,
                derive_hash_set(ams_config, graph), ams_config, 0,
            )
        conv_config = SketchConfig(m=8, l=1, seed=5)
        sk = RelationSketch(0, conv_config, graph, derive_hash_set(conv_config, graph))
        with pytest.raises(QueryError, match="applies to ams sketches"):
            ams_bulk_update(sk, {0: np.array([7], dtype=np.uint64)}, np.ones(1))
        assert not sk.counters.any()


class TestAmsBuild:
    def _stream(self, rng, relation, attrs, n, domain=8):
        return [
            TupleUpdate(
                relation,
                {u: int(rng.integers(0, domain)) for u in attrs},
                float(rng.integers(1, 3)),
            )
            for _ in range(n)
        ]

    def test_grouped_build_matches_per_tuple_updates(self):
        graph = multiway_graph()
        rng = np.random.default_rng(1)
        config = SketchConfig(m=16, l=2, seed=6, method="ams")
        stream = self._stream(rng, 1, [1, 2], 30)
        grouped = ams_build(stream, graph, config, 1)
        scalar = ams_sketch(1, config, graph)
        for t in stream:
            ams_update(scalar, t)
        np.testing.assert_array_equal(grouped.counters, scalar.counters)

    @pytest.mark.parametrize("relation", [0, 1])
    def test_bulk_update_matches_per_tuple_on_turnstile_stream(self, relation):
        # m = 4096 takes 8 rows per block, so both the distinct tuples and
        # each attribute's distinct values span several blocks.
        graph = chain3_graph()
        rng = np.random.default_rng(10 + relation)
        config = SketchConfig(m=4096, l=2, seed=12, method="ams")
        stream = turnstile_stream(rng, graph, relation, 150, domain=40)
        bulk = ams_sketch(relation, config, graph)
        ams_bulk_update(bulk, *updates_to_columns(stream, graph, relation))
        scalar = ams_sketch(relation, config, graph)
        for t in stream:
            ams_update(scalar, t)
        assert bulk.counters.tobytes() == scalar.counters.tobytes()

        net: dict[tuple, float] = {}
        for t in stream:
            key = tuple(t.values[u] for u in graph.omega[relation])
            net[key] = net.get(key, 0.0) + t.delta
        distinct = sum(1 for f in net.values() if f != 0.0)
        assert distinct > 16
        assert bulk.touched_cells == config.l * config.m * distinct

    def test_empty_and_cancelled_batches_leave_zero_counters(self):
        graph = chain3_graph()
        config = SketchConfig(m=64, l=2, seed=13, method="ams")
        empty = ams_build([], graph, config, 1)
        inserts = [TupleUpdate(1, {1: k, 2: k % 3}, 1.0) for k in range(20)]
        deletes = [TupleUpdate(1, t.values, -1.0) for t in inserts]
        cancelled = ams_build(inserts + deletes, graph, config, 1)
        for sk in (empty, cancelled):
            assert not sk.counters.any()
            assert sk.touched_cells == 0

    def test_m_one_matches_conv_sketch(self):
        # At m=1 both methods reduce to the signed frequency sum with the
        # same edge sign hashes.
        graph = multiway_graph()
        rng = np.random.default_rng(2)
        conv_config = SketchConfig(m=1, l=3, seed=7, method="conv")
        ams_config = SketchConfig(m=1, l=3, seed=7, method="ams")
        hashes = derive_hash_set(conv_config, graph)
        for rel in range(graph.r):
            stream = self._stream(rng, rel, graph.omega[rel], 15)
            conv_sk = build_sketch(stream, graph, hashes, conv_config, rel)
            ams_sk = ams_build(stream, graph, ams_config, rel)
            np.testing.assert_array_equal(conv_sk.counters, ams_sk.counters)


class TestAmsEstimate:
    def test_identical_single_tuple_relations_give_one(self):
        # X = (1/m) sum_j s_j(i)^2 = 1 for any seed
        graph = two_rel_graph()
        config = SketchConfig(m=32, l=4, seed=8, method="ams")
        a = ams_build([TupleUpdate(0, {0: 5}, 1.0)], graph, config, 0)
        b = ams_build([TupleUpdate(1, {1: 5}, 1.0)], graph, config, 1)
        report = ams_estimate([a, b], graph)
        assert report.per_repetition == (1.0,) * 4
        assert report.median == 1.0

    def test_zero_relation_gives_zero(self):
        graph = two_rel_graph()
        config = SketchConfig(m=16, l=3, seed=9, method="ams")
        a = ams_build([TupleUpdate(0, {0: 5}, 1.0)], graph, config, 0)
        b = ams_build([], graph, config, 1)
        report = ams_estimate([a, b], graph)
        assert report.median == 0.0

    def test_rejects_sketches_out_of_relation_order(self):
        # [R0, R0, R2] used to give -0.125; the three relations' median is 1.0.
        graph = chain3_graph()
        config = SketchConfig(m=16, l=3, seed=1, method="ams")
        sk0, sk1, sk2 = (
            ams_build([TupleUpdate(rel, dict.fromkeys(graph.omega[rel], 5), 1.0)],
                      graph, config, rel)
            for rel in range(3)
        )
        assert ams_estimate([sk0, sk1, sk2], graph).median == 1.0
        with pytest.raises(QueryError, match="position 1 is for relation 0"):
            ams_estimate([sk0, sk0, sk2], graph)

    def test_rejects_mixed_configs(self):
        graph = two_rel_graph()
        c1 = SketchConfig(m=16, l=1, seed=1, method="ams")
        c2 = SketchConfig(m=16, l=1, seed=2, method="ams")
        a = ams_sketch(0, c1, graph)
        b = ams_sketch(1, c2, graph)
        with pytest.raises(QueryError):
            ams_estimate([a, b], graph)

    def test_rejects_conv_sketches(self):
        graph = two_rel_graph()
        config = SketchConfig(m=8, l=1, seed=1, method="conv")
        hashes = derive_hash_set(config, graph)
        sketches = [RelationSketch(r, config, graph, hashes) for r in range(2)]
        with pytest.raises(QueryError):
            ams_estimate(sketches, graph)
