"""Dense AMS baseline: counter semantics, the shared build of a query's
sketches, estimator rules, and the exact agreement with the convolution
sketch at m=1."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from joinsketch.ams import (
    ams_bulk_update,
    ams_estimate,
    ams_sketch,
    ams_update,
)
from joinsketch.bench import build_sketches
from joinsketch.errors import QueryError
from joinsketch.hashing import derive_hash_set, sign_eval, sign_parity_table
from joinsketch.sketch import (
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    build_sketch,
    bulk_update,
    updates_to_columns,
)

from conftest import ams_build, chain3_graph, multiway_graph, turnstile_stream, two_rel_graph


def ams_single(sk, columns, deltas):
    """The AMS bulk update of one relation, in `bulk_update`'s call form."""
    ams_bulk_update([sk], [(columns, deltas)])


def empty_sketch(method, relation, graph, m, l, seed):
    """A fresh sketch of either method and that method's bulk update."""
    config = SketchConfig(m=m, l=l, seed=seed, method=method)
    sk = RelationSketch(relation, config, graph, derive_hash_set(config, graph))
    return sk, bulk_update if method == "conv" else ams_single


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
            got = signs(coeffs, 12345)[j]
            assert int(got) == sign_eval(coeffs[j], 12345)

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
            ams_single(sk, {0: np.array([7], dtype=np.uint64)}, np.ones(1))
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
        ams_single(bulk, *updates_to_columns(stream, graph, relation))
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

    @pytest.mark.parametrize("method", ["conv", "ams"])
    def test_empty_and_cancelled_batches_leave_zero_counters(self, method):
        graph = chain3_graph()
        inserts = [TupleUpdate(1, {1: k, 2: k % 3}, 1.0) for k in range(20)]
        deletes = [TupleUpdate(1, t.values, -1.0) for t in inserts]
        for updates in ([], inserts + deletes):
            sk, bulk = empty_sketch(method, 1, graph, m=64, l=2, seed=13)
            bulk(sk, *updates_to_columns(updates, graph, 1))
            assert not sk.counters.any()
            assert sk.touched_cells == 0

    def test_parity_tables_cover_only_values_of_nonzero_tuples(self, monkeypatch):
        # Values 100-104 of attribute 1 and 7 of attribute 2 appear only in
        # tuples whose deltas cancel: no parity row is built for them.
        import joinsketch.ams as ams

        graph = chain3_graph()
        kept = [TupleUpdate(1, {1: k, 2: k % 3}, float(k % 2 + 1)) for k in range(12)]
        gone = [TupleUpdate(1, {1: 100 + k, 2: 7 if k % 2 else k % 3}, 1.0) for k in range(5)]
        stream = kept + gone + [TupleUpdate(1, t.values, -1.0) for t in gone]
        config = SketchConfig(m=64, l=2, seed=16, method="ams")
        seen = []

        def counted(coefficients, values):
            seen.append(values.tolist())
            return sign_parity_table(coefficients, values)

        monkeypatch.setattr(ams, "sign_parity_table", counted)
        bulk = ams_sketch(1, config, graph)
        ams_single(bulk, *updates_to_columns(stream, graph, 1))
        monkeypatch.undo()
        used = {u: sorted({t.values[u] for t in kept}) for u in (1, 2)}
        assert seen == [used[1], used[2]] * config.l
        scalar = ams_sketch(1, config, graph)
        for t in stream:
            ams_update(scalar, t)
        assert bulk.counters.tobytes() == scalar.counters.tobytes()
        assert bulk.touched_cells == config.l * config.m * len(kept)

    @pytest.mark.parametrize("method", ["conv", "ams"])
    def test_repeated_batch_equals_scaled_deltas(self, method):
        # A sketch is linear in the net frequencies: ten copies of a batch
        # write what the batch with ten-fold deltas writes, cell for cell.
        graph = chain3_graph()
        stream = turnstile_stream(np.random.default_rng(14), graph, 1, 200, domain=16)
        columns, deltas = updates_to_columns(stream, graph, 1)
        repeated, bulk = empty_sketch(method, 1, graph, m=64, l=2, seed=15)
        bulk(repeated, {u: np.tile(col, 10) for u, col in columns.items()}, np.tile(deltas, 10))
        scaled, _ = empty_sketch(method, 1, graph, m=64, l=2, seed=15)
        bulk(scaled, columns, deltas * 10.0)
        assert repeated.counters.any()
        assert repeated.counters.tobytes() == scaled.counters.tobytes()
        assert repeated.touched_cells == scaled.touched_cells

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


def query_streams(graph, seed, cancelled):
    """Turnstile streams of every relation of a query, for the shared build.

    Attribute u draws from [5u, 5u + 24), so the two endpoints of an edge
    share only part of their values.  On the first edge (u, v), value 500
    is inserted and deleted again at u while a live tuple uses it at v.
    Every tuple of relation `cancelled` is deleted again.
    """
    rng = np.random.default_rng(seed)
    owner = {u: rel for rel in range(graph.r) for u in graph.omega[rel]}
    streams = [
        [
            TupleUpdate(rel, {u: x + 5 * u for u, x in t.values.items()}, t.delta)
            for t in turnstile_stream(rng, graph, rel, 60, domain=24)
        ]
        for rel in range(graph.r)
    ]
    u, v = graph.edges[0]
    for attr, deltas in ((u, (1.0, -1.0)), (v, (2.0,))):
        values = {w: 500 if w == attr else 5 * w for w in graph.omega[owner[attr]]}
        streams[owner[attr]] += [TupleUpdate(owner[attr], values, d) for d in deltas]
    streams[cancelled] += [TupleUpdate(t.relation, t.values, -t.delta) for t in streams[cancelled]]
    return streams


def live_keys(graph, rel, stream):
    """The attribute-ordered tuples of a stream with nonzero net frequency."""
    net = Counter()
    for t in stream:
        net[tuple(t.values[u] for u in graph.omega[rel])] += t.delta
    return [key for key, f in net.items() if f != 0.0]


def used_values(graph, streams):
    """Each attribute's sorted values over the tuples of nonzero net frequency."""
    used = {}
    for rel, stream in enumerate(streams):
        live = live_keys(graph, rel, stream)
        for i, u in enumerate(graph.omega[rel]):
            used[u] = sorted({key[i] for key in live})
    return used


class TestAmsQueryBuild:
    """`build_sketches` updates all AMS sketches of a query in one
    `ams_bulk_update` call, one parity table per (edge, repetition)."""

    @pytest.mark.parametrize(
        "graph_of, cancelled", [(chain3_graph, 2), (multiway_graph, 3)], ids=["chain3", "multiway"]
    )
    def test_counters_match_per_tuple_updates(self, graph_of, cancelled):
        # m = 4096 takes 8 rows per block, so each relation spans blocks.
        # In the multiway query R1.a1 sits on two edges.
        graph = graph_of()
        config = SketchConfig(m=4096, l=2, seed=21, method="ams")
        streams = query_streams(graph, 22, cancelled)
        built = build_sketches(
            graph, config, [updates_to_columns(s, graph, rel) for rel, s in enumerate(streams)]
        )
        used = used_values(graph, streams)
        u, v = graph.edges[0]
        assert 500 in used[v] and 500 not in used[u]
        for rel, stream in enumerate(streams):
            scalar = ams_sketch(rel, config, graph)
            for t in stream:
                ams_update(scalar, t)
            assert built[rel].counters.tobytes() == scalar.counters.tobytes(), rel
            live = len(live_keys(graph, rel, stream))
            assert built[rel].touched_cells == config.l * config.m * live
        assert not built[cancelled].counters.any()
        assert built[cancelled].touched_cells == 0

    @pytest.mark.parametrize("graph_of", [chain3_graph, multiway_graph], ids=["chain3", "multiway"])
    def test_one_parity_table_per_edge_and_repetition(self, monkeypatch, graph_of):
        # Each call covers the sorted union of both endpoints' used values:
        # 2 edges x 5 repetitions make 10 calls on a chain of three.
        import joinsketch.ams as ams

        graph = graph_of()
        config = SketchConfig(m=64, l=5, seed=23, method="ams")
        streams = query_streams(graph, 24, cancelled=graph.r - 1)
        seen = []

        def counted(coefficients, values):
            seen.append(values.tolist())
            return sign_parity_table(coefficients, values)

        monkeypatch.setattr(ams, "sign_parity_table", counted)
        build_sketches(
            graph, config, [updates_to_columns(s, graph, rel) for rel, s in enumerate(streams)]
        )
        used = used_values(graph, streams)
        unions = [sorted(set(used[u]) | set(used[v])) for u, v in graph.edges]
        assert len(seen) == config.l * len(graph.edges)
        assert sorted(seen) == sorted(unions * config.l)

    def test_rejects_repeated_relations_and_mixed_configs(self):
        # Sketches built together share one union per edge, so each must be
        # a different relation of the same query and config.
        graph = two_rel_graph()
        batch = ({0: np.array([7], dtype=np.uint64)}, np.ones(1))
        config = SketchConfig(m=8, l=1, seed=5, method="ams")
        other = SketchConfig(m=8, l=1, seed=6, method="ams")
        for pair in (
            [ams_sketch(0, config, graph), ams_sketch(0, config, graph)],
            [ams_sketch(0, config, graph), ams_sketch(1, other, graph)],
        ):
            with pytest.raises(QueryError, match="distinct relations of one query"):
                ams_bulk_update(pair, [batch, ({1: batch[0][0]}, batch[1])])
            assert not any(sk.counters.any() for sk in pair)

    def test_build_holds_one_repetitions_tables(self):
        # The traced peak, less the counter grids and the sign families
        # that the build keeps, must not grow with l: a build that kept
        # every repetition's parity tables would add 15 repetitions' worth.
        graph = chain3_graph()
        rng = np.random.default_rng(25)
        columns = [
            ({u: rng.integers(0, 1500, size=3000).astype(np.uint64) for u in graph.omega[rel]},
             np.ones(3000))
            for rel in range(graph.r)
        ]
        owner = {u: cols for cols, _ in columns for u in cols}
        m = 1024
        tables = m * sum(len(np.union1d(owner[u][u], owner[v][v])) for u, v in graph.edges)

        def extra_peak(l):
            config = SketchConfig(m=m, l=l, seed=26, method="ams")
            tracemalloc.start()
            try:
                sketches = build_sketches(graph, config, columns)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = sum(sk.counters.nbytes for sk in sketches)
            hashes = sketches[0].hashes
            kept += sum(
                hashes.coefficients(u, v, rep).nbytes for u, v in graph.edges for rep in range(l)
            )
            return peak - kept

        assert extra_peak(20) - extra_peak(5) < tables // 4


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
