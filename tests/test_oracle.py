"""Exact oracle: hand-checked small joins, path agreement, guards."""

import gc
import weakref

import numpy as np
import pytest

from joinsketch.errors import BudgetError, QueryError
from joinsketch.oracle import exact_cardinality, frequency_norms, materialize
from joinsketch.sketch import TupleUpdate

from conftest import chain3_graph, multiway_graph, random_graph, two_rel_graph


def freq_single(values):
    """Frequency map for a single-attribute relation given a value list."""
    out = {}
    for v in values:
        out[(v,)] = out.get((v,), 0.0) + 1.0
    return out


class TestExactCardinality:
    def test_single_join_counts_matching_pairs(self):
        graph = two_rel_graph()
        freqs = [freq_single([1, 1, 2]), freq_single([1, 2, 2])]
        # matches: value 1 -> 2*1, value 2 -> 1*2
        assert exact_cardinality(freqs, graph, path="nested") == 4.0
        assert exact_cardinality(freqs, graph, path="auto") == 4.0

    def test_empty_relation_gives_zero(self):
        graph = two_rel_graph()
        freqs = [freq_single([1, 2]), {}]
        assert exact_cardinality(freqs, graph) == 0.0

    def test_multiway_all_ones_single_tuple(self):
        graph = multiway_graph()
        freqs = [
            {(1,): 1.0},
            {(1, 1): 1.0},
            {(1,): 1.0},
            {(1,): 1.0},
        ]
        assert exact_cardinality(freqs, graph, path="nested") == 1.0
        assert exact_cardinality(freqs, graph, path="auto") == 1.0

    def test_paths_agree_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            graph = random_graph(rng)
            freqs = []
            for rel in range(graph.r):
                width = len(graph.omega[rel])
                freq = {}
                for _ in range(int(rng.integers(1, 12))):
                    key = tuple(int(v) for v in rng.integers(0, 4, size=width))
                    freq[key] = freq.get(key, 0.0) + float(rng.integers(1, 3))
                freqs.append(freq)
            nested = exact_cardinality(freqs, graph, path="nested")
            assert exact_cardinality(freqs, graph, path="auto") == nested

    def test_tuple_order_invariance(self):
        graph = two_rel_graph()
        a = freq_single([3, 1, 2, 1])
        b = freq_single([2, 2, 1, 3])
        forward = exact_cardinality([a, b], graph)
        reordered = exact_cardinality(
            [dict(reversed(list(a.items()))), dict(reversed(list(b.items())))], graph
        )
        assert forward == reordered

    def test_turnstile_weights(self):
        graph = two_rel_graph()
        freqs = [{(1,): 2.0, (2,): -1.0}, {(1,): 3.0, (2,): 5.0}]
        # 2*3 + (-1)*5 = 1
        assert exact_cardinality(freqs, graph, path="nested") == 1.0
        assert exact_cardinality(freqs, graph, path="auto") == 1.0

    def test_chain_relation_weights(self):
        graph = chain3_graph()
        freqs = [
            freq_single([1, 1]),
            {(1, 7): 3.0, (2, 7): 1.0},
            freq_single([7, 7, 7]),
        ]
        # R0 matches (1,7) with weight 2*3, R2 contributes 3 per match: 18
        assert exact_cardinality(freqs, graph, path="nested") == 18.0
        assert exact_cardinality(freqs, graph, path="auto") == 18.0

    def test_hash_join_frees_maps_without_the_cycle_collector(self):
        # The hash join must not leave a reference cycle (such as a
        # recursive closure) holding the frequency maps.
        class WeakFreq(dict):
            pass  # a plain dict cannot be weakly referenced

        graph = chain3_graph()
        freqs = [
            WeakFreq(freq_single([1, 1])),
            WeakFreq({(1, 7): 3.0, (2, 7): 1.0}),
            WeakFreq(freq_single([7, 7, 7])),
        ]
        middle = weakref.ref(freqs[1])
        gc.collect()
        gc.disable()
        try:
            assert exact_cardinality(freqs, graph, path="auto") == 18.0
            del freqs
            assert middle() is None
        finally:
            gc.enable()

    def test_nested_budget_guard(self):
        graph = two_rel_graph()
        big = {(i,): 1.0 for i in range(20_000)}
        with pytest.raises(BudgetError):
            exact_cardinality([big, big], graph, path="nested")

    @pytest.mark.parametrize("path", ["hash", "fft", ""])
    def test_unknown_path_is_rejected(self, path):
        # "auto" is the one name of the hash join.
        graph = two_rel_graph()
        with pytest.raises(QueryError, match="unknown oracle path"):
            exact_cardinality([freq_single([1]), freq_single([1])], graph, path=path)


class TestFrequencyNorms:
    def test_small_example(self):
        assert frequency_norms(freq_single([1, 1, 2])) == 5.0

    def test_all_distinct(self):
        assert frequency_norms(freq_single(list(range(17)))) == 17.0

    def test_empty(self):
        assert frequency_norms({}) == 0.0


class TestMaterialize:
    def test_folds_duplicates_and_drops_zero(self):
        graph = two_rel_graph()
        updates = [
            TupleUpdate(0, {0: 5}, 1.0),
            TupleUpdate(0, {0: 5}, 1.0),
            TupleUpdate(0, {0: 9}, 1.0),
            TupleUpdate(0, {0: 9}, -1.0),
        ]
        freq = materialize(updates, graph, 0)
        assert freq == {(5,): 2.0}
