"""Exact oracle: hand-checked small joins, path agreement, guards."""

import gc
import weakref
from collections import defaultdict
from math import prod

import numpy as np
import pytest

from joinsketch.errors import BudgetError, DataError, QueryError
from joinsketch.joingraph import build_join_graph, parse_query, traversal_plan
from joinsketch import oracle
from joinsketch.oracle import exact_cardinality, frequency_norms, materialize
from joinsketch.sketch import DENSE_SPAN, TupleUpdate, dense_window, group_tuples

from conftest import chain3_graph, multiway_graph, random_graph, two_rel_graph


def freq_of(freq, width=1):
    """The (groups, weights) pair of a {key tuple: frequency} dict."""
    keys = list(freq)
    width = len(keys[0]) if keys else width
    columns = {p: np.array([k[p] for k in keys], dtype=np.uint64) for p in range(width)}
    deltas = np.array(list(freq.values()), dtype=np.float64)
    return group_tuples(columns, tuple(range(width)), deltas)


def freq_single(values):
    """The (groups, weights) pair of a single-attribute relation given a value list."""
    return group_tuples({0: np.array(values, dtype=np.uint64)}, (0,), np.ones(len(values)))


def stacked(freq):
    """The (n, k) uint64 key rows of a (groups, weights) pair, in tuple order."""
    return np.stack([values[inverse] for values, inverse in freq[0]], axis=1)


def as_dict(freq):
    """{key tuple: frequency} of a (groups, weights) pair, in tuple order."""
    return dict(zip(map(tuple, stacked(freq).tolist()), freq[1].tolist()))


class TestExactCardinality:
    def test_single_join_counts_matching_pairs(self):
        graph = two_rel_graph()
        freqs = [freq_single([1, 1, 2]), freq_single([1, 2, 2])]
        # matches: value 1 -> 2*1, value 2 -> 1*2
        assert exact_cardinality(freqs, graph, path="nested") == 4.0
        assert exact_cardinality(freqs, graph, path="auto") == 4.0

    def test_empty_relation_gives_zero(self):
        graph = two_rel_graph()
        freqs = [freq_single([1, 2]), freq_of({})]
        assert exact_cardinality(freqs, graph) == 0.0

    def test_multiway_all_ones_single_tuple(self):
        graph = multiway_graph()
        freqs = [
            freq_of({(1,): 1.0}),
            freq_of({(1, 1): 1.0}),
            freq_of({(1,): 1.0}),
            freq_of({(1,): 1.0}),
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
                freqs.append(freq_of(freq))
            nested = exact_cardinality(freqs, graph, path="nested")
            assert exact_cardinality(freqs, graph, path="auto") == nested

    def test_tuple_order_invariance(self):
        graph = two_rel_graph()
        a = [3, 1, 2, 1]
        b = [2, 2, 1, 3]
        forward = exact_cardinality([freq_single(a), freq_single(b)], graph)
        reordered = exact_cardinality([freq_single(a[::-1]), freq_single(b[::-1])], graph)
        assert forward == reordered

    def test_turnstile_weights(self):
        graph = two_rel_graph()
        freqs = [freq_of({(1,): 2.0, (2,): -1.0}), freq_of({(1,): 3.0, (2,): 5.0})]
        # 2*3 + (-1)*5 = 1
        assert exact_cardinality(freqs, graph, path="nested") == 1.0
        assert exact_cardinality(freqs, graph, path="auto") == 1.0

    def test_chain_relation_weights(self):
        graph = chain3_graph()
        freqs = [
            freq_single([1, 1]),
            freq_of({(1, 7): 3.0, (2, 7): 1.0}),
            freq_single([7, 7, 7]),
        ]
        # R0 matches (1,7) with weight 2*3, R2 contributes 3 per match: 18
        assert exact_cardinality(freqs, graph, path="nested") == 18.0
        assert exact_cardinality(freqs, graph, path="auto") == 18.0

    def test_hash_join_frees_maps_without_the_cycle_collector(self):
        # The hash join must not leave a reference cycle (such as a
        # recursive closure) holding the frequency arrays.
        graph = chain3_graph()
        freqs = [
            freq_single([1, 1]),
            freq_of({(1, 7): 3.0, (2, 7): 1.0}),
            freq_single([7, 7, 7]),
        ]
        middle = weakref.ref(freqs[1][1])
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
        big = freq_single(list(range(20_000)))
        with pytest.raises(BudgetError):
            exact_cardinality([big, big], graph, path="nested")

    @pytest.mark.parametrize("path", ["hash", "fft", ""])
    def test_unknown_path_is_rejected(self, path):
        # "auto" is the one name of the hash join.
        graph = two_rel_graph()
        with pytest.raises(QueryError, match="unknown oracle path"):
            exact_cardinality([freq_single([1]), freq_single([1])], graph, path=path)

    def test_unknown_path_is_rejected_before_the_empty_shortcut(self):
        empty = freq_single([])
        with pytest.raises(QueryError, match="unknown oracle path"):
            exact_cardinality([empty, empty], two_rel_graph(), path="bogus")


def _dict_hash_join(freqs, graph):
    """The hash join over {key tuple: frequency} dicts that the array
    walk replaced, kept as its reference: one Python loop per key."""
    return sum(_dict_subtree(traversal_plan(graph, "auto"), freqs, graph).values(), 0.0)


def _dict_subtree(node, freqs, graph):
    omega = graph.omega[node.relation]
    entry = omega.index(node.attr)
    child_maps = [
        (omega.index(other), _dict_subtree(child, freqs, graph))
        for other, children in node.cross_groups
        for child in children
    ]
    child_maps += [(entry, _dict_subtree(child, freqs, graph)) for child in node.hadamard_children]
    out = defaultdict(float)
    for key, weight in freqs[node.relation].items():
        acc = weight
        for p, cmap in child_maps:
            acc *= cmap.get(key[p], 0.0)
            if acc == 0.0:
                break
        if acc != 0.0:
            out[key[entry]] += acc
    return out


def three_column_graph():
    """A relation joined on three columns, entered at one of them: its
    other two are cross-correlation groups."""
    doc = {
        "relations": [
            {"name": "A", "source": "a.csv", "join_columns": ["a:int"]},
            {"name": "C", "source": "c.csv", "join_columns": ["a:int", "b:int", "c:int"]},
            {"name": "B", "source": "b.csv", "join_columns": ["b:int"]},
            {"name": "D", "source": "d.csv", "join_columns": ["c:int", "e:int"]},
            {"name": "E", "source": "e.csv", "join_columns": ["e:int"]},
        ],
        "joins": [["A.a", "C.a"], ["C.b", "B.b"], ["C.c", "D.c"], ["D.e", "E.e"]],
    }
    return build_join_graph(parse_query(doc))


_VALUES = np.array([*range(10), 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64)


def _random_freqs(rng, graph):
    """Groupings with fractional deltas, keys of 2^63 and above, and rows
    whose deltas cancel to zero."""
    freqs = []
    for rel in range(graph.r):
        omega = graph.omega[rel]
        n = int(rng.integers(1, 40))
        columns = {u: _VALUES[rng.integers(0, len(_VALUES), size=n)] for u in omega}
        deltas = rng.normal(size=n) / 3.0
        # The first third of the rows is inserted again with negated deltas.
        k = n // 3
        columns = {u: np.concatenate([col, col[:k][::-1]]) for u, col in columns.items()}
        deltas = np.concatenate([deltas, -deltas[:k][::-1]])
        freqs.append(group_tuples(columns, omega, deltas))
    return freqs


def test_hash_join_is_bit_equal_to_the_dict_walk():
    rng = np.random.default_rng(10)
    graphs = [three_column_graph()] + [random_graph(rng) for _ in range(150)]
    assert max(len(omega) for omega in graphs[0].omega) == 3
    nonzero = 0
    for graph in graphs:
        freqs = _random_freqs(rng, graph)
        total = exact_cardinality(freqs, graph, path="auto")
        assert total == _dict_hash_join([as_dict(f) for f in freqs], graph)
        nonzero += total != 0.0
    assert nonzero > 100, nonzero  # most instances join something


# Value pools of the lookup cases: a dense window [100, 130), one that
# reaches past it on both sides, and sparse values of up to 2^64 - 1.
_POOLS = (
    np.arange(100, 130, dtype=np.uint64),
    np.arange(90, 145, dtype=np.uint64),
    np.array([0, 7, 115, 2**40, 2**63, 2**64 - 1], dtype=np.uint64),
)


def _mixed_freqs(rng, graph):
    """Groupings whose columns draw from a random pool each, with rows of
    both signs, so children mix dense and sparse value sets and parents
    look up keys below and above a dense child's span."""
    freqs = []
    for rel in range(graph.r):
        omega = graph.omega[rel]
        n = int(rng.integers(1, 30))
        columns = {u: rng.choice(_POOLS[int(rng.integers(0, 3))], size=n) for u in omega}
        freqs.append(group_tuples(columns, omega, rng.choice([-1.0, 1.0, 2.0], size=n)))
    return freqs


@pytest.mark.parametrize("graph", [chain3_graph(), multiway_graph()], ids=["chain3", "star4"])
def test_hash_join_matches_the_nested_loop_on_mixed_lookups(graph, monkeypatch):
    windows = []

    def spy(col, rows=None):
        window = dense_window(col, rows)
        if rows is not None:  # a child lookup, not a column code
            lo = int(col[0])
            hi = lo + window[1] - 1 if window else int(col[-1])
            windows.append((window is not None, lo, hi))
        return window

    monkeypatch.setattr(oracle, "dense_window", spy)
    rng = np.random.default_rng(21)
    nonzero = 0
    for _ in range(200):
        freqs = _mixed_freqs(rng, graph)
        nested = exact_cardinality(freqs, graph, path="nested")
        assert exact_cardinality(freqs, graph, path="auto") == nested
        assert nested == _dict_hash_join([as_dict(f) for f in freqs], graph)
        nonzero += nested != 0.0
    assert nonzero > 10, nonzero  # enough instances join something
    assert {dense for dense, _, _ in windows} == {True, False}  # both lookups ran
    assert any(dense and lo == 100 and hi == 129 for dense, lo, hi in windows)


def test_a_child_whose_weights_all_cancel_gives_zero():
    # R1's rows at y = 1 weigh 1 * 2 + 1 * -2 against R2, so R1's subtree
    # below R0 comes back empty.
    graph = chain3_graph()
    freqs = [
        freq_single([1, 1]),
        freq_of({(1, 5): 1.0, (1, 6): 1.0}),
        freq_of({(5,): 2.0, (6,): -2.0}),
    ]
    assert exact_cardinality(freqs, graph, path="nested") == 0.0
    assert exact_cardinality(freqs, graph, path="auto") == 0.0


def test_lookup_table_sends_keys_outside_the_span_to_zero():
    values = np.array([100, 101, 103], dtype=np.uint64)
    weights = np.array([1.5, -2.0, 4.0])
    keys = np.array([0, 99, 100, 102, 103, 104, 2**63, 2**64 - 1, 101], dtype=np.uint64)
    got = oracle._weights_at(values, weights, keys)
    assert dense_window(values, len(keys)) is not None  # the table path
    assert got.tolist() == [0.0, 0.0, 1.5, 0.0, 4.0, 0.0, 0.0, 0.0, -2.0]


class TestFrequencyNorms:
    def test_small_example(self):
        assert frequency_norms(freq_single([1, 1, 2])) == 5.0

    def test_all_distinct(self):
        assert frequency_norms(freq_single(list(range(17)))) == 17.0

    def test_empty(self):
        assert frequency_norms(freq_of({})) == 0.0

    def test_iterable_of_floats(self):
        assert frequency_norms(float(f) for f in (2, -1, 3)) == 14.0
        assert frequency_norms((3.0, 4.0)) == 25.0  # a tuple of floats, not a pair


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
        keys, sums = stacked(freq), freq[1]
        assert keys.dtype == np.uint64 and keys.tolist() == [[5]]
        assert sums.tolist() == [2.0]

    def test_rows_come_in_lexicographic_order(self):
        graph = chain3_graph()
        updates = [
            TupleUpdate(1, {1: 2, 2: -1}, 0.5),
            TupleUpdate(1, {1: 1, 2: 9}, 1.0),
            TupleUpdate(1, {1: 2, 2: 3}, 2.0),
        ]
        freq = materialize(updates, graph, 1)
        keys, sums = stacked(freq), freq[1]
        assert keys.tolist() == [[1, 9], [2, 3], [2, 2**64 - 1]]
        assert sums.tolist() == [1.0, 2.0, 0.5]

    def test_tuple_missing_an_attribute_is_data_error(self):
        graph = chain3_graph()
        with pytest.raises(DataError, match="cover attributes"):
            materialize([TupleUpdate(1, {1: 4}, 1.0)], graph, 1)

    def test_tuple_of_another_relation_is_data_error(self):
        graph = two_rel_graph()
        with pytest.raises(DataError, match="contains a tuple for relation 1"):
            materialize([TupleUpdate(1, {1: 4}, 1.0)], graph, 0)


def _mixed_rows(rng, graph):
    """Rows whose columns draw from a random pool each, as in
    `_mixed_freqs`, with deltas in {-1, 1, 2}; a random third of them is
    inserted again with negated deltas, so those tuples cancel."""
    rows = []
    for rel in range(graph.r):
        n = int(rng.integers(1, 24))
        columns = {u: rng.choice(_POOLS[int(rng.integers(0, 3))], size=n) for u in graph.omega[rel]}
        deltas = rng.choice([-1.0, 1.0, 2.0], size=n)
        again = rng.permutation(n)[: n // 3]
        columns = {u: np.concatenate([col, col[again]]) for u, col in columns.items()}
        rows.append((columns, np.concatenate([deltas, -deltas[again]])))
    return rows


def test_hash_join_over_rows_equals_the_grouped_join_and_the_nested_loop(monkeypatch):
    totals = []

    def spy(col, rows=None):
        window = dense_window(col, rows)
        if rows is None:  # an entry column's totals, not a child lookup
            totals.append(window is not None)
        return window

    monkeypatch.setattr(oracle, "dense_window", spy)
    rng = np.random.default_rng(30)
    nonzero = nested = 0
    for _ in range(400):
        graph = random_graph(rng)
        rows = _mixed_rows(rng, graph)
        freqs = [group_tuples(cols, graph.omega[k], d) for k, (cols, d) in enumerate(rows)]
        total = exact_cardinality(rows, graph)
        assert exact_cardinality(freqs, graph) == total
        # The nested loop enumerates every combination of distinct tuples
        # in Python; it runs where that takes at most a few milliseconds.
        if prod(len(weights) for _, weights in freqs) <= 20_000:
            assert exact_cardinality(rows, graph, path="nested") == total
            assert exact_cardinality(freqs, graph, path="nested") == total
            nested += 1
        nonzero += total != 0.0
    assert nested > 250 and nonzero > 40, (nested, nonzero)
    assert set(totals) == {True, False}  # both the span and the grouping totalled


class _OnDemand:
    """Relations handed out one at a time, as copies, noting which of the
    rows handed out before are still alive at each request."""

    def __init__(self, rows):
        self.rows, self.taken, self.alive, self.refs = rows, [], [], []

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, k):
        self.alive.append(sum(ref() is not None for ref in self.refs))
        columns, deltas = self.rows[k]
        fresh = {u: col.copy() for u, col in columns.items()}, deltas.copy()
        self.refs += [weakref.ref(a) for a in (*fresh[0].values(), fresh[1])]
        self.taken.append(k)
        return fresh


@pytest.mark.parametrize("graph", [chain3_graph(), multiway_graph()], ids=["chain3", "star4"])
def test_hash_join_takes_each_relation_once_and_lets_go_of_its_rows(graph):
    rows = _mixed_rows(np.random.default_rng(32), graph)
    on_demand = _OnDemand(rows)
    gc.collect()
    gc.disable()
    try:
        assert exact_cardinality(on_demand, graph) == exact_cardinality(rows, graph)
    finally:
        gc.enable()
    assert sorted(on_demand.taken) == list(range(graph.r)) and on_demand.taken[-1] == 0
    assert on_demand.alive == [0] * graph.r  # no other relation's rows at any request


def test_hashed_lookup_matches_a_dict_with_shared_slots():
    rng = np.random.default_rng(31)
    values = np.unique(np.concatenate([
        rng.integers(0, 2**64, size=300, dtype=np.uint64),
        np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        np.arange(2**40, 2**40 + 64, dtype=np.uint64),
    ]))
    weights = rng.normal(size=len(values))
    keys = np.concatenate([rng.choice(values, size=500), rng.integers(0, 2**64, 200, np.uint64)])
    keys = np.append(keys, np.array([2**63 + 1, 2**64 - 2, 2**40 + 64], dtype=np.uint64))
    assert dense_window(values, len(keys)) is None
    weight_of = dict(zip(values.tolist(), weights.tolist()))
    got = oracle._weights_at(values, weights, keys)
    assert got.tolist() == [weight_of.get(k, 0.0) for k in keys.tolist()]
    bits = (DENSE_SPAN * len(values) - 1).bit_length()
    slots = (values * oracle._FIBONACCI) >> np.uint64(64 - bits)
    assert len(np.unique(slots)) < len(values)  # some values share a slot


class TestCountLimit:
    """A count whose partial sums could reach 2^53 is a DataError, not a
    rounded number: (2^27 + 1)^2 = 2^54 + 2^28 + 1 has no float64."""

    BIG = float(2**27 + 1)

    @pytest.mark.parametrize("path", ["auto", "nested"])
    def test_rows_past_the_limit(self, path):
        rows = [({u: np.array([1], dtype=np.uint64)}, np.array([self.BIG])) for u in (0, 1)]
        with pytest.raises(DataError, match="2\\^53"):
            exact_cardinality(rows, two_rel_graph(), path=path)

    @pytest.mark.parametrize("path", ["auto", "nested"])
    def test_groups_past_the_limit(self, path):
        freq = freq_of({(1,): self.BIG})
        with pytest.raises(DataError, match="2\\^53"):
            exact_cardinality([freq, freq], two_rel_graph(), path=path)

    @pytest.mark.parametrize("path", ["auto", "nested"])
    def test_cancelling_terms_count_by_magnitude(self, path):
        # 2^52 - 2^52 is exact, but the bound is on the magnitudes, which
        # sum to 2^53.
        half = float(2**26)
        freqs = [freq_of({(1,): half, (2,): half}), freq_of({(1,): half, (2,): -half})]
        with pytest.raises(DataError, match="2\\^53"):
            exact_cardinality(freqs, two_rel_graph(), path=path)

    @pytest.mark.parametrize("path", ["auto", "nested"])
    def test_just_below_the_limit(self, path):
        freqs = [freq_of({(1,): float(2**26)}), freq_of({(1,): float(2**27 - 1)})]
        assert exact_cardinality(freqs, two_rel_graph(), path=path) == 2.0**53 - 2.0**26
