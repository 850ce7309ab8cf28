"""Exact multi-join cardinality on desk-scale data.

One relation's frequencies are the `(keys, sums)` pair that
`sketch.distinct_tuples` stacks from the grouping both sketch updates
use: an (n, k) uint64 array of distinct attribute-ordered tuples in
lexicographic row order, and their float64 net frequencies, zeros dropped.

Two independent implementations: a hash join that walks the rooted
traversal plan the FFT estimator walks, with sorted value arrays in
place of m-vectors (the default), and a nested-loop reference that
enumerates every combination of distinct tuples, shares no plan and is
guarded by a combination budget.  Both compute the frequency-weighted
count of joint assignments satisfying every join equality.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable

import numpy as np

from .errors import BudgetError, QueryError
from .joingraph import JoinGraph, PlanNode, traversal_plan
from .sketch import TupleUpdate, distinct_tuples, updates_to_columns

# Frequencies of one relation: (distinct key rows in lexicographic order,
# their nonzero net frequencies), as `distinct_tuples` returns them.
Freq = tuple[np.ndarray, np.ndarray]

NESTED_LOOP_BUDGET = 10**8


def materialize(updates: Iterable[TupleUpdate], graph: JoinGraph, relation: int) -> Freq:
    """Fold a stream (a `read_stream` reader or any TupleUpdate iterable)
    into the relation's (keys, sums) pair; a tuple of another relation or
    over other attributes is a DataError."""
    columns, deltas = updates_to_columns(updates, graph, relation)
    return distinct_tuples(columns, graph.omega[relation], deltas)


def frequency_norms(freq: Freq | Iterable[float]) -> float:
    """Squared 2-norm of a relation's frequency tensor: sum of freq^2.

    Takes a (keys, sums) pair or the frequencies themselves; a pair is
    told from a tuple of floats by its array of sums."""
    if isinstance(freq, tuple) and len(freq) == 2 and isinstance(freq[1], np.ndarray):
        freq = freq[1].tolist()
    return float(sum(f * f for f in freq))


def exact_cardinality(freqs: list[Freq], graph: JoinGraph, path: str = "auto") -> float:
    """Exact frequency-weighted join size of the query.

    `path` picks the implementation: "auto" (the hash join over the
    rooted plan) or "nested" (the budgeted reference).
    """
    if path not in ("auto", "nested"):
        raise QueryError(f"unknown oracle path {path!r}")
    if len(freqs) != graph.r:
        raise QueryError(f"expected {graph.r} relations, got {len(freqs)}")
    if any(len(sums) == 0 for _, sums in freqs):
        return 0.0
    if path == "nested":
        return _nested_loop(freqs, graph)
    return _hash_join(freqs, graph)


def _nested_loop(freqs: list[Freq], graph: JoinGraph) -> float:
    combos = prod(len(sums) for _, sums in freqs)
    if combos > NESTED_LOOP_BUDGET:
        raise BudgetError(
            f"nested-loop oracle would enumerate {combos} combinations, over {NESTED_LOOP_BUDGET}"
        )
    # Position of each attribute inside its relation's key tuples.
    pos = {u: graph.omega[rel].index(u) for rel in range(graph.r) for u in graph.omega[rel]}
    edge_slots = [
        (graph.relation_of(u), pos[u], graph.relation_of(v), pos[v]) for u, v in graph.edges
    ]
    items = [list(zip(map(tuple, keys.tolist()), sums.tolist())) for keys, sums in freqs]
    total = 0.0
    for combo in product(*items):
        for ru, pu, rv, pv in edge_slots:
            if combo[ru][0][pu] != combo[rv][0][pv]:
                break
        else:
            weight = 1.0
            for _, f in combo:
                weight *= f
            total += weight
    return total


def _hash_join(freqs: list[Freq], graph: JoinGraph) -> float:
    # The root enters relation 0 at its first column, so ascending value
    # order is the order in which its lexicographic rows first show each
    # value; the total is a running sum in that order.
    _, weights = _subtree(traversal_plan(graph, "auto"), freqs, graph)
    return sum(weights.tolist(), 0.0)


def _subtree(
    node: PlanNode, freqs: list[Freq], graph: JoinGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Weight of the plan subtree below `node` per value of the entry
    attribute, as (ascending distinct values, weights): the estimator's
    walk, with sorted value arrays in place of m-vectors."""
    # A module-level function, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep `freqs` alive
    # until the cyclic garbage collector runs.
    keys, sums = freqs[node.relation]
    omega = graph.omega[node.relation]
    entry = omega.index(node.attr)
    # (key position, child): a cross-group child joins at its group's
    # attribute, a Hadamard child at the entry attribute.
    children = [
        (omega.index(other), child) for other, group in node.cross_groups for child in group
    ]
    children += [(entry, child) for child in node.hadamard_children]
    acc = sums
    for p, child in children:
        values, weights = _subtree(child, freqs, graph)
        # A child's values are never empty: every relation has a row.
        at = np.minimum(np.searchsorted(values, keys[:, p]), len(values) - 1)
        acc = acc * np.where(values[at] == keys[:, p], weights[at], 0.0)
    # bincount adds each value's row weights in row order, as a running sum.
    values, inverse = np.unique(keys[:, entry], return_inverse=True)
    return values, np.bincount(inverse, weights=acc)
