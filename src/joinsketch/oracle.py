"""Exact multi-join cardinality on desk-scale data.

One relation's frequencies are the `(groups, weights)` pair of
`sketch.group_tuples`, the grouping both sketch updates use: per
attribute, the sorted distinct values its tuples use and each tuple's
index into them; and the tuples' nonzero net frequencies.

Two independent implementations: a hash join that walks the rooted
traversal plan the FFT estimator walks, with sorted value arrays in
place of m-vectors (the default), and a nested-loop reference that
enumerates every combination of distinct tuples, shares no plan and is
guarded by a combination budget.  Both compute the frequency-weighted
count of joint assignments satisfying every join equality.

The hash join reads a child's weights once per distinct value of the
parent's column, from a direct-address table over the child's span when
that span is dense for those values (`sketch.DENSE_SPAN`), by binary
search otherwise, gathers them per tuple through the column's inverse,
and sums each node's tuple weights per entry value with `np.bincount`.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable

import numpy as np

from .errors import BudgetError, QueryError
from .joingraph import JoinGraph, PlanNode, traversal_plan
from .sketch import TupleUpdate, dense_window, group_tuples, updates_to_columns

# One relation's frequencies, as `group_tuples` returns them.
Freq = tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]

NESTED_LOOP_BUDGET = 10**8


def materialize(updates: Iterable[TupleUpdate], graph: JoinGraph, relation: int) -> Freq:
    """Fold a stream (a `read_stream` reader or any TupleUpdate iterable)
    into the relation's `group_tuples` (groups, weights) pair; a tuple of
    another relation or over other attributes is a DataError."""
    columns, deltas = updates_to_columns(updates, graph, relation)
    return group_tuples(columns, graph.omega[relation], deltas)


def frequency_norms(freq: Freq | Iterable[float]) -> float:
    """Squared 2-norm of a relation's frequency tensor: sum of freq^2.

    Takes a (groups, weights) pair or the frequencies themselves; a pair
    is told from a tuple of floats by its array of weights."""
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
    items = []
    for groups, sums in freqs:
        keys = zip(*(values[inverse].tolist() for values, inverse in groups))
        items.append(list(zip(keys, sums.tolist())))
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
    # order is the order in which its lexicographic tuples first show each
    # value; the total is a running sum in that order.
    _, weights = _subtree(traversal_plan(graph, "auto"), freqs, graph)
    return sum(weights.tolist(), 0.0)


def _subtree(
    node: PlanNode, freqs: list[Freq], graph: JoinGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Weight of the plan subtree below `node` per value of the entry
    attribute, as (ascending distinct values, their nonzero weights): the
    estimator's walk, with sorted value arrays in place of m-vectors.  Both
    are empty when every weight cancels."""
    # A module-level function, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep `freqs` alive
    # until the cyclic garbage collector runs.
    groups, sums = freqs[node.relation]
    omega = graph.omega[node.relation]
    entry = omega.index(node.attr)
    # (column position, child): a cross-group child joins at its group's
    # attribute, a Hadamard child at the entry attribute.
    children = [
        (omega.index(other), child) for other, group in node.cross_groups for child in group
    ]
    children += [(entry, child) for child in node.hadamard_children]
    acc = sums
    for p, child in children:
        values, inverse = groups[p]
        acc = acc * _weights_at(*_subtree(child, freqs, graph), values)[inverse]
    # np.bincount sums in tuple order, as a running sum; values that cancel drop.
    values, inverse = groups[entry]
    weights = np.bincount(inverse, weights=acc, minlength=len(values))
    keep = weights != 0.0
    return values[keep], weights[keep]


def _weights_at(values: np.ndarray, weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Weight of each key among a child's (ascending values, weights);
    0 for a key that is not among them, and for every key of an empty
    child, whose weights all cancelled."""
    if len(values) == 0:
        return np.zeros(len(keys))
    window = dense_window(values, len(keys))
    if window is None:
        at = np.minimum(np.searchsorted(values, keys), len(values) - 1)
        return np.where(values[at] == keys, weights[at], 0.0)
    # A direct-address table over the span, plus one 0 slot at its end.  A
    # key below lo wraps to keys - lo >= 2^64 - lo >= span, so the clip
    # sends keys on both sides of the span to that slot.
    lo, span = window
    table = np.zeros(span + 1)
    table[(values - lo).view(np.intp)] = weights
    return table[np.minimum(keys - lo, np.uint64(span)).view(np.intp)]
