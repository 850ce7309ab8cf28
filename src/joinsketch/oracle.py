"""Exact multi-join cardinality on desk-scale data.

A relation comes in one of two forms: its rows, the reader's `(columns
by attribute id, deltas)` pair, as `exact` passes them; or the
`(groups, weights)` pair of `sketch.group_tuples`, read as one row per
distinct tuple weighted by its net frequency.

Two independent implementations: a hash join that walks the rooted
traversal plan the FFT estimator walks, with sorted value arrays in
place of m-vectors (the default), and a nested-loop reference that
groups each relation's rows into distinct tuples, enumerates every
combination of them, shares no plan and is guarded by a combination
budget.  Both compute the frequency-weighted count of joint assignments
satisfying every join equality.

The hash join needs no distinct tuples (Yannakakis' bottom-up pass): a
node multiplies each row's delta by each child's weight at that row's
key, read from a direct-address table over the child's span when that
span is dense for the rows (`sketch.DENSE_SPAN`), from a multiplicative
hash table otherwise, and totals the row products per entry value: with
one `np.bincount` over the entry column's span when it is dense, with
`group_tuples` on that one column otherwise.  `group_tuples` so serves
the two sketch updates, the nested reference and `frequency_norms`.

Both paths are exact while every partial sum stays below
`sketch.COUNTER_LIMIT` (2^53) in magnitude, and raise DataError once a
bound on them reaches it: a node's sum of |row product| on the hash
join, the sum of |combination weight| on the nested path.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, DataError, QueryError
from .joingraph import JoinGraph, PlanNode, traversal_plan
from .sketch import (
    COUNTER_LIMIT, DENSE_SPAN, Columns, TupleUpdate, dense_window, group_tuples,
    updates_to_columns,
)

# One relation's frequencies, as `group_tuples` returns them.
Freq = tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]

NESTED_LOOP_BUDGET = 10**8

# 2^64 / phi, odd: multiplying by it spreads both runs and random values
# over the top bits (Knuth's multiplicative hashing).
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


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


def exact_cardinality(
    relations: Sequence[Columns | Freq], graph: JoinGraph, path: str = "auto"
) -> float:
    """Exact frequency-weighted join size of the query.

    Each relation is its rows, `(columns by attribute id, deltas)`, or
    its `group_tuples` (groups, weights) pair; the forms may mix.  Both
    paths take `relations[k]` once per relation.  The hash join takes a
    relation after every relation below it in the plan and keeps only
    per-value totals of each, so a sequence that reads each source when
    it is asked for holds one relation's rows at a time.
    `path` picks the implementation: "auto" (the hash join over the
    rooted plan) or "nested" (the budgeted reference).  A DataError once
    a partial sum could reach 2^53 in magnitude, where float64 rounds.
    """
    if path not in ("auto", "nested"):
        raise QueryError(f"unknown oracle path {path!r}")
    if len(relations) != graph.r:
        raise QueryError(f"expected {graph.r} relations, got {len(relations)}")
    if path == "nested":
        return _nested_loop([_grouped(relations[k], graph.omega[k]) for k in range(graph.r)], graph)
    return _hash_join(relations, graph)


def _grouped(relation: Columns | Freq, omega: tuple[int, ...]) -> Freq:
    """A relation's (groups, weights) pair; rows are grouped."""
    first, weights = relation
    return group_tuples(first, omega, weights) if isinstance(first, dict) else relation


def _rows(relation: Columns | Freq, omega: tuple[int, ...]) -> Columns:
    """A relation's rows with uint64 columns and float64 deltas; a (groups,
    weights) pair gives one row per distinct tuple, in tuple order,
    weighted by its net frequency."""
    first, weights = relation
    if isinstance(first, dict):
        columns = {u: np.asarray(first[u], dtype=np.uint64) for u in omega}
    else:
        columns = {u: values[inverse] for u, (values, inverse) in zip(omega, first)}
    return columns, np.asarray(weights, dtype=np.float64)


def _check_bound(total: float, what: str) -> None:
    if total >= COUNTER_LIMIT:
        raise DataError(
            f"the join's {what} reach 2^53 in magnitude; its count is exact only below that"
        )


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
    total = magnitude = 0.0
    for combo in product(*items):
        for ru, pu, rv, pv in edge_slots:
            if combo[ru][0][pu] != combo[rv][0][pv]:
                break
        else:
            weight = 1.0
            for _, f in combo:
                weight *= f
            total += weight
            magnitude += abs(weight)
    _check_bound(magnitude, "combination weights")
    return total


def _hash_join(relations: Sequence[Columns | Freq], graph: JoinGraph) -> float:
    # The root enters relation 0 at its first column, so ascending value
    # order is the order in which its lexicographic tuples first show each
    # value; the total is a running sum in that order.
    _, weights = _subtree(traversal_plan(graph, "auto"), relations, graph)
    return sum(weights.tolist(), 0.0)


def _subtree(
    node: PlanNode, relations: Sequence[Columns | Freq], graph: JoinGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Weight of the plan subtree below `node` per value of the entry
    attribute, as (ascending distinct values, their nonzero weights): the
    estimator's walk, with sorted value arrays in place of m-vectors.  Both
    are empty when every weight cancels."""
    # A module-level function, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep `relations`
    # alive until the cyclic garbage collector runs.
    # (attribute, child's totals): a cross-group child joins at its
    # group's attribute, a Hadamard child at the entry attribute.  Every
    # child is done before this relation is taken, so no two relations'
    # rows need be held at once.
    children = [
        (other, _subtree(child, relations, graph))
        for other, group in node.cross_groups
        for child in group
    ]
    children += [(node.attr, _subtree(child, relations, graph)) for child in node.hadamard_children]
    columns, acc = _rows(relations[node.relation], graph.omega[node.relation])
    for u, (values, weights) in children:
        acc = acc * _weights_at(values, weights, columns[u])
    _check_bound(float(np.abs(acc).sum()), "row products")
    # Both totals add in row order, as a running sum; values that cancel drop.
    col = columns[node.attr]
    window = dense_window(col)
    if window is None:
        [(values, _)], weights = group_tuples({node.attr: col}, (node.attr,), acc)
        return values, weights
    lo, span = window
    weights = np.bincount((col - lo).view(np.intp), weights=acc, minlength=span)
    keep = np.flatnonzero(weights)
    return keep.view(np.uint64) + lo, weights[keep]


def _weights_at(values: np.ndarray, weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Weight of each key among a child's (ascending values, weights);
    0 for a key that is not among them, and for every key of an empty
    child, whose weights all cancelled."""
    if len(values) == 0:
        return np.zeros(len(keys))
    window = dense_window(values, len(keys))
    if window is None:
        return _hashed_weights_at(values, weights, keys)
    # A direct-address table over the span, plus one 0 slot at its end.  A
    # key below lo wraps to keys - lo >= 2^64 - lo >= span, so the clip
    # sends keys on both sides of the span to that slot.
    lo, span = window
    table = np.zeros(span + 1)
    table[(values - lo).view(np.intp)] = weights
    return table[np.minimum(keys - lo, np.uint64(span)).view(np.intp)]


def _hashed_weights_at(values: np.ndarray, weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """`_weights_at` for sparse values, by Fibonacci hashing: the top bits
    of value * 2^64 / phi pick one of at least DENSE_SPAN slots per value.
    A key whose slot holds one value weighs that value's weight if it is
    the key, and 0 if it is not or if its slot is empty; the keys of the
    slots that several values share are found by binary search."""
    bits = (DENSE_SPAN * len(values) - 1).bit_length()
    shift = np.uint64(64 - bits)
    slots = ((values * _FIBONACCI) >> shift).view(np.intp)
    held = np.bincount(slots, minlength=1 << bits)  # values per slot
    holder = np.zeros(1 << bits, dtype=np.intp)
    holder[slots] = np.arange(len(values))
    slots = ((keys * _FIBONACCI) >> shift).view(np.intp)
    count, at = held[slots], holder[slots]
    out = np.where((count == 1) & (values[at] == keys), weights[at], 0.0)
    shared = np.flatnonzero(count > 1)
    keys = keys[shared]
    at = np.minimum(np.searchsorted(values, keys), len(values) - 1)
    out[shared] = np.where(values[at] == keys, weights[at], 0.0)
    return out
