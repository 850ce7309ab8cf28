"""Exact multi-join cardinality on desk-scale data.

Two independent implementations: a hash join that walks the rooted
traversal plan the FFT estimator walks, with frequency maps keyed by
value in place of m-vectors (the default), and a nested-loop reference
that enumerates every combination of distinct tuples, shares no plan
and is guarded by a combination budget.  Both compute the
frequency-weighted count of joint assignments satisfying every join
equality.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from math import prod
from typing import Iterable, Mapping

from .errors import BudgetError, QueryError
from .joingraph import JoinGraph, PlanNode, traversal_plan
from .sketch import TupleUpdate

# Frequency map of one relation: joined-attribute value tuple -> frequency.
Freq = dict[tuple[int, ...], float]

NESTED_LOOP_BUDGET = 10**8


def materialize(updates: Iterable[TupleUpdate], graph: JoinGraph, relation: int) -> Freq:
    """Fold a stream into a frequency map keyed by attribute-ordered tuples."""
    omega = graph.omega[relation]
    freq: Freq = {}
    for t in updates:
        if t.relation != relation:
            raise QueryError(f"expected updates for relation {relation}, got {t.relation}")
        key = tuple(t.values[u] & 0xFFFFFFFFFFFFFFFF for u in omega)
        freq[key] = freq.get(key, 0.0) + t.delta
    return {k: v for k, v in freq.items() if v != 0.0}


def frequency_norms(freq: Freq | Iterable[float]) -> float:
    """Squared 2-norm of a relation's frequency tensor: sum of freq^2."""
    values = freq.values() if isinstance(freq, Mapping) else freq
    return float(sum(f * f for f in values))


def exact_cardinality(freqs: list[Freq], graph: JoinGraph, path: str = "auto") -> float:
    """Exact frequency-weighted join size of the query.

    `path` picks the implementation: "auto" (the hash join over the
    rooted plan) or "nested" (the budgeted reference).
    """
    if len(freqs) != graph.r:
        raise QueryError(f"expected {graph.r} relations, got {len(freqs)}")
    if any(not f for f in freqs):
        return 0.0
    if path == "nested":
        return _nested_loop(freqs, graph)
    if path == "auto":
        return _hash_join(freqs, graph)
    raise QueryError(f"unknown oracle path {path!r}")


def _nested_loop(freqs: list[Freq], graph: JoinGraph) -> float:
    combos = prod(len(f) for f in freqs)
    if combos > NESTED_LOOP_BUDGET:
        raise BudgetError(
            f"nested-loop oracle would enumerate {combos} combinations, over {NESTED_LOOP_BUDGET}"
        )
    # Position of each attribute inside its relation's key tuples.
    pos = {u: graph.omega[rel].index(u) for rel in range(graph.r) for u in graph.omega[rel]}
    edge_slots = [
        (graph.relation_of(u), pos[u], graph.relation_of(v), pos[v]) for u, v in graph.edges
    ]
    items = [list(f.items()) for f in freqs]
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
    # The root's map is keyed by its entry value; summing it gives the total.
    return sum(_subtree(traversal_plan(graph, "auto"), freqs, graph).values(), 0.0)


def _subtree(node: PlanNode, freqs: list[Freq], graph: JoinGraph) -> dict[int, float]:
    """Weight of the plan subtree below `node`, keyed by the entry
    attribute's value: the estimator's walk, with maps keyed by value in
    place of m-vectors."""
    # A module-level function, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep `freqs` alive
    # until the cyclic garbage collector runs.
    omega = graph.omega[node.relation]
    entry = omega.index(node.attr)
    # (key position, child map): a cross-group child joins at its group's
    # attribute, a Hadamard child at the entry attribute.
    child_maps = [
        (omega.index(other), _subtree(child, freqs, graph))
        for other, children in node.cross_groups
        for child in children
    ]
    child_maps += [(entry, _subtree(child, freqs, graph)) for child in node.hadamard_children]
    out: dict[int, float] = defaultdict(float)
    for key, weight in freqs[node.relation].items():
        acc = weight
        for p, cmap in child_maps:
            acc *= cmap.get(key[p], 0.0)
            if acc == 0.0:
                break
        if acc != 0.0:
            out[key[entry]] += acc
    return out
