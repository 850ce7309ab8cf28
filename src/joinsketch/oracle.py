"""Exact multi-join cardinality on desk-scale data.

Two independent implementations: a nested-loop reference that enumerates
every combination of distinct tuples (the canonical oracle, guarded by a
combination budget), and a hash-join pass over the relation tree for
larger instances.  Both compute the frequency-weighted count of joint
assignments satisfying every join equality.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from math import prod
from typing import Iterable, Mapping

from .errors import BudgetError, QueryError
from .joingraph import JoinGraph
from .sketch import TupleUpdate

# Frequency map of one relation: joined-attribute value tuple -> frequency.
Freq = dict[tuple[int, ...], float]

NESTED_LOOP_BUDGET = 10**8
_AUTO_NESTED_LIMIT = 2 * 10**5


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

    `path` picks the implementation: "nested" (reference, budgeted),
    "hash" (relation-tree join), or "auto".
    """
    if len(freqs) != graph.r:
        raise QueryError(f"expected {graph.r} relations, got {len(freqs)}")
    if any(not f for f in freqs):
        return 0.0
    if path == "auto":
        combos = prod(len(f) for f in freqs)
        path = "nested" if combos <= _AUTO_NESTED_LIMIT else "hash"
    if path == "nested":
        return _nested_loop(freqs, graph)
    if path == "hash":
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
    # Relation-level adjacency: relation -> [(edge id, own attr, other attr, other relation)]
    adjacency: dict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
    for eidx, (u, v) in enumerate(graph.edges):
        ru, rv = graph.relation_of(u), graph.relation_of(v)
        adjacency[ru].append((eidx, u, v, rv))
        adjacency[rv].append((eidx, v, u, ru))

    pos = {u: graph.omega[rel].index(u) for rel in range(graph.r) for u in graph.omega[rel]}

    # The root has no parent edge; grouping it by any own attribute and
    # summing the groups gives the total.
    root = _subtree(freqs, adjacency, pos, 0, -1, graph.omega[0][0])
    return sum(root.values(), 0.0)


def _subtree(
    freqs: list[Freq],
    adjacency: dict[int, list[tuple[int, int, int, int]]],
    pos: dict[int, int],
    rel: int,
    via_edge: int,
    own_attr: int,
) -> dict[int, float]:
    """Weight of the subtree rooted at `rel`, grouped by own_attr value."""
    # A module-level function, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep `freqs` alive
    # until the cyclic garbage collector runs.
    child_maps = []
    for eidx, mine, theirs, other in adjacency[rel]:
        if eidx == via_edge:
            continue
        child_maps.append((pos[mine], _subtree(freqs, adjacency, pos, other, eidx, theirs)))
    out: dict[int, float] = defaultdict(float)
    own_pos = pos[own_attr]
    for key, weight in freqs[rel].items():
        acc = weight
        for p, cmap in child_maps:
            acc *= cmap.get(key[p], 0.0)
            if acc == 0.0:
                break
        if acc != 0.0:
            out[key[own_pos]] += acc
    return out
