"""Per-relation convolution Count sketches with constant-time updates.

Each incoming tuple maps to a single (sign, bin) pair per repetition:
the sign is the product of the edge sign hashes over the tuple's joined
attributes, the bin is the sum of the component bin hashes modulo m.
Only l counters change per update, independent of the sketch size, and
the resulting single-tuple sketch equals the circular convolution of the
per-attribute single-item Count sketches.

Sketches are linear: update order never matters for integer frequency
deltas, and sketches built from split streams merge by addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError, QueryError
from .hashing import HashSet, bin_eval, bin_eval_vec, sign_eval, sign_eval_vec
from .joingraph import JoinGraph

METHOD_CONV = "conv"
METHOD_AMS = "ams"
# float64 holds every integer of magnitude below 2^53 exactly, so integer
# deltas keep every counter and every partial sum exact below this bound.
COUNTER_LIMIT = 1 << 53


@dataclass(frozen=True)
class SketchConfig:
    """Sketch shape: m bins per repetition, l repetitions, master seed."""

    m: int
    l: int = 5
    seed: int = 0
    method: str = METHOD_CONV

    def __post_init__(self):
        if self.m < 1:
            raise QueryError(f"bin count m must be >= 1, got {self.m}")
        if self.l < 1:
            raise QueryError(f"repetition count l must be >= 1, got {self.l}")
        if self.method not in (METHOD_CONV, METHOD_AMS):
            raise QueryError(f"unknown sketch method {self.method!r}")


@dataclass
class TupleUpdate:
    """One stream element: a relation tuple and its frequency change."""

    relation: int
    values: dict[int, int]  # attribute id -> canonical 64-bit item
    delta: float = 1.0


class RelationSketch:
    """An l x m grid of real counters for one relation.

    Single-writer during ingestion; sketches sharing a config merge by
    counter addition.  `hashes` is the method's hash object (a HashSet
    for conv, AmsSignFamilies for ams), or None for sketches loaded from
    a file, as neither estimator reads hash functions.  `touched_cells`
    counts counter writes for the update-cost instrumentation.
    """

    def __init__(self, relation: int, config: SketchConfig, graph: JoinGraph, hashes):
        self.relation = relation
        self.config = config
        self.graph = graph
        self.hashes = hashes
        self.counters = np.zeros((config.l, config.m), dtype=np.float64)
        self.touched_cells = 0


def tuple_sign(graph: JoinGraph, hashes: HashSet, rep: int, t: TupleUpdate) -> int:
    """Product of edge sign hashes over the tuple's joined attributes."""
    sign = 1
    for u in graph.omega[t.relation]:
        try:
            x = t.values[u]
        except KeyError:
            raise DataError(f"tuple for relation {t.relation} misses attribute {u}") from None
        for v in graph.gamma[u]:
            sign *= sign_eval(hashes.sign_for(u, v, rep), x)
    return sign


def tuple_bin(graph: JoinGraph, hashes: HashSet, rep: int, t: TupleUpdate) -> int:
    """Sum of component bin hashes over the tuple's attributes, mod m."""
    total = 0
    m = 1
    for u in graph.omega[t.relation]:
        try:
            x = t.values[u]
        except KeyError:
            raise DataError(f"tuple for relation {t.relation} misses attribute {u}") from None
        h = hashes.bin_for(graph.psi[u], rep)
        m = h.m
        total += bin_eval(h, x)
    return total % m


def _check_tuple(graph: JoinGraph, relation: int, found: int, attrs) -> None:
    """Raise DataError unless a tuple of relation `found` over attribute
    ids `attrs` belongs in relation `relation`'s sketch."""
    if found != relation:
        raise DataError(f"stream for relation {relation} contains a tuple for relation {found}")
    if set(attrs) != set(graph.omega[relation]):
        raise DataError(
            f"tuple values cover attributes {sorted(attrs)}, "
            f"expected {sorted(graph.omega[relation])}"
        )


def update(sk: RelationSketch, t: TupleUpdate) -> None:
    """Apply one tuple to a conv sketch; writes exactly l counters."""
    if sk.config.method != METHOD_CONV:
        raise QueryError("update() applies to conv sketches; use ams_update for ams")
    _check_tuple(sk.graph, sk.relation, t.relation, t.values)
    for rep in range(sk.config.l):
        j = tuple_bin(sk.graph, sk.hashes, rep, t)
        s = tuple_sign(sk.graph, sk.hashes, rep, t)
        sk.counters[rep, j] += s * t.delta
    sk.touched_cells += sk.config.l


def merge(a: RelationSketch, b: RelationSketch) -> RelationSketch:
    """Sum two sketches of the same relation built under one config; a
    DataError once a counter of an input or of the sum reaches COUNTER_LIMIT
    in magnitude, where float64 starts to round."""
    if a.config != b.config:
        raise QueryError(f"cannot merge sketches with configs {a.config} and {b.config}")
    if a.relation != b.relation:
        raise QueryError(f"cannot merge sketches of relations {a.relation} and {b.relation}")
    out = RelationSketch(a.relation, a.config, a.graph, a.hashes)
    out.counters = a.counters + b.counters
    if max(np.abs(sk.counters).max() for sk in (a, b, out)) >= COUNTER_LIMIT:
        raise DataError("merged counters reach 2^53 in magnitude; they are exact only below that")
    return out


def bulk_update(
    sk: RelationSketch,
    columns: dict[int, np.ndarray],
    deltas: np.ndarray,
) -> None:
    """Vectorized update for a batch of tuples (column arrays by attribute).

    Each attribute column is hashed on its distinct values only
    (`np.unique`), and the bin and sign of every tuple are gathered back
    through the inverse index; the signed deltas are then summed per bin
    with `np.bincount`.  Equivalent to calling update() per tuple: every
    partial counter sum of integer deltas is itself an integer, so the
    accumulation order cannot change the result.
    """
    graph, hashes, cfg = sk.graph, sk.hashes, sk.config
    n = len(deltas)
    if n == 0:
        return
    deltas = np.asarray(deltas, dtype=np.float64)
    omega = graph.omega[sk.relation]
    distinct = {u: np.unique(columns[u], return_inverse=True) for u in omega}
    for rep in range(cfg.l):
        bins = np.zeros(n, dtype=np.uint64)
        signs = np.ones(n, dtype=np.float64)
        for u in omega:
            values, inverse = distinct[u]
            bins += bin_eval_vec(hashes.bin_for(graph.psi[u], rep), values)[inverse]
            value_signs = np.ones(len(values), dtype=np.float64)
            for v in graph.gamma[u]:
                value_signs *= sign_eval_vec(hashes.sign_for(u, v, rep), values)
            signs *= value_signs[inverse]
        idx = (bins % np.uint64(cfg.m)).astype(np.int64)
        sk.counters[rep] += np.bincount(idx, weights=signs * deltas, minlength=cfg.m)
    sk.touched_cells += cfg.l * n


def updates_to_columns(
    updates: Iterable[TupleUpdate], graph: JoinGraph, relation: int
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Collect one relation's updates into column arrays by attribute.

    A StreamReader hands over the arrays it parsed, with no TupleUpdate
    built; any other iterable is collected tuple by tuple.
    """
    from .ingest import StreamReader  # ingest imports this module

    if isinstance(updates, StreamReader):
        columns, deltas = updates.read()
        if len(deltas):
            _check_tuple(graph, relation, updates.relation, columns)
        return columns, deltas
    omega = graph.omega[relation]
    cols: dict[int, list[int]] = {u: [] for u in omega}
    deltas: list[float] = []
    for t in updates:
        _check_tuple(graph, relation, t.relation, t.values)
        for u in omega:
            cols[u].append(t.values[u] & 0xFFFFFFFFFFFFFFFF)
        deltas.append(t.delta)
    columns = {u: np.array(vals, dtype=np.uint64) for u, vals in cols.items()}
    return columns, np.array(deltas, dtype=np.float64)


def distinct_tuples(
    columns: dict[int, np.ndarray], attrs: tuple[int, ...], deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct tuples (attribute-ordered rows) and their net frequencies, zeros dropped.

    Distinct tuples come from one `np.unique` over the stacked columns;
    `np.bincount` adds each tuple's deltas in stream order.
    """
    if len(deltas) == 0:
        return np.empty((0, len(attrs)), dtype=np.uint64), np.empty(0, dtype=np.float64)
    stacked = np.stack([np.asarray(columns[u], dtype=np.uint64) for u in attrs], axis=1)
    keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
    sums = np.bincount(inverse.reshape(-1), weights=deltas, minlength=len(keys))
    keep = sums != 0.0
    return keys[keep], sums[keep]


def group_tuples(
    columns: dict[int, np.ndarray], attrs: tuple[int, ...], deltas: np.ndarray
) -> dict[tuple[int, ...], float]:
    """Net frequency of each distinct tuple as a dict, zeros dropped.

    The keys are zipped from one Python list per column of
    `distinct_tuples`, which holds less memory at once than a list of
    per-tuple lists.
    """
    keys, sums = distinct_tuples(columns, attrs, deltas)
    key_tuples = zip(*(column.tolist() for column in keys.T))
    return dict(zip(key_tuples, sums.tolist()))


def build_sketch(
    updates: Iterable[TupleUpdate],
    graph: JoinGraph,
    hashes: HashSet,
    config: SketchConfig,
    relation: int,
) -> RelationSketch:
    """Fold a stream of updates for one relation into a fresh sketch.

    A StreamReader is taken as the columns it parses (updates_to_columns).
    """
    sk = RelationSketch(relation, config, graph, hashes)
    bulk_update(sk, *updates_to_columns(updates, graph, relation))
    return sk
