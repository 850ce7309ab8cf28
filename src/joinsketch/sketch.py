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
from .hashing import (
    METHOD_AMS,
    METHOD_CONV,
    HashSet,
    bin_eval,
    bin_eval_vec,
    sign_eval,
    sign_eval_vec,
)
from .joingraph import JoinGraph

# float64 holds every integer of magnitude below 2^53 exactly, so integer
# deltas keep every counter and every partial sum exact below this bound.
COUNTER_LIMIT = 1 << 53

# One relation's batch: column arrays by attribute, and the deltas.
Columns = tuple[dict[int, np.ndarray], np.ndarray]

# Values are dense over n rows when their span, max - min + 1, is at
# most DENSE_SPAN * n: `group_tuples` then codes a column of n rows by
# direct addressing, and the oracle totals n rows per value with one
# `np.bincount` over the span and looks n row keys up in a table over a
# child's span, with no sort and no hashing.  The multiple is set by
# memory.  A dense code holds a bool presence array and an intp rank
# array over the span, 9 bytes per slot, where
# `np.unique(col, return_inverse=True)` holds an intp argsort, a sorted
# uint64 copy and an intp rank array, 24 bytes per row; the oracle's
# totals and lookup table hold a float64 per slot, where the grouping
# and the hashed lookup hold at least an intp and a float64 per row.  At
# 2 slots per row the span costs at most 18 bytes per row, so no dense
# path allocates more than the path it replaces.  The oracle's hash
# table for sparse values has at least DENSE_SPAN slots per value.
DENSE_SPAN = 2


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
    counter addition.  `hashes` is the config's HashSet, or None for
    sketches loaded from a file, as neither estimator reads hash
    functions.  `counters` hands over an existing l x m grid (a loaded
    or merged one) in place of a fresh zero grid.  A loaded grid keeps
    the dtype its file stored, maybe an integer one: the estimators read
    it and the updates refuse it.  `touched_cells`
    counts counter writes: per tuple for the per-tuple updates, per
    distinct nonzero tuple of a batch for the bulk updates.
    """

    def __init__(
        self,
        relation: int,
        config: SketchConfig,
        graph: JoinGraph,
        hashes,
        counters: np.ndarray | None = None,
    ):
        self.relation = relation
        self.config = config
        self.graph = graph
        self.hashes = hashes
        if counters is None:
            counters = np.zeros((config.l, config.m), dtype=np.float64)
        self.counters = counters
        self.touched_cells = 0


def check_grid_fits(config: SketchConfig) -> None:
    """Raise QueryError unless one l x m float64 counter grid of `config`
    can be allocated.  The probe grid is freed untouched, so no page of it
    is written; commands call this before they read any source."""
    try:
        np.empty((config.l, config.m), dtype=np.float64)
    except (MemoryError, ValueError) as exc:  # ValueError: the size overflows
        raise QueryError(
            f"an l x m = {config.l} x {config.m} counter grid needs "
            f"{8 * config.l * config.m:,} bytes, more than can be allocated"
        ) from exc


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


def _check_float_grid(sk: RelationSketch) -> None:
    """Raise QueryError unless `sk`'s counters are float64.  An update into
    an integer grid, as a sketch file may load, would truncate or wrap
    each sum without a word."""
    if sk.counters.dtype != np.float64:
        raise QueryError(
            f"cannot update the {sk.counters.dtype} counter grid of relation {sk.relation}: "
            "updates add into float64 grids only"
        )


def update(sk: RelationSketch, t: TupleUpdate) -> None:
    """Apply one tuple to a conv sketch; writes exactly l counters."""
    if sk.config.method != METHOD_CONV:
        raise QueryError("update() applies to conv sketches; use ams_update for ams")
    _check_float_grid(sk)
    _check_tuple(sk.graph, sk.relation, t.relation, t.values)
    graph, hashes = sk.graph, sk.hashes
    for rep in range(sk.config.l):
        j, s = 0, 1
        for u in graph.omega[sk.relation]:
            x = t.values[u]
            j += bin_eval(hashes.bin_for(graph.psi[u])[rep], x)
            for v in graph.gamma[u]:
                s *= sign_eval(hashes.sign_for(u, v)[rep], x)
        sk.counters[rep, j % sk.config.m] += s * t.delta
    sk.touched_cells += sk.config.l


def merge(a: RelationSketch, b: RelationSketch) -> RelationSketch:
    """Sum two sketches of the same relation built under one config, in
    float64 whatever the grids' dtypes; a DataError once a counter of an
    input or of the sum reaches COUNTER_LIMIT in magnitude, where float64
    starts to round."""
    if a.config != b.config:
        raise QueryError(f"cannot merge sketches with configs {a.config} and {b.config}")
    if a.relation != b.relation:
        raise QueryError(f"cannot merge sketches of relations {a.relation} and {b.relation}")
    total = np.add(a.counters, b.counters, dtype=np.float64)
    out = RelationSketch(a.relation, a.config, a.graph, a.hashes, total)
    if max(np.abs(sk.counters, dtype=np.float64).max() for sk in (a, b, out)) >= COUNTER_LIMIT:
        raise DataError("merged counters reach 2^53 in magnitude; they are exact only below that")
    return out


def bulk_update(
    sk: RelationSketch,
    columns: dict[int, np.ndarray],
    deltas: np.ndarray,
) -> None:
    """Vectorized update for a batch of tuples (column arrays by attribute).

    Folds the batch into its distinct nonzero tuples (`group_tuples`) and
    hashes each attribute's distinct values once for all repetitions; each
    repetition gathers every tuple's bin and sign through the inverse index
    and adds the signed net frequencies into the grid in place with
    `np.add.at`: l counter writes per distinct tuple, and no (m,)
    temporary, so the grid's pages are the only ones an update writes.
    `np.add.at` adds the tuples one by one in group order, as
    `np.bincount` does, so on a zero grid the counters are bit-identical
    to `np.bincount`'s sums for any deltas.  Equivalent to calling
    update() per tuple, as counters are linear in the net frequencies and
    every partial sum of integer deltas is an integer, so the order
    cannot matter.
    """
    if sk.config.method != METHOD_CONV:
        raise QueryError("bulk_update() applies to conv sketches; use ams_bulk_update for ams")
    _check_float_grid(sk)
    graph, hashes, cfg = sk.graph, sk.hashes, sk.config
    omega, m = graph.omega[sk.relation], np.uint64(cfg.m)
    groups, weights = group_tuples(columns, omega, deltas)
    tables = []  # per attribute: (l, k) bins, (l, k) signs, inverse index
    for u, (values, inverse) in zip(omega, groups):
        # Reduced mod m per attribute, as 8 residues mod p could wrap uint64.
        bins = bin_eval_vec(hashes.bin_for(graph.psi[u]), values) % m
        edges = np.concatenate([hashes.sign_for(u, v) for v in graph.gamma[u]])
        signs = sign_eval_vec(edges, values).reshape(len(graph.gamma[u]), cfg.l, -1)
        tables.append((bins, signs.prod(axis=0), inverse))
    for rep in range(cfg.l):
        bins, signed = np.zeros(len(weights), dtype=np.uint64), weights.copy()
        for value_bins, value_signs, inverse in tables:
            bins += value_bins[rep][inverse]
            signed *= value_signs[rep][inverse]
        np.add.at(sk.counters[rep], (bins % m).astype(np.intp), signed)
    sk.touched_cells += cfg.l * len(weights)


def updates_to_columns(
    updates: Iterable[TupleUpdate], graph: JoinGraph, relation: int
) -> Columns:
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


def group_tuples(
    columns: dict[int, np.ndarray], attrs: tuple[int, ...], deltas: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Distinct tuples of nonzero net frequency: the one grouping of a
    batch, read by both sketch updates and the nested-loop oracle.

    Returns, per attribute of `attrs`, `(values, inverse)`: the sorted
    distinct uint64 values that the kept tuples use, and each kept
    tuple's index into them; and the kept tuples' net frequencies.  No
    structured rows are sorted.  Each column gets a code, its value's
    rank among the column's distinct values: by direct addressing
    (`_dense_code`) for a dense column, by a 1-D `np.unique` for any other
    (FNV-1a str keys, or int keys of both signs, span most of 2^64).  The
    codes fold left to right into one mixed-radix int64 code per tuple
    (`code * len(values) + inverse`), and a 1-D `np.unique` after each
    fold turns the code back into a rank.  Ranks keep each column's value
    order, so the final ranks number the distinct tuples in lexicographic
    order.  `np.bincount` adds each tuple's deltas in stream order; the
    tuples whose deltas cancel to zero are dropped, and so is each value
    that only they use.
    """
    n = len(deltas)
    cols = [np.asarray(columns[u], dtype=np.uint64) for u in attrs]
    groups = [_dense_code(col) or np.unique(col, return_inverse=True) for col in cols]
    # A rank entering a fold is below n and a column has d <= n distinct
    # values, so every folded code stays below n * d <= n^2: no int64
    # overflow for any n < 3 * 10^9.
    rank = groups[0][1]
    for values, inverse in groups[1:]:
        rank = np.unique(rank * np.int64(len(values)) + inverse, return_inverse=True)[1]
    # np.bincount gives int64 for an empty input, float64 otherwise.
    sums = np.bincount(rank, weights=deltas).astype(np.float64, copy=False)
    row = np.empty(len(sums), dtype=np.intp)
    row[rank] = np.arange(n)
    keep = sums != 0.0
    groups = [(values, inverse[row[keep]]) for values, inverse in groups]
    if keep.all():  # no tuple cancelled, so every value is used
        return groups, sums
    compact = []
    for values, inverse in groups:
        used = np.bincount(inverse, minlength=len(values)) > 0
        compact.append((values[used], (np.cumsum(used) - 1)[inverse]))
    return compact, sums[keep]


def dense_window(col: np.ndarray, rows: int | None = None) -> tuple[np.uint64, int] | None:
    """`(lo, span)` of a nonempty uint64 column whose values all lie in
    `[lo, lo + span)`, if span is at most DENSE_SPAN times `rows` (by
    default the column's length); else None."""
    if len(col) == 0:
        return None
    lo, hi = col.min(), col.max()
    span = int(hi) - int(lo) + 1  # a Python int: 2^64 for the full range
    return (lo, span) if span <= DENSE_SPAN * (len(col) if rows is None else rows) else None


def _dense_code(col: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """`np.unique(col, return_inverse=True)` of a dense uint64 column, in
    O(n + span) with no sort: mark each value in a presence array over its
    span, number the marked offsets in ascending order in a rank array
    over the span and gather each row's rank.  None for a sparse column."""
    window = dense_window(col)
    if window is None:
        return None
    lo, span = window
    offset = (col - lo).view(np.intp)  # below span, so no sign bit
    present = np.zeros(span, dtype=bool)
    present[offset] = True
    values = np.flatnonzero(present)
    rank = np.empty(span, dtype=np.intp)  # read only at marked offsets
    rank[values] = np.arange(len(values))
    values = values.view(np.uint64)
    values += lo
    return values, rank[offset]


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
