"""Dense multi-join AMS baseline: every counter changes on every update.

Counter j of a relation sketch accumulates the tuple frequency times the
product of per-counter sign hashes, one independent 4-wise family per
(join edge, repetition, counter).  The families come from
`hashing.derive_hash_set` under an ams config, so member 0 of each is
the convolution sketch's edge sign hash.  The estimate is the mean over
counters of the product of the relation counters, reported as the median
across repetitions.  Update cost is Theta(m) per repetition, which is
what the convolution sketch removes.

The bulk update is vectorized and builds a query's sketches together:
it takes each batch's distinct tuples, and the values they use, from
`sketch.group_tuples`, the grouping the conv sketch also uses,
evaluates one sign-parity table per (edge, repetition), a row of m
parities for each value at either endpoint of the edge, and adds each
block of distinct tuples to the counters with one matrix product.  Both
endpoints share the edge's family, so each table serves both relations.
It stays Theta(m) per distinct tuple.
"""

from __future__ import annotations

import numpy as np

from .errors import QueryError
from .estimator import EstimateReport, _check_sketches, repetition_report
from .hashing import derive_hash_set
from .joingraph import JoinGraph
from .mersenne import BLOCK_ELEMENTS, sign_parity_table
from .sketch import (
    METHOD_AMS,
    Columns,
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    _check_float_grid,
    _check_tuple,
    group_tuples,
)


def ams_sketch(relation: int, config: SketchConfig, graph: JoinGraph) -> RelationSketch:
    if config.method != METHOD_AMS:
        raise QueryError("ams_sketch requires a config with method='ams'")
    return RelationSketch(relation, config, graph, derive_hash_set(config, graph))


def ams_update(sk: RelationSketch, t: TupleUpdate) -> None:
    """Apply one tuple: every one of the m counters changes, per repetition."""
    if sk.config.method != METHOD_AMS:
        raise QueryError("ams_update() applies to ams sketches")
    _check_float_grid(sk)
    _check_tuple(sk.graph, sk.relation, t.relation, t.values)
    graph, hashes = sk.graph, sk.hashes
    for rep in range(sk.config.l):
        parity = np.zeros(sk.config.m, dtype=np.uint8)
        for u in graph.omega[sk.relation]:
            item = np.array([t.values[u] & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
            for v in graph.gamma[u]:
                parity ^= sign_parity_table(hashes.coefficients(u, v, rep), item)[0]
        sk.counters[rep] += (1.0 - 2.0 * parity) * t.delta
    sk.touched_cells += sk.config.l * sk.config.m


def ams_bulk_update(sketches: list[RelationSketch], batches: list[Columns]) -> None:
    """Grouped update of one query's sketches, each with a batch of tuples.

    `batches` holds one (columns by attribute, deltas) pair per sketch.
    The counter definition sums over distinct tuples weighted by their
    net frequency, so folding duplicates with `group_tuples` before the
    Theta(m) work is exact.  Each edge gets the sorted union of the
    values `group_tuples` keeps at its endpoints, those a nonzero tuple
    uses, and each (attribute, edge) pair an index into that union per
    distinct tuple.  Per repetition, each edge's family is evaluated once,
    as one parity table over its union; a block of distinct tuples XORs
    the rows gathered through its indices and adds weights @ (1 - 2 *
    parity) to the counters, computed as sum(weights) - 2 * (weights @
    parity).  A parity depends only on the family and the value, and for
    integer deltas every partial sum is an integer below 2^53, so the
    result equals ams_update() per tuple bit for bit, for one relation or
    many.  One repetition's tables are held at a time.
    """
    if any(sk.config.method != METHOD_AMS for sk in sketches):
        raise QueryError("ams_bulk_update() applies to ams sketches")
    for sk in sketches:
        _check_float_grid(sk)
    graph, config, hashes = sketches[0].graph, sketches[0].config, sketches[0].hashes
    if len({sk.relation for sk in sketches}) < len(sketches) or any(
        sk.graph is not graph or sk.config != config for sk in sketches
    ):
        raise QueryError("ams_bulk_update() takes sketches of distinct relations of one query")
    used, weights = {}, []
    for sk, (columns, deltas) in zip(sketches, batches, strict=True):
        groups, sums = group_tuples(columns, graph.omega[sk.relation], deltas)
        used.update(zip(graph.omega[sk.relation], groups))
        weights.append(sums)
    # Sorted merges, not np.union1d: a plain np.unique imports numpy.ma
    # (about 0.8 MiB) on its first call.
    edges = {u: [(min(u, v), max(u, v)) for v in graph.gamma[u]] for u in used}
    unions: dict[tuple[int, int], np.ndarray] = {}
    for u, (values, _) in used.items():
        for edge in edges[u]:
            both = np.sort(np.concatenate((unions.get(edge, values[:0]), values)))
            unions[edge] = np.concatenate((both[:1], both[1:][both[1:] != both[:-1]]))
    gathers = [
        [
            (edge, np.searchsorted(unions[edge], used[u][0])[used[u][1]])
            for u in graph.omega[sk.relation]
            for edge in edges[u]
        ]
        for sk in sketches
    ]
    rows = max(1, BLOCK_ELEMENTS // config.m)
    for rep in range(config.l):
        tables = {
            edge: sign_parity_table(hashes.coefficients(*edge, rep), union)
            for edge, union in unions.items()
        }
        for sk, sums, ((first, first_index), *rest) in zip(sketches, weights, gathers):
            counters = sk.counters[rep]
            for start in range(0, len(sums), rows):
                block = slice(start, start + rows)
                parity = tables[first][first_index[block]]
                for edge, index in rest:
                    parity ^= tables[edge][index[block]]
                block_weights = sums[block]
                counters += block_weights.sum() - 2.0 * (block_weights @ parity.astype(np.float64))
        del tables
    for sk, sums in zip(sketches, weights):
        sk.touched_cells += config.l * config.m * len(sums)


def ams_estimate(sketches: list[RelationSketch], graph: JoinGraph) -> EstimateReport:
    """Mean-of-products estimate per repetition, median across repetitions.

    The whole (l, m) grids multiply in float64 in relation order, so
    integer grids loaded from a file multiply as the float64 grids they
    were built as, and each row's mean is, bit for bit, the mean of that
    repetition's row product alone.  A query joins at least two
    relations."""
    _check_sketches(sketches, graph, METHOD_AMS)

    def estimates() -> list[float]:
        grids = [sk.counters for sk in sketches]
        product = np.multiply(grids[0], grids[1], dtype=np.float64)
        for grid in grids[2:]:
            np.multiply(product, grid, out=product)
        return product.mean(axis=1).tolist()

    return repetition_report(METHOD_AMS, estimates)
