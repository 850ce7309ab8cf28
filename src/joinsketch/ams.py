"""Dense multi-join AMS baseline: every counter changes on every update.

Counter j of a relation sketch accumulates the tuple frequency times the
product of per-counter sign hashes, one independent 4-wise family per
(join edge, repetition, counter).  The families come from
`hashing.derive_hash_set` under an ams config, so member 0 of each is
the convolution sketch's edge sign hash.  The estimate is the mean over
counters of the product of the relation counters, reported as the median
across repetitions.  Update cost is Theta(m) per repetition, which is
what the convolution sketch removes.

The bulk update is vectorized: it takes a batch's distinct tuples from
`sketch.group_tuples`, the grouping the conv sketch and the oracle use,
evaluates one sign-parity table per (edge, repetition), a row of m
parities for each distinct value that a nonzero tuple uses, and adds
each block of distinct tuples to the counters with one matrix product.
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
    RelationSketch,
    SketchConfig,
    TupleUpdate,
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


def ams_bulk_update(sk: RelationSketch, columns: dict[int, np.ndarray], deltas: np.ndarray) -> None:
    """Grouped update for a batch of tuples (column arrays by attribute).

    The counter definition sums over distinct tuples weighted by their
    net frequency, so folding duplicates with `group_tuples` before the
    Theta(m) work is exact.  Per repetition, each (edge, attribute) pair
    gets one parity table over the attribute's distinct values that a
    nonzero tuple uses; a block of distinct tuples XORs the tables' rows
    gathered through each attribute's inverse index and adds
    weights @ (1 - 2 * parity) to the counters, computed as
    sum(weights) - 2 * (weights @ parity).  For integer deltas every
    partial sum is an integer below 2^53, so the summation order cannot
    change a counter: the result equals ams_update() per tuple bit for
    bit.
    """
    if sk.config.method != METHOD_AMS:
        raise QueryError("ams_bulk_update() applies to ams sketches")
    graph, config, hashes = sk.graph, sk.config, sk.hashes
    omega = graph.omega[sk.relation]
    groups, weights = group_tuples(columns, omega, deltas)
    # A value that only cancelled tuples use would still cost a parity row
    # of m counters; keep the values some nonzero tuple references.
    for i, (values, inverse) in enumerate(groups):
        used = np.bincount(inverse, minlength=len(values)) > 0
        groups[i] = values[used], (np.cumsum(used) - 1)[inverse]
    n = len(weights)
    rows = max(1, BLOCK_ELEMENTS // config.m)
    for rep in range(config.l):
        tables = [
            (sign_parity_table(hashes.coefficients(u, v, rep), values), inverse)
            for u, (values, inverse) in zip(omega, groups)
            for v in graph.gamma[u]
        ]
        (first, first_inverse), *rest = tables
        counters = sk.counters[rep]
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            parity = first[first_inverse[block]]
            for table, inverse in rest:
                parity ^= table[inverse[block]]
            block_weights = weights[block]
            counters += block_weights.sum() - 2.0 * (block_weights @ parity.astype(np.float64))
    sk.touched_cells += config.l * config.m * n


def ams_estimate(sketches: list[RelationSketch], graph: JoinGraph) -> EstimateReport:
    """Mean-of-products estimate per repetition, median across repetitions."""
    _check_sketches(sketches, graph, METHOD_AMS)

    def estimate_rep(rep: int) -> float:
        stacked = np.stack([sk.counters[rep] for sk in sketches])
        return float(np.prod(stacked, axis=0).mean())

    return repetition_report(METHOD_AMS, sketches[0].config.l, estimate_rep)
