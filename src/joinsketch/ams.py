"""Dense multi-join AMS baseline: every counter changes on every update.

Counter j of a relation sketch accumulates the tuple frequency times the
product of per-counter sign hashes, one independent 4-wise family per
(join edge, repetition, counter).  The estimate is the mean over
counters of the product of the relation counters, reported as the median
across repetitions.  Update cost is Theta(m) per repetition, which is
what the convolution sketch removes.

The bulk update is vectorized: it groups a batch into distinct tuples,
evaluates one (distinct values x m) sign-parity table per (edge,
repetition), and adds each block of distinct tuples to the counters with
one matrix product.  It stays Theta(m) per distinct tuple.
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable

import numpy as np

from .errors import QueryError
from .estimator import EstimateReport, _check_sketches
from .hashing import KIND_SIGN
from .joingraph import JoinGraph
from .mersenne import BLOCK_ELEMENTS, derive_state, field_elements_vec, sign_parity_table
from .sketch import (
    METHOD_AMS,
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    _check_tuple,
    distinct_tuples,
    updates_to_columns,
)


class AmsSignFamilies:
    """Per-counter sign families derived lazily from the master seed.

    Coefficients for all m counters of a given (edge, repetition) are
    expanded on first use and cached as an (m, 4) uint64 array; the seed
    footprint stays O(1) per family.  The expansion continues the same
    stream that yields the convolution sketch's edge sign hash, so the
    j=0 family member coincides with it and the two methods agree
    exactly at m=1.
    """

    def __init__(self, config: SketchConfig, graph: JoinGraph):
        self.config = config
        self.graph = graph
        self._coeffs: dict[tuple[int, int, int], np.ndarray] = {}

    def coefficients(self, u: int, v: int, rep: int) -> np.ndarray:
        lo, hi = (u, v) if u < v else (v, u)
        key = (lo, hi, rep)
        cached = self._coeffs.get(key)
        if cached is None:
            state = derive_state(self.config.seed, KIND_SIGN, lo, hi, rep)
            cached = field_elements_vec(state, self.config.m * 4).reshape(self.config.m, 4)
            self._coeffs[key] = cached
        return cached

    def signs(self, u: int, v: int, rep: int, x: int) -> np.ndarray:
        """Sign vector over all m counters for one item; float64 +-1."""
        item = np.array([x & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        parity = sign_parity_table(self.coefficients(u, v, rep), item)[0]
        return 1.0 - 2.0 * parity


def ams_sketch(relation: int, config: SketchConfig, graph: JoinGraph) -> RelationSketch:
    if config.method != METHOD_AMS:
        raise QueryError("ams_sketch requires a config with method='ams'")
    return RelationSketch(relation, config, graph, AmsSignFamilies(config, graph))


def ams_update(sk: RelationSketch, t: TupleUpdate) -> None:
    """Apply one tuple: every one of the m counters changes, per repetition."""
    if sk.config.method != METHOD_AMS:
        raise QueryError("ams_update() applies to ams sketches")
    _check_tuple(sk.graph, sk.relation, t.relation, t.values)
    graph = sk.graph
    families: AmsSignFamilies = sk.hashes
    for rep in range(sk.config.l):
        signs = np.ones(sk.config.m, dtype=np.float64)
        for u in graph.omega[sk.relation]:
            x = t.values[u]
            for v in graph.gamma[u]:
                signs *= families.signs(u, v, rep, x)
        sk.counters[rep] += signs * t.delta
    sk.touched_cells += sk.config.l * sk.config.m


def ams_bulk_update(sk: RelationSketch, columns: dict[int, np.ndarray], deltas: np.ndarray) -> None:
    """Grouped update for a batch of tuples (column arrays by attribute).

    The counter definition sums over distinct tuples weighted by their
    net frequency, so folding duplicates before the Theta(m) work is
    exact.  Per repetition, each (edge, attribute) pair gets one parity
    table over the attribute's distinct values; a block of distinct
    tuples XORs the tables' rows gathered through each attribute's
    inverse index and adds weights @ (1 - 2 * parity) to the counters,
    computed as sum(weights) - 2 * (weights @ parity).  For integer
    deltas every partial sum is an integer below 2^53, so the summation
    order cannot change a counter: the result equals ams_update() per
    tuple bit for bit.
    """
    graph, config = sk.graph, sk.config
    families: AmsSignFamilies = sk.hashes
    omega = graph.omega[sk.relation]
    keys, weights = distinct_tuples(columns, omega, deltas)
    n = len(weights)
    if n == 0:
        return
    distinct = [np.unique(keys[:, i], return_inverse=True) for i in range(len(omega))]
    rows = max(1, BLOCK_ELEMENTS // config.m)
    for rep in range(config.l):
        tables = [
            (sign_parity_table(families.coefficients(u, v, rep), values), inverse)
            for u, (values, inverse) in zip(omega, distinct)
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


def ams_build(
    updates: Iterable[TupleUpdate],
    graph: JoinGraph,
    config: SketchConfig,
    relation: int,
) -> RelationSketch:
    """Build an AMS sketch from a stream of tuple updates."""
    sk = ams_sketch(relation, config, graph)
    ams_bulk_update(sk, *updates_to_columns(updates, graph, relation))
    return sk


def warm_families(families: AmsSignFamilies) -> None:
    """Derive every join edge's sign families now, outside any timed update."""
    for rep in range(families.config.l):
        for u, v in families.graph.edges:
            families.coefficients(u, v, rep)


def ams_estimate(sketches: list[RelationSketch], graph: JoinGraph) -> EstimateReport:
    """Mean-of-products estimate per repetition, median across repetitions."""
    _check_sketches(sketches, graph, METHOD_AMS)
    config = sketches[0].config
    start = time.perf_counter()
    per_rep: list[float] = []
    for rep in range(config.l):
        stacked = np.stack([sk.counters[rep] for sk in sketches])
        per_rep.append(float(np.prod(stacked, axis=0).mean()))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return EstimateReport(
        method=METHOD_AMS,
        per_repetition=tuple(per_rep),
        median=float(statistics.median(per_rep)),
        infer_ms=elapsed_ms,
    )
