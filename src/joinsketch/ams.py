"""Dense multi-join AMS baseline: every counter changes on every update.

Counter j of a relation sketch accumulates the tuple frequency times the
product of per-counter sign hashes, one independent 4-wise family per
(join edge, repetition, counter).  The estimate is the mean over
counters of the product of the relation counters, reported as the median
across repetitions.  Update cost is Theta(m) per repetition, which is
what the convolution sketch removes.
"""

from __future__ import annotations

import statistics
import time
from typing import Iterable

import numpy as np

from .errors import DataError, QueryError
from .estimator import EstimateReport
from .hashing import KIND_SIGN
from .joingraph import JoinGraph
from .mersenne import derive_state, field_elements_vec, poly_eval_vec
from .sketch import (
    METHOD_AMS,
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    group_tuples,
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
        coeffs = self.coefficients(u, v, rep)
        value = np.uint64(x & 0xFFFFFFFFFFFFFFFF)
        acc = poly_eval_vec(
            (coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], coeffs[:, 3]),
            np.broadcast_to(value, (self.config.m,)),
        )
        return 1.0 - 2.0 * (acc & np.uint64(1)).astype(np.float64)


def ams_sketch(relation: int, config: SketchConfig, graph: JoinGraph) -> RelationSketch:
    if config.method != METHOD_AMS:
        raise QueryError("ams_sketch requires a config with method='ams'")
    return RelationSketch(relation, config, graph, AmsSignFamilies(config, graph))


def ams_update(sk: RelationSketch, t: TupleUpdate) -> None:
    """Apply one tuple: every one of the m counters changes, per repetition."""
    if sk.config.method != METHOD_AMS:
        raise QueryError("ams_update() applies to ams sketches")
    if t.relation != sk.relation:
        raise DataError(f"update for relation {t.relation} sent to sketch of {sk.relation}")
    graph = sk.graph
    families: AmsSignFamilies = sk.hashes
    needed = set(graph.omega[sk.relation])
    if set(t.values) != needed:
        raise DataError(
            f"tuple values cover attributes {sorted(t.values)}, expected {sorted(needed)}"
        )
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
    total frequency, so folding duplicates before the Theta(m) work is
    exact and considerably faster on skewed streams.
    """
    graph, config = sk.graph, sk.config
    families: AmsSignFamilies = sk.hashes
    omega = graph.omega[sk.relation]
    freq = group_tuples(columns, omega, deltas)

    for rep in range(config.l):
        sign_cache: dict[tuple[int, int, int], np.ndarray] = {}
        for key, weight in freq.items():
            signs = np.ones(config.m, dtype=np.float64)
            for u, x in zip(omega, key):
                for v in graph.gamma[u]:
                    ck = (u, v, x)
                    vec = sign_cache.get(ck)
                    if vec is None:
                        vec = families.signs(u, v, rep, x)
                        sign_cache[ck] = vec
                    signs = signs * vec
            sk.counters[rep] += signs * weight
            sk.touched_cells += config.m


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


def warm_families(sk: RelationSketch) -> None:
    """Pre-derive all sign-family coefficients for one relation's sketch.

    Separates hash initialization from update timing in throughput runs.
    """
    families: AmsSignFamilies = sk.hashes
    graph = sk.graph
    for rep in range(sk.config.l):
        for u in graph.omega[sk.relation]:
            for v in graph.gamma[u]:
                families.coefficients(u, v, rep)


def ams_estimate(sketches: list[RelationSketch], graph: JoinGraph) -> EstimateReport:
    """Mean-of-products estimate per repetition, median across repetitions."""
    if not sketches:
        raise QueryError("no sketches to estimate from")
    config = sketches[0].config
    for sk in sketches:
        if sk.config != config:
            raise QueryError("sketches disagree on config")
    if config.method != METHOD_AMS:
        raise QueryError("ams_estimate requires ams sketches")
    if len(sketches) != graph.r:
        raise QueryError(f"expected {graph.r} sketches, got {len(sketches)}")

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
