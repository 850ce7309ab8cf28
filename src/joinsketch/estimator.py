"""Cardinality estimation from convolution sketches.

The estimate is a sum over all bin assignments of the graph components
of the product of relation counters, each relation indexed by the sum of
its components' bins mod m.  Evaluating that sum directly costs
m^(#components) (`naive_estimate`, which uses no plan); the production
path instead walks the rooted traversal plan, the same `PlanNode` tree
the exact hash join walks, combining sketch vectors with Hadamard
products and circular cross-correlation by real FFT (`rfft`/`irfft`),
which is O(r * m log m) per repetition.  Both paths compute the same
value and cross-check each other in tests.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import BudgetError, QueryError
from .joingraph import JoinGraph, PlanNode, traversal_plan
from .sketch import METHOD_CONV, RelationSketch

NAIVE_CELL_BUDGET = 10**7


@dataclass(frozen=True)
class EstimateReport:
    """Per-repetition estimates with their median and inference time."""

    method: str
    per_repetition: tuple[float, ...]
    median: float
    infer_ms: float
    path: str = ""

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "path": self.path,
            "estimates": list(self.per_repetition),
            "median": self.median,
            "infer_ms": self.infer_ms,
        }


def circ_cross_correlate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Circular cross-correlation: out[j] = sum_i x[i] * y[(j + i) mod m].

    Computed by real FFT (`rfft`/`irfft`); `n=len(x)` keeps odd m exact.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    spec = np.fft.rfft(x)
    np.conj(spec, out=spec)
    spec *= np.fft.rfft(y)
    return np.fft.irfft(spec, n=len(x))


def _check_sketches(sketches: list[RelationSketch], graph: JoinGraph, method: str) -> None:
    """Raise QueryError unless `sketches` are one per relation of `graph`,
    in relation order, under one config of `method`."""
    if len(sketches) != graph.r:
        raise QueryError(f"expected {graph.r} sketches, got {len(sketches)}")
    config = sketches[0].config
    for k, sk in enumerate(sketches):
        if sk.relation != k:
            raise QueryError(f"sketch at position {k} is for relation {sk.relation}")
        if sk.config != config:
            raise QueryError("sketches disagree on config")
    if config.method != method:
        raise QueryError(f"{method} estimator got sketches with method {config.method!r}")


def naive_estimate(sketches: list[RelationSketch], graph: JoinGraph, rep: int) -> float:
    """Direct evaluation of the estimate sum over all bin assignments.

    Cost grows as m^(#components); guarded, and intended as the
    cross-check path for small m.
    """
    _check_sketches(sketches, graph, METHOD_CONV)
    m = sketches[0].config.m
    ncomp = graph.n_components
    if m**ncomp > NAIVE_CELL_BUDGET:
        raise BudgetError(
            f"naive evaluation needs m^components = {m}^{ncomp} cells, over {NAIVE_CELL_BUDGET}"
        )
    grids = np.indices((m,) * ncomp, dtype=np.int64)
    total = np.ones((m,) * ncomp, dtype=np.float64)
    for k in range(graph.r):
        idx = np.zeros((m,) * ncomp, dtype=np.int64)
        for u in graph.omega[k]:
            idx += grids[graph.psi[u]]
        total *= sketches[k].counters[rep][idx % m]
    return float(total.sum())


def combine_sketches(node: PlanNode, sketches: list[RelationSketch], rep: int) -> np.ndarray:
    """Combine sketch vectors along the traversal plan below `node`.

    Sibling subtrees multiply element-wise; descending through a
    relation's other attribute cross-correlates the accumulated subtree
    vector into the relation's sketch.  The element sum of the vector
    returned for the plan's root is the repetition's estimate.  That
    vector is never a view of a counter grid: every attribute joins, so
    the root has a Hadamard child to multiply in.
    """
    # Recursion at module level, not in a closure: a closure that calls
    # itself is a reference cycle, which would keep `sketches` and their
    # counter grids alive until the cyclic garbage collector runs.
    x = sketches[node.relation].counters[rep]
    for _, children in node.cross_groups:
        acc = np.ones(len(x), dtype=np.float64)
        for child in children:
            acc = combine_sketches(child, sketches, rep) * acc
        x = circ_cross_correlate(acc, x)
    for child in node.hadamard_children:
        x = combine_sketches(child, sketches, rep) * x
    return x


def estimate(
    sketches: list[RelationSketch],
    graph: JoinGraph,
    plan: PlanNode | None = None,
    path: str = "fft",
) -> EstimateReport:
    """Estimate the query cardinality from conv sketches.

    Computes one estimate per repetition (FFT combination or the naive
    sum, per `path`) and reports their median; with an even repetition
    count the median is the mean of the two middle values.
    """
    _check_sketches(sketches, graph, METHOD_CONV)
    if path not in ("fft", "naive"):
        raise QueryError(f"unknown inference path {path!r}")
    if plan is None:
        plan = traversal_plan(graph, "auto")

    config = sketches[0].config
    start = time.perf_counter()
    per_rep: list[float] = []
    for rep in range(config.l):
        if path == "fft":
            per_rep.append(float(combine_sketches(plan, sketches, rep).sum()))
        else:
            per_rep.append(naive_estimate(sketches, graph, rep))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return EstimateReport(
        method=METHOD_CONV,
        per_repetition=tuple(per_rep),
        median=float(statistics.median(per_rep)),
        infer_ms=elapsed_ms,
        path=path,
    )


def required_bins(epsilon: float, r: int, norm_product: float) -> int:
    """Bin count that bounds the absolute error by epsilon (Chebyshev)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return ceil(3**r * epsilon**-2 * norm_product)
