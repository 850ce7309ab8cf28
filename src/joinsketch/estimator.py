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

No repetition reads another's data, and numpy's FFT releases the GIL.
So an fft estimate with m >= PARALLEL_M, in a process that may run on
more than one CPU, splits its repetitions: the calling thread computes
the even ones while the one worker thread of a process-wide
`concurrent.futures` executor computes the odd ones, and the estimates
go back in repetition order, so the report is the one a serial run
gives.  The executor, and with it `concurrent.futures`, is set up on
the first split.  Smaller m, the naive path and the AMS estimate run in
the calling thread.  Each thread cross-correlates through its own two
scratch spectra, so two repetitions in flight allocate only their
results.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from dataclasses import dataclass
from math import ceil
from typing import Callable

import numpy as np

from .errors import BudgetError, QueryError
from .joingraph import JoinGraph, PlanNode, traversal_plan
from .sketch import METHOD_CONV, RelationSketch

NAIVE_CELL_BUDGET = 10**7

# An fft estimate splits its repetitions between two threads from this m
# up; below it, the GIL handoffs between short transforms cost about what
# the overlap saves.  Split over serial `estimate` time on a 4-relation
# star, l=5 (2 CPUs, numpy 2.4.6), in rounds of one `sketch` and 24
# `estimate` calls with other work after each call; medians per process,
# 3 to 6 processes: 1.02-1.09 at m = 4,096, 0.92-1.01 at 8,192,
# 0.78-0.86 at 16,384, 0.68-0.76 at 32,768, 0.65-0.66 at 65,536.
PARALLEL_M = 1 << 14


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


def repetition_report(
    method: str,
    l: int,
    estimate_rep: Callable[[int], float],
    path: str = "",
    split: bool = False,
) -> EstimateReport:
    """Time `estimate_rep` over repetitions 0 to l - 1 and report the
    estimates with their median; with an even repetition count the median
    is the mean of the two middle values.  With `split`, the odd
    repetitions run on the worker thread (`_split_repetitions`)."""
    start = time.perf_counter()
    if split:
        per_rep = _split_repetitions(l, estimate_rep)
    else:
        per_rep = [estimate_rep(rep) for rep in range(l)]
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return EstimateReport(
        method=method,
        per_repetition=tuple(per_rep),
        median=float(statistics.median(per_rep)),
        infer_ms=elapsed_ms,
        path=path,
    )


@functools.cache
def _executor():
    """The single-worker executor of the odd repetitions; its thread starts
    on the first split."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="joinsketch-fft")


# A forked child has no worker thread: it starts its own on its first split.
os.register_at_fork(after_in_child=_executor.cache_clear)


def _split_repetitions(l: int, estimate_rep: Callable[[int], float]) -> list[float]:
    """`estimate_rep` of repetitions 0 to l - 1, in order: the executor's
    worker computes the odd ones while the calling thread computes the
    even ones.

    Returns or raises only after both shares have finished.  An exception
    from the calling thread's share wins over one from the worker's.
    Once interpreter shutdown has begun, as in an `atexit` handler or a
    thread that outlives the main thread, the executor takes no new work,
    and the calling thread computes every repetition.
    """
    try:
        future = _executor().submit(lambda: [estimate_rep(rep) for rep in range(1, l, 2)])
    except RuntimeError:  # "cannot schedule new futures after ... shutdown"
        return [estimate_rep(rep) for rep in range(l)]
    try:
        evens = [estimate_rep(rep) for rep in range(0, l, 2)]
    finally:
        future.exception()  # waits for the worker's share, raising nothing
    try:
        odds = future.result()
    finally:
        # A worker exception raised here holds this frame in its traceback,
        # and the future holds the exception: break the cycle.
        del future
    per_rep = [0.0] * l
    per_rep[0::2] = evens
    per_rep[1::2] = odds
    return per_rep


# Per-thread scratch spectra of circ_cross_correlate.
_scratch = threading.local()


def _spectra(m: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two complex buffers for the rfft of a length-m vector;
    the last length's buffers are kept."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or len(bufs[0]) != m // 2 + 1:
        bufs = _scratch.bufs = (
            np.empty(m // 2 + 1, dtype=np.complex128),
            np.empty(m // 2 + 1, dtype=np.complex128),
        )
    return bufs


def circ_cross_correlate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Circular cross-correlation: out[j] = sum_i x[i] * y[(j + i) mod m].

    Computed by real FFT (`rfft`/`irfft`); `n=len(x)` keeps odd m exact.
    Both spectra go into this thread's scratch buffers, so a call
    allocates only its result, which is a fresh array: a plan node may
    still hold an earlier one.  `rfft` into a complex128 buffer reads an
    integer row as float64 itself, with no float64 copy of the row.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    spec_x, spec_y = _spectra(len(x))
    np.fft.rfft(x, out=spec_x)
    np.conj(spec_x, out=spec_x)
    spec_x *= np.fft.rfft(y, out=spec_y)
    return np.fft.irfft(spec_x, n=len(x))


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
    the root has a Hadamard child to multiply in.  A counter row of an
    integer grid loaded from a file is never converted on its own: the
    `rfft` of `circ_cross_correlate` reads it as float64, and every
    product is taken in float64, so none wraps in a narrow dtype.
    """
    # Recursion at module level, not in a closure: a closure that calls
    # itself is a reference cycle, which would keep `sketches` and their
    # counter grids alive until the cyclic garbage collector runs.
    x = sketches[node.relation].counters[rep]
    for _, children in node.cross_groups:
        # Never empty: every attribute joins.
        acc = combine_sketches(children[0], sketches, rep)
        for child in children[1:]:
            acc = np.multiply(combine_sketches(child, sketches, rep), acc, dtype=np.float64)
        x = circ_cross_correlate(acc, x)
    for child in node.hadamard_children:
        x = np.multiply(combine_sketches(child, sketches, rep), x, dtype=np.float64)
    return x


def estimate(
    sketches: list[RelationSketch],
    graph: JoinGraph,
    plan: PlanNode | None = None,
    path: str = "fft",
) -> EstimateReport:
    """Estimate the query cardinality from conv sketches.

    Computes one estimate per repetition (FFT combination or the naive
    sum, per `path`) and reports their median.  The fft path splits the
    repetitions between two threads when m >= PARALLEL_M and the process
    may run on more than one CPU.
    """
    _check_sketches(sketches, graph, METHOD_CONV)
    if path not in ("fft", "naive"):
        raise QueryError(f"unknown inference path {path!r}")
    if plan is None:
        plan = traversal_plan(graph, "auto")

    def estimate_rep(rep: int) -> float:
        if path == "fft":
            return float(combine_sketches(plan, sketches, rep).sum())
        return naive_estimate(sketches, graph, rep)

    config = sketches[0].config
    split = (
        path == "fft"
        and config.l > 1
        and config.m >= PARALLEL_M
        and hasattr(os, "sched_getaffinity")  # not on every platform
        and len(os.sched_getaffinity(0)) > 1
    )
    return repetition_report(METHOD_CONV, config.l, estimate_rep, path, split)


def required_bins(epsilon: float, r: int, norm_product: float) -> int:
    """Bin count that bounds the absolute error by epsilon (Chebyshev)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return ceil(3**r * epsilon**-2 * norm_product)
