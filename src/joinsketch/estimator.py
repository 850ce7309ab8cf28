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

No repetition reads another's data.  Below PARALLEL_M an fft estimate
combines all l repetitions at once, as (l, m) blocks: numpy's FFT
transforms a block row by row along its last axis, with each row's bits
the same as a transform of that row alone, so one call per plan step
replaces l.  From PARALLEL_M up a block transform is slower than its
rows, and numpy's FFT releases the GIL, so an fft estimate combines one
repetition at a time and, in a process that may run on more than one
CPU, splits them: the calling thread computes the even ones while the
one worker thread of a process-wide `concurrent.futures` executor
computes the odd ones.  Either way the estimates go back in repetition
order, so the report is the one a serial row-by-row run gives.  The
executor, and with it `concurrent.futures`, is set up on the first
split.  The naive path and the AMS estimate run in the calling thread.
Each thread cross-correlates through its own two scratch spectra, so a
transform allocates only its result.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from dataclasses import dataclass
from math import ceil
from typing import Callable, Iterable

import numpy as np

from .errors import BudgetError, QueryError
from .joingraph import JoinGraph, PlanNode, traversal_plan
from .sketch import METHOD_CONV, RelationSketch

NAIVE_CELL_BUDGET = 10**7

# The one crossover of the fft path.  Below it an estimate combines all
# repetitions as one (l, m) block: `rfft` of 5 rows as a block against 5
# single-row calls (2 CPUs, numpy 2.4.6, warm) took 0.039 against 0.095 ms
# at m = 1,024, 0.163 against 0.268 ms at 4,096 (`irfft` 0.183 against
# 0.287 ms), 0.499 against 0.560 ms at 8,192, but 0.926 against 0.665 ms
# at 16,384 and 5.49 against 4.79 ms at 65,536.  From it up an estimate
# goes row by row and splits its repetitions between two threads; below
# it, the GIL handoffs between short transforms cost about what the
# overlap saves.  Split over serial `estimate` time on a 4-relation star,
# l=5, in rounds of one `sketch` and 24 `estimate` calls with other work
# after each call; medians per process, 3 to 6 processes: 1.02-1.09 at
# m = 4,096, 0.92-1.01 at 8,192, 0.78-0.86 at 16,384, 0.68-0.76 at
# 32,768, 0.65-0.66 at 65,536.
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
    estimates: Callable[[], Iterable[float]],
    path: str = "",
) -> EstimateReport:
    """Time `estimates()`, the per-repetition estimates in repetition
    order, and report them with their median; with an even repetition
    count the median is the mean of the two middle values."""
    start = time.perf_counter()
    per_rep = tuple(estimates())
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return EstimateReport(
        method=method,
        per_repetition=per_rep,
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


def _spectra(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two complex buffers for the rfft of a block of
    `shape`, a length-m vector or an (l, m) block of rows; the last
    shape's buffers are kept."""
    spec_shape = (*shape[:-1], shape[-1] // 2 + 1)
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].shape != spec_shape:
        bufs = _scratch.bufs = (
            np.empty(spec_shape, dtype=np.complex128),
            np.empty(spec_shape, dtype=np.complex128),
        )
    return bufs


def circ_cross_correlate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Circular cross-correlation: out[j] = sum_i x[i] * y[(j + i) mod m].

    `x` and `y` are length-m vectors, or (l, m) blocks correlated row by
    row along the last axis; numpy's FFT gives each row of a block the
    bits it gives that row alone.  Computed by real FFT (`rfft`/`irfft`);
    `n=m` keeps odd m exact.  Both spectra go into this thread's scratch
    buffers, so a call allocates only its result, which is a fresh
    array: a plan node may still hold an earlier one.  `rfft` into a
    complex128 buffer reads integer rows as float64 itself, with no
    float64 copy of them.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ValueError(f"expected vectors or (l, m) blocks of one shape: {x.shape} vs {y.shape}")
    spec_x, spec_y = _spectra(x.shape)
    np.fft.rfft(x, out=spec_x)
    np.conj(spec_x, out=spec_x)
    spec_x *= np.fft.rfft(y, out=spec_y)
    return np.fft.irfft(spec_x, n=x.shape[-1])


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


def combine_sketches(
    node: PlanNode, sketches: list[RelationSketch], reps: int | slice
) -> np.ndarray:
    """Combine sketch vectors along the traversal plan below `node`.

    `reps` is one repetition, whose counter rows are combined as vectors,
    or a slice of repetitions, whose rows are combined as (l, m) blocks:
    every product and cross-correlation works along the last axis, so
    each row of a block's result is, bit for bit, the vector of its
    repetition alone.  Sibling subtrees multiply element-wise; descending
    through a relation's other attribute cross-correlates the accumulated
    subtree vector into the relation's sketch.  The element sum of the
    vector returned for the plan's root is the repetition's estimate.
    That vector is never a view of a counter grid: every attribute joins,
    so the root has a Hadamard child to multiply in.  The counter rows of
    an integer grid loaded from a file are never converted on their own:
    the `rfft` of `circ_cross_correlate` reads them as float64, and every
    product is taken in float64, so none wraps in a narrow dtype.
    """
    # Recursion at module level, not in a closure: a closure that calls
    # itself is a reference cycle, which would keep `sketches` and their
    # counter grids alive until the cyclic garbage collector runs.
    x = sketches[node.relation].counters[reps]
    for _, children in node.cross_groups:
        # Never empty: every attribute joins.
        acc = combine_sketches(children[0], sketches, reps)
        for child in children[1:]:
            acc = np.multiply(combine_sketches(child, sketches, reps), acc, dtype=np.float64)
        x = circ_cross_correlate(acc, x)
    for child in node.hadamard_children:
        x = np.multiply(combine_sketches(child, sketches, reps), x, dtype=np.float64)
    return x


def estimate(
    sketches: list[RelationSketch],
    graph: JoinGraph,
    plan: PlanNode | None = None,
    path: str = "fft",
) -> EstimateReport:
    """Estimate the query cardinality from conv sketches.

    Computes one estimate per repetition (FFT combination or the naive
    sum, per `path`) and reports their median.  Below PARALLEL_M the fft
    path combines every repetition in one block pass; from there up it
    combines one repetition at a time, split between two threads when
    the process may run on more than one CPU.
    """
    _check_sketches(sketches, graph, METHOD_CONV)
    if path not in ("fft", "naive"):
        raise QueryError(f"unknown inference path {path!r}")
    if plan is None:
        plan = traversal_plan(graph, "auto")
    l = sketches[0].config.l

    def fft_rep(rep: int) -> float:
        return float(combine_sketches(plan, sketches, rep).sum())

    def estimates() -> list[float]:
        if path == "naive":
            return [naive_estimate(sketches, graph, rep) for rep in range(l)]
        if sketches[0].config.m < PARALLEL_M:
            return combine_sketches(plan, sketches, slice(None)).sum(axis=-1).tolist()
        if (
            l > 1
            and hasattr(os, "sched_getaffinity")  # not on every platform
            and len(os.sched_getaffinity(0)) > 1
        ):
            return _split_repetitions(l, fft_rep)
        return [fft_rep(rep) for rep in range(l)]

    return repetition_report(METHOD_CONV, estimates, path)


def required_bins(epsilon: float, r: int, norm_product: float) -> int:
    """Bin count that bounds the absolute error by epsilon (Chebyshev)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return ceil(3**r * epsilon**-2 * norm_product)
