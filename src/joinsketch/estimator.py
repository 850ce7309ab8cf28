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
the even ones while one persistent worker thread computes the odd ones,
and the estimates go back in repetition order, so the report is the one
a serial run gives.  The worker and the `queue` module are set up on the
first split.  Smaller m, the naive path and the AMS estimate run in the
calling thread.  Each thread cross-correlates through its own two
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


def _serve(jobs) -> None:
    """The worker thread's loop: run each `(job, done)` from `jobs` and put
    `(result, None)` or `(None, exception)` on `done`."""
    while True:
        job, done = jobs.get()
        try:
            outcome = (job(), None)
        except BaseException as exc:  # the caller raises it
            outcome = (None, exc)
        # Hold nothing of a finished job while waiting for the next: its
        # closure holds the sketches, whose grids may map a sketch file.
        del job
        done.put(outcome)
        del outcome, done


@functools.cache
def _worker_jobs():
    """The job queue of the worker thread, which starts on the first call."""
    import queue

    jobs = queue.SimpleQueue()
    threading.Thread(target=_serve, args=(jobs,), name="joinsketch-fft", daemon=True).start()
    return jobs


# A forked child has no worker thread: it starts its own on its first split.
os.register_at_fork(after_in_child=_worker_jobs.cache_clear)


def _split_repetitions(l: int, estimate_rep: Callable[[int], float]) -> list[float]:
    """`estimate_rep` of repetitions 0 to l - 1, in order: the worker
    thread computes the odd ones while the calling thread computes the
    even ones.

    Returns or raises only after both shares have finished.  An exception
    from the calling thread's share wins over one from the worker's.
    """
    import queue

    done = queue.SimpleQueue()
    _worker_jobs().put((lambda: [estimate_rep(rep) for rep in range(1, l, 2)], done))
    try:
        evens = [estimate_rep(rep) for rep in range(0, l, 2)]
    finally:
        odds, error = done.get()
    if error is not None:
        try:
            raise error
        finally:
            del error  # its traceback holds this frame: break the cycle
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
    still hold an earlier one.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
    the root has a Hadamard child to multiply in.
    """
    # Recursion at module level, not in a closure: a closure that calls
    # itself is a reference cycle, which would keep `sketches` and their
    # counter grids alive until the cyclic garbage collector runs.
    x = sketches[node.relation].counters[rep]
    for _, children in node.cross_groups:
        # Never empty: every attribute joins.
        acc = combine_sketches(children[0], sketches, rep)
        for child in children[1:]:
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
