"""Benchmark harness: repeated sketch-and-estimate trials with metrics.

Each trial owns a seed derived from (master seed, method, m, trial), so
every row is reproducible in isolation.  Trials run one after another in
one thread, so their timings measure the work alone, and rows are
emitted in (method, m, trial) order.  Error metrics follow the
evaluation conventions: absolute relative error with a max(y, 1)
denominator, and q-error with infinity for non-positive estimates.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from .ams import ams_bulk_update, ams_estimate
from .errors import QueryError
from .estimator import estimate
from .hashing import derive_hash_set
from .ingest import read_columns
from .joingraph import JoinGraph, traversal_plan
from .mersenne import mix64
from .oracle import exact_cardinality
from .sketch import (
    METHOD_AMS, METHOD_CONV, Columns, RelationSketch, SketchConfig, bulk_update, check_grid_fits,
)
from .sketchfile import Replacement

BENCH_SCHEMA = "joinsketch-bench-v1"

_METHOD_CODES = {METHOD_CONV: 101, METHOD_AMS: 102}


def abs_rel_error(y: float, y_hat: float) -> float:
    """|y - y_hat| / max(y, 1)."""
    if y < 0:
        raise ValueError("true cardinality must be non-negative")
    return abs(y - y_hat) / max(y, 1.0)


def q_error(y: float, y_hat: float) -> float:
    """max(y/y_hat, y_hat/y); infinity when the estimate is not positive.

    A true cardinality of zero is clamped to one, mirroring the
    denominator guard of abs_rel_error.
    """
    if y_hat <= 0.0:
        return math.inf
    y = max(y, 1.0)
    return max(y / y_hat, y_hat / y)


def parse_m_sweep(text: str) -> list[int]:
    """Parse '2^A..2^B' (optionally '2^A..2^B:step') into bin counts."""
    spec = text.strip()
    step = 1
    if ":" in spec:
        spec, _, raw_step = spec.partition(":")
        try:
            step = int(raw_step)
        except ValueError as exc:
            raise QueryError(f"bad m-sweep step {raw_step!r}") from exc
        if step < 1:
            raise QueryError(f"m-sweep step must be >= 1, got {step}")
    lo, sep, hi = spec.partition("..")
    if not sep:
        raise QueryError(f"m-sweep must look like 2^A..2^B, got {text!r}")

    def parse_power(s: str) -> int:
        s = s.strip()
        if not s.startswith("2^"):
            raise QueryError(f"m-sweep bounds must be powers like 2^10, got {s!r}")
        try:
            return int(s[2:])
        except ValueError as exc:
            raise QueryError(f"bad m-sweep bound {s!r}") from exc

    a, b = parse_power(lo), parse_power(hi)
    if a < 0:
        raise QueryError(f"m-sweep exponents must be >= 0, got 2^{a}")
    if a > b:
        raise QueryError(f"m-sweep lower bound 2^{a} exceeds upper bound 2^{b}")
    return [2**e for e in range(a, b + 1, step)]


def trial_seed(master_seed: int, method: str, m: int, trial: int) -> int:
    """Deterministic per-trial seed; every bench row is reproducible."""
    s = mix64(master_seed ^ 0x6A5D39EAE116586D)
    for word in (_METHOD_CODES[method], m, trial):
        s = mix64(s ^ word)
    return s


@dataclass(frozen=True)
class BenchRow:
    method: str
    m: int
    trial: int
    seed: int
    estimate: float
    exact: float
    abs_rel_error: float
    q_error: float
    sketch_ms: float
    infer_ms: float


@dataclass(frozen=True)
class BenchSummary:
    method: str
    m: int
    median_are: float
    p95_are: float


def read_all_columns(graph: JoinGraph) -> list[Columns]:
    """Read every relation's source once, as bulk column arrays."""
    return [read_columns(graph, rel) for rel in range(graph.r)]


def build_sketches(
    graph: JoinGraph,
    config: SketchConfig,
    columns_by_relation: list[Columns],
) -> list[RelationSketch]:
    """Build one sketch per relation from pre-read column arrays; the
    AMS sketches of the query are built together."""
    hashes = derive_hash_set(config, graph)
    sketches = [RelationSketch(rel, config, graph, hashes) for rel in range(graph.r)]
    if config.method == METHOD_AMS:
        ams_bulk_update(sketches, columns_by_relation)
    else:
        for sk, (columns, deltas) in zip(sketches, columns_by_relation):
            bulk_update(sk, columns, deltas)
    return sketches


def conv_grids(
    graph: JoinGraph,
    config: SketchConfig,
    columns_by_relation: Iterable[Columns],
) -> Iterator[tuple[str, np.ndarray]]:
    """Each relation's (name, conv counter grid) in relation order, all
    built into one reused l x m grid: a yielded grid holds its relation's
    counters only until the next is asked for, as `save_sketch_file`
    needs.

    The counters equal `build_sketches`'.  `sketch` so holds one grid,
    not one per relation (2.6 MB each at m = 65,536, l = 5), and writes
    the same pages for every relation.  The grid is filled with zeros
    rather than made by `np.zeros`, whose shared zero pages would fault
    once on a scatter's read and again on its write.
    """
    hashes = derive_hash_set(config, graph)
    grid = np.empty((config.l, config.m), dtype=np.float64)
    for rel, (columns, deltas) in enumerate(columns_by_relation):
        grid.fill(0.0)
        bulk_update(RelationSketch(rel, config, graph, hashes, grid), columns, deltas)
        yield graph.spec.relations[rel].name, grid


def run_trial(
    graph: JoinGraph,
    columns_by_relation: list[Columns],
    method: str,
    m: int,
    l: int,
    seed: int,
) -> tuple[float, float, float]:
    """One (method, m, seed) measurement: estimate, sketch_ms, infer_ms."""
    config = SketchConfig(m=m, l=l, seed=seed, method=method)
    start = time.perf_counter()
    sketches = build_sketches(graph, config, columns_by_relation)
    sketch_ms = (time.perf_counter() - start) * 1000.0
    if method == METHOD_CONV:
        report = estimate(sketches, graph, traversal_plan(graph, "auto"), path="fft")
    else:
        report = ams_estimate(sketches, graph)
    return report.median, sketch_ms, report.infer_ms


def run_bench(
    graph: JoinGraph,
    m_values: list[int],
    trials: int,
    master_seed: int,
    methods: list[str],
    l: int = 5,
    columns_by_relation: list[Columns] | None = None,
) -> tuple[list[BenchRow], list[BenchSummary], dict[str, float]]:
    """Full sweep: rows per (method, m, trial), summaries, log-log slopes."""
    if trials < 1:
        raise QueryError(f"trials must be >= 1, got {trials}")
    if l < 1:
        raise QueryError(f"repetition count l must be >= 1, got {l}")
    for method in methods:
        if method not in (METHOD_CONV, METHOD_AMS):
            raise QueryError(f"unknown method {method!r}")
    check_grid_fits(SketchConfig(m=max(m_values), l=l))
    if columns_by_relation is None:
        columns_by_relation = read_all_columns(graph)

    exact = exact_cardinality(columns_by_relation, graph, path="auto")

    rows: list[BenchRow] = []
    for method in methods:
        for m in m_values:
            for trial in range(trials):
                seed = trial_seed(master_seed, method, m, trial)
                est, sketch_ms, infer_ms = run_trial(
                    graph, columns_by_relation, method, m, l, seed
                )
                rows.append(
                    BenchRow(
                        method=method,
                        m=m,
                        trial=trial,
                        seed=seed,
                        estimate=est,
                        exact=exact,
                        abs_rel_error=abs_rel_error(exact, est),
                        q_error=q_error(exact, est),
                        sketch_ms=sketch_ms,
                        infer_ms=infer_ms,
                    )
                )
    # Rows list methods by name, whatever order `methods` gives them in.
    rows.sort(key=lambda r: (r.method, r.m, r.trial))

    summaries: list[BenchSummary] = []
    for method in methods:
        for m in m_values:
            errs = [r.abs_rel_error for r in rows if r.method == method and r.m == m]
            summaries.append(
                BenchSummary(
                    method=method,
                    m=m,
                    median_are=float(np.median(errs)),
                    p95_are=float(np.percentile(errs, 95)),
                )
            )

    slopes = {
        method: (
            loglog_slope(
                [s.m for s in summaries if s.method == method],
                [s.median_are for s in summaries if s.method == method],
            )
            if len(m_values) >= 2
            else math.nan
        )
        for method in methods
    }
    return rows, summaries, slopes


def loglog_slope(xs: list[float], ys: list[float], floor: float = 1e-12) -> float:
    """Least-squares slope of log(y) against log(x); y clamped to floor."""
    if len(xs) < 2:
        raise ValueError("need at least two points for a slope")
    lx = np.log([float(x) for x in xs])
    ly = np.log([max(float(y), floor) for y in ys])
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def write_bench_csv(
    path: str,
    rows: list[BenchRow],
    summaries: list[BenchSummary],
    slopes: dict[str, float],
    out: Replacement | None = None,
) -> None:
    """Serialize bench output through `out`, a Replacement of `path` made
    before the sweep ran, or through a new one; the schema line versions
    the layout."""
    text = io.StringIO(newline="")
    text.write(f"# schema={BENCH_SCHEMA}\n")
    columns = (
        "row_type", "method", "m", "trial", "seed", "estimate", "exact",
        "abs_rel_error", "q_error", "sketch_ms", "infer_ms",
        "median_are", "p95_are", "slope",
    )
    writer = csv.DictWriter(text, columns, restval="")
    writer.writeheader()
    # The writer puts floats as their repr, the shortest exact text.
    for r in rows:
        writer.writerow(
            {"row_type": "row", **asdict(r),
             "sketch_ms": f"{r.sketch_ms:.3f}", "infer_ms": f"{r.infer_ms:.3f}"}
        )
    for s in summaries:
        writer.writerow({"row_type": "summary", **asdict(s)})
    for method, slope in slopes.items():
        writer.writerow({"row_type": "slope", "method": method, "slope": slope})
    with out or Replacement(path, "bench output") as target:
        target.commit(lambda fh: fh.write(text.getvalue().encode("utf-8")))


def run_throughput(
    graph: JoinGraph,
    m_values: list[int],
    methods: list[str],
    master_seed: int = 0,
    l: int = 5,
    columns_by_relation: list[Columns] | None = None,
) -> list[dict]:
    """Measured update rate per (method, m) on the query's largest relation.

    Hash-function setup happens outside the timed region; the timer
    covers only the update of that one relation's tuples, alone: the
    per-tuple update rate the paper compares.
    """
    if l < 1:
        raise QueryError(f"repetition count l must be >= 1, got {l}")
    check_grid_fits(SketchConfig(m=max(m_values), l=l))
    if columns_by_relation is None:
        columns_by_relation = read_all_columns(graph)
    sizes = [len(deltas) for _, deltas in columns_by_relation]
    largest = max(range(graph.r), key=lambda k: sizes[k])
    columns, deltas = columns_by_relation[largest]
    n = sizes[largest]

    results = []
    for method in methods:
        for m in m_values:
            config = SketchConfig(m=m, l=l, seed=master_seed, method=method)
            hashes = derive_hash_set(config, graph)
            sk = RelationSketch(largest, config, graph, hashes)
            start = time.perf_counter()
            if method == METHOD_AMS:
                ams_bulk_update([sk], [(columns, deltas)])
            else:
                bulk_update(sk, columns, deltas)
            elapsed = time.perf_counter() - start
            rate = (n / elapsed) if (n > 0 and elapsed > 0) else 0.0
            results.append(
                {
                    "method": method,
                    "m": m,
                    "relation": graph.spec.relations[largest].name,
                    "tuples": n,
                    "seconds": elapsed,
                    "tuples_per_sec": rate,
                }
            )
    return results
