"""Command-line surface: sketch, estimate, exact, bench, throughput.

Exit codes: 1 usage, 2 query document problems, 3 data problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
import time

import numpy as np

from .ams import ams_estimate
from .bench import (
    build_sketches,
    freqs_from_columns,
    parse_m_sweep,
    read_all_columns,
    run_bench,
    run_throughput,
    write_bench_csv,
)
from .errors import BudgetError, DataError, QueryError
from .estimator import estimate
# derive_hash_set, read_stream and materialize stay bound here: perfbench's
# traced rounds patch them by name.
from .hashing import derive_hash_set  # noqa: F401
from .ingest import read_columns, read_stream  # noqa: F401
from .joingraph import build_join_graph, load_query, traversal_plan
from .oracle import exact_cardinality, materialize  # noqa: F401
from .sketch import METHOD_AMS, METHOD_CONV, RelationSketch, SketchConfig
from .sketchfile import Replacement, load_sketch_file, save_sketch_file

logger = logging.getLogger("joinsketch")

EXIT_USAGE = 1
EXIT_QUERY = 2
EXIT_DATA = 3

# Below this measured ingestion rate (tuples/second) on a non-trivial
# stream, cmd_sketch logs a throughput warning.
SLOW_RATE_WARN = 100_000.0
_WARN_MIN_TUPLES = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = _Parser(prog="joinsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sketch = sub.add_parser("sketch", help="ingest relation sources and write a sketch file")
    p_sketch.add_argument("--query", required=True)
    p_sketch.add_argument("--m", required=True, type=int)
    p_sketch.add_argument("--reps", default=5, type=int)
    p_sketch.add_argument("--seed", default=0, type=int)
    p_sketch.add_argument("--out", required=True)
    p_sketch.add_argument("--method", default=METHOD_CONV, choices=[METHOD_CONV, METHOD_AMS])

    p_est = sub.add_parser("estimate", help="estimate cardinality from a sketch file")
    p_est.add_argument("--sketches", required=True)
    p_est.add_argument("--query", required=True)
    p_est.add_argument("--path", default="auto", choices=["auto", "fft", "naive"])

    p_exact = sub.add_parser("exact", help="exact cardinality via the oracle")
    p_exact.add_argument("--query", required=True)
    p_exact.add_argument("--path", default="auto", choices=["auto", "nested"])

    p_bench = sub.add_parser("bench", help="accuracy/timing sweep, CSV output")
    p_bench.add_argument("--query", required=True)
    p_bench.add_argument("--m-sweep", required=True)
    p_bench.add_argument("--trials", default=30, type=int)
    p_bench.add_argument("--seed", default=0, type=int)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--methods", default=f"{METHOD_CONV},{METHOD_AMS}")
    p_bench.add_argument("--reps", default=5, type=int)

    p_tp = sub.add_parser("throughput", help="tuples/second table per (method, m)")
    p_tp.add_argument("--query", required=True)
    p_tp.add_argument("--m-sweep", required=True)
    p_tp.add_argument("--methods", default=f"{METHOD_CONV},{METHOD_AMS}")
    p_tp.add_argument("--seed", default=0, type=int)
    p_tp.add_argument("--reps", default=5, type=int)

    return parser


def _load_graph(query_path: str):
    return build_join_graph(load_query(query_path))


def _parse_methods(text: str) -> list[str]:
    methods = [part.strip() for part in text.split(",") if part.strip()]
    for method in methods:
        if method not in (METHOD_CONV, METHOD_AMS):
            raise QueryError(f"unknown method {method!r}")
    if not methods:
        raise QueryError("no methods given")
    if len(set(methods)) != len(methods):
        raise QueryError(f"a method is listed twice in {text!r}")
    return methods


def cmd_sketch(args) -> int:
    graph = _load_graph(args.query)
    config = SketchConfig(m=args.m, l=args.reps, seed=args.seed, method=args.method)
    with Replacement(args.out, "sketch file") as out:
        columns = read_all_columns(graph)
        n_tuples = sum(len(deltas) for _, deltas in columns)
        start = time.perf_counter()
        sketches = build_sketches(graph, config, columns)
        elapsed = time.perf_counter() - start
        if n_tuples >= _WARN_MIN_TUPLES and elapsed > 0 and n_tuples / elapsed < SLOW_RATE_WARN:
            logger.warning(
                "low sketch throughput: %.0f tuples/s over %d tuples (method=%s, m=%d)",
                n_tuples / elapsed, n_tuples, config.method, config.m,
            )
        relations = [
            (graph.spec.relations[k].name, sketches[k].counters) for k in range(graph.r)
        ]
        save_sketch_file(args.out, config, relations, out)
    logger.info("wrote %s (%d relations, m=%d, l=%d)", args.out, graph.r, config.m, config.l)
    return 0


def cmd_estimate(args) -> int:
    graph = _load_graph(args.query)
    config, stored = load_sketch_file(args.sketches)
    expected_names = [decl.name for decl in graph.spec.relations]
    stored_names = [name for name, _ in stored]
    if stored_names != expected_names:
        raise QueryError(
            f"sketch file relations {stored_names} do not match query relations {expected_names}"
        )

    sketches = _rebind(graph, config, stored)
    if config.method == METHOD_AMS:
        if args.path != "auto":
            raise QueryError(f"inference path {args.path!r} applies to conv sketches, file is ams")
        report = ams_estimate(sketches, graph)
    else:
        path = "fft" if args.path == "auto" else args.path
        report = estimate(sketches, graph, traversal_plan(graph, "auto"), path=path)
    payload = report.to_dict()
    payload["m"] = config.m
    payload["l"] = config.l
    payload["seed"] = config.seed
    print(json.dumps(payload))
    return 0


def _rebind(graph, config, stored):
    """Sketches over loaded counters, with no hash functions: neither
    estimator reads them."""
    sketches = []
    shape = (config.l, config.m)
    for rel, (name, counters) in enumerate(stored):
        if counters.shape != shape:
            raise QueryError(f"sketch for {name!r} has shape {counters.shape}, expected {shape}")
        counters = counters.astype(np.float64, copy=False)
        sketches.append(RelationSketch(rel, config, graph, None, counters))
    return sketches


def cmd_exact(args) -> int:
    graph = _load_graph(args.query)
    columns = (read_columns(graph, rel) for rel in range(graph.r))
    value = exact_cardinality(freqs_from_columns(graph, columns), graph, path=args.path)
    print(int(value) if float(value).is_integer() else value)
    return 0


def cmd_bench(args) -> int:
    graph = _load_graph(args.query)
    m_values = parse_m_sweep(args.m_sweep)
    methods = _parse_methods(args.methods)
    with Replacement(args.out, "bench output") as out:
        rows, summaries, slopes = run_bench(
            graph,
            m_values=m_values,
            trials=args.trials,
            master_seed=args.seed,
            methods=methods,
            l=args.reps,
        )
        write_bench_csv(args.out, rows, summaries, slopes, out)
    logger.info("wrote %s (%d rows)", args.out, len(rows))
    return 0


def cmd_throughput(args) -> int:
    graph = _load_graph(args.query)
    m_values = parse_m_sweep(args.m_sweep)
    methods = _parse_methods(args.methods)
    results = run_throughput(graph, m_values, methods, master_seed=args.seed, l=args.reps)
    print("method,m,relation,tuples,seconds,tuples_per_sec")
    for row in results:
        print(
            f"{row['method']},{row['m']},{row['relation']},{row['tuples']},"
            f"{row['seconds']:.6f},{row['tuples_per_sec']:.1f}"
        )
    return 0


_COMMANDS = {
    "sketch": cmd_sketch,
    "estimate": cmd_estimate,
    "exact": cmd_exact,
    "bench": cmd_bench,
    "throughput": cmd_throughput,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QueryError as exc:
        logger.error("query error: %s", exc)
        return EXIT_QUERY
    except (DataError, BudgetError) as exc:
        logger.error("data error: %s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
