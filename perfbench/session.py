"""One benchmark session: the joinsketch CLI commands, called in-process.

run.py starts this as a single child process per run, with
``PYTHONPATH=src`` and no worker threads:

    python3 perfbench/session.py --workdir DIR --workload W --seed N --seconds S --trace 0|1

It is a closed loop with one client: each command is a call to
``joinsketch.cli.main`` that returns before the next starts.  A round is
``sketch`` once, then ESTIMATES_PER_ROUND ``estimate`` calls, then ``exact``.
Every command's output is checked, and its stdout and log lines are
captured so they never reach this process's stdout, which carries one
JSON object: the measurements and the check counts.

With ``--trace 0`` an untimed warm-up round runs first.  Then rounds
repeat until the time is spent and at least MIN_ESTIMATES estimate calls
were timed; one pass of a fixed reference work mix (reference.py) is
timed before and after every command, and each command's time is scaled
by REFERENCE_S / the median of the (up to) four passes nearest to it.  With
``--trace 1`` an untraced and a traced round alternate; the traced one
wraps joinsketch's layer functions (see tracing.py) and yields the
per-layer metrics, and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from reference import REFERENCE_S, reference_once  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# p90 of at least this many samples leaves 11 samples above it.
MIN_ESTIMATES = 110
# The first estimate after each sketch runs cold, about 1.6x the others
# on chain3-int.  At 1 call in 24 the cold calls stay above p95, so p90
# measures warm calls instead of sitting on the edge between the two.
ESTIMATES_PER_ROUND = 24
# Half-width of the accepted estimate band, in standard deviations from
# the paper's per-repetition variance bound 3^(r-1)/m * prod(F2).  The
# median of l=5 repetitions leaves it with probability <= 10/K^6 = 1e-5.
K_SIGMA = 10.0
# pinned.json holds, per workload, the counter digest and the estimate of
# seeds 0 .. PINNED_SEEDS-1; pin.py writes it.
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
PINNED_SEEDS = 128
# A pinned estimate must be met to this relative tolerance.
ESTIMATE_RTOL = 1e-9


def counter_digest(relations) -> str:
    """sha256 of the float64 counter values, relation by relation."""
    h = hashlib.sha256()
    for _, counters in relations:
        h.update(np.ascontiguousarray(counters, dtype="<f8").tobytes())
    return h.hexdigest()


def pinned(workload: str, seed: int) -> dict | None:
    """The pinned ``counters`` digest and ``estimate`` for a seed, if any."""
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def chebyshev_band(truth: dict, m: int) -> float:
    r = len(truth["f2"])
    return K_SIGMA * math.sqrt(3.0 ** (r - 1) / m * math.prod(truth["f2"]))


class Session:
    """Runs and checks commands for one generated workload."""

    def __init__(self, workdir: str, workload: str, seed: int, cli):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.cli = cli
        self.query = os.path.join(workdir, "query.json")
        self.jsk = os.path.join(workdir, "sketch.jsk")
        with open(os.path.join(workdir, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)
        self.band = chebyshev_band(self.truth, self.w.m)
        self.pinned = pinned(workload, seed)
        self.digest = None
        self.estimate_value = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def run(self, argv: list[str], tracer: Tracer | None) -> tuple[int, float, str]:
        """One CLI call: exit code, wall seconds, captured stdout."""
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(f"cli.{argv[0]}", self.cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a dead run
            code = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if code != 0:
            self._fail(f"{argv[0]} exited {code}")
        return code, elapsed, out.getvalue()

    def sketch(self, tracer=None) -> float:
        w = self.w
        code, elapsed, _ = self.run(
            ["sketch", "--query", self.query, "--m", str(w.m), "--reps", str(w.l),
             "--seed", str(self.seed), "--out", self.jsk, "--method", w.method],
            tracer,
        )
        if code == 0:
            from joinsketch.sketchfile import load_sketch_file

            digest = counter_digest(load_sketch_file(self.jsk)[1])
            if self.digest is not None and digest != self.digest:
                self._fail("sketch counters differ between rounds")
            self.digest = digest
            if self.pinned is not None and digest != self.pinned["counters"]:
                self._fail(f"counter digest {digest} != pinned {self.pinned['counters']}")
        return elapsed

    def estimate(self, tracer=None) -> float:
        code, elapsed, out = self.run(
            ["estimate", "--sketches", self.jsk, "--query", self.query], tracer
        )
        if code != 0:
            return elapsed
        try:
            value = float(json.loads(out)["median"])
        except (ValueError, KeyError, TypeError) as exc:
            self._fail(f"estimate printed {out[:200]!r}: {exc!r}")
            return elapsed
        if self.estimate_value is None:
            self.estimate_value = value
        if value != self.estimate_value:
            self._fail(f"estimate {value} differs from the first call's {self.estimate_value}")
        if self.pinned is not None:
            expected = self.pinned["estimate"]
            if abs(value - expected) > ESTIMATE_RTOL * abs(expected):
                self._fail(f"estimate {value} != pinned {expected}")
        elif abs(value - self.truth["join_size"]) > self.band:
            self._fail(f"estimate {value} outside {self.truth['join_size']} +- {self.band:.6g}")
        return elapsed

    def exact(self, tracer=None) -> float:
        code, elapsed, out = self.run(["exact", "--query", self.query], tracer)
        if code != 0:
            return elapsed
        try:
            value = float(out.strip())
        except ValueError:
            value = None
        if value != self.truth["join_size"]:
            self._fail(f"exact printed {out[:200]!r}, generator says {self.truth['join_size']}")
        return elapsed

    def round(self, tracer=None, reference=False) -> dict:
        """One round of commands.  With ``reference``, one reference pass is
        timed before the first command and after each command.  Command i
        lies between passes i and i+1; its ``scale`` is REFERENCE_S / the
        median of passes i-1 .. i+2, so one slow pass does not skew it."""
        refs = [reference_once()] if reference else []

        def timed(elapsed: float) -> float:
            if reference:
                refs.append(reference_once())
            return elapsed

        sketch_s = timed(self.sketch(tracer))
        estimate_s = [timed(self.estimate(tracer)) for _ in range(ESTIMATES_PER_ROUND)]
        exact_s = timed(self.exact(tracer))
        scale = [REFERENCE_S / statistics.median(refs[max(0, i - 1):i + 3])
                 for i in range(len(refs) - 1)]
        return {
            "sketch_s": sketch_s,
            "estimate_s": estimate_s,
            "exact_s": exact_s,
            "wall_s": sketch_s + sum(estimate_s) + exact_s,
            "refs": refs,
            "scale": scale,
        }

    def abs_rel_error(self) -> float:
        """|estimate - exact| / max(exact, 1); a run with no estimate counts as 0."""
        exact = self.truth["join_size"]
        return abs((self.estimate_value or 0.0) - exact) / max(exact, 1)


def end_to_end(session: Session, seconds: float) -> dict:
    start = time.perf_counter()
    session.round()
    # Peak over the warm-up round: later rounds add allocator growth that
    # depends on timing, not on the work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = []
    while time.perf_counter() - start < seconds or (
        sum(len(r["estimate_s"]) for r in rounds) < MIN_ESTIMATES
    ):
        rounds.append(session.round(reference=True))
    rows = sum(session.truth["rows"])

    def figures(scaled: bool) -> dict:
        # The host's speed moves in phases of a few seconds, so each command
        # is scaled by the reference passes timed closest to it.
        def s(r, i):
            return r["scale"][i] if scaled else 1.0

        est_ms = [1000.0 * t * s(r, 1 + i) for r in rounds for i, t in enumerate(r["estimate_s"])]
        return {
            "sketch_rows_per_s": statistics.median(rows / (r["sketch_s"] * s(r, 0)) for r in rounds),
            "estimate_ms_p50": statistics.median(est_ms),
            "estimate_ms_p90": statistics.quantiles(est_ms, n=10)[8],
            "exact_s": statistics.median(r["exact_s"] * s(r, -1) for r in rounds),
        }

    return {
        **figures(scaled=True),
        **{f"raw.{name}": value for name, value in figures(scaled=False).items()},
        "peak_rss_mb": peak_rss_mb,
        "reference_s": statistics.median(t for r in rounds for t in r["refs"]),
        "rounds": len(rounds),
        "estimate_samples": sum(len(r["estimate_s"]) for r in rounds),
        "measured_s": time.perf_counter() - start,
    }


class LayerProbe:
    """Wraps joinsketch's layer functions on a tracer and counts their work."""

    def __init__(self, tracer: Tracer):
        import joinsketch.bench as bench
        import joinsketch.cli as cli
        import joinsketch.estimator as estimator
        import joinsketch.ingest as ingest
        import joinsketch.sketch as sketch

        self.tracer = tracer
        self.counts = dict.fromkeys(
            ("rows_filtered", "items_hashed", "tuples", "touched_cells", "sketchfile_bytes",
             "fft_points", "distinct_keys", "ams_touched_cells", "ams_distinct_tuples"),
            0,
        )
        self.readers = []
        self.hashed: dict[int, np.ndarray] = {}  # id -> array, kept alive until counted
        self.hash_calls: list[int] = []
        t = tracer

        def count(key, amount):
            self.counts[key] += amount

        def read_stream(original, timed):
            def traced(*args):
                reader = original(*args)
                self.readers.append(reader)
                return t.timed_iter("ingest.rows", reader) if timed else reader
            return traced

        t.patch(ingest, "read_stream", read_stream(ingest.read_stream, timed=False))
        t.patch(cli, "read_stream", read_stream(cli.read_stream, timed=True))
        t.wrap(cli, "read_all_columns", "ingest.read")
        t.wrap(ingest, "canonicalize", "ingest.canonicalize", folded=True)
        t.wrap(ingest, "apply_filters", "ingest.filter", folded=True,
               observe=lambda ok, *a: ok or count("rows_filtered", 1))

        def hashed(_, h, xs):
            self.counts["items_hashed"] += len(xs)
            self.hashed[id(xs)] = xs
            self.hash_calls.append(id(xs))

        t.wrap(sketch, "bin_eval_vec", "hashing.eval", observe=hashed)
        t.wrap(sketch, "sign_eval_vec", "hashing.eval", observe=hashed)
        t.wrap(bench, "derive_hash_set", "hashing.derive")
        t.wrap(cli, "derive_hash_set", "hashing.derive")

        t.wrap(bench, "bulk_update", "sketch.bulk_update",
               observe=lambda _, sk, cols, deltas: count("tuples", len(deltas)))

        def built(sketches, graph, config, columns):
            for sk in sketches:
                if config.method == "ams":
                    count("ams_touched_cells", sk.touched_cells)
                    count("ams_distinct_tuples", sk.touched_cells // (config.l * config.m))
                else:
                    count("touched_cells", sk.touched_cells)

        t.wrap(cli, "build_sketches", None, observe=built)
        t.wrap(bench, "ams_bulk_update", "ams.update")
        t.wrap(cli, "ams_estimate", "ams.estimate")

        def file_bytes(_, path, *rest):
            count("sketchfile_bytes", os.path.getsize(path))

        t.wrap(cli, "save_sketch_file", "sketchfile.save", observe=file_bytes)
        t.wrap(cli, "load_sketch_file", "sketchfile.load", observe=file_bytes)

        t.wrap(cli, "estimate", "estimator.combine")
        t.wrap(estimator, "circ_cross_correlate", "estimator.xcorr",
               observe=lambda _, x, y: count("fft_points", len(x)))

        t.wrap(cli, "load_query", "joingraph.parse")
        t.wrap(cli, "build_join_graph", "joingraph.parse")
        t.wrap(cli, "traversal_plan", "joingraph.plan")

        t.wrap(cli, "materialize", "oracle.materialize",
               observe=lambda freq, *a: count("distinct_keys", len(freq)))
        t.wrap(cli, "exact_cardinality", "oracle.join")

    def metrics(self) -> dict:
        totals = self.tracer.totals()  # zeros for names never called

        def total(name):
            return totals[name]["total_s"]

        def own(name):
            return totals[name]["self_s"]

        def calls(name):
            return totals[name]["calls"]

        c = self.counts
        rows_read = sum(r.rows_read for r in self.readers)
        rows_emitted = sum(r.rows_emitted for r in self.readers)
        distinct = {key: int(np.unique(xs).size) for key, xs in self.hashed.items()}
        distinct_items = sum(distinct[key] for key in self.hash_calls)
        return {
            "ingest.self_s": own("ingest.read") + own("ingest.rows"),
            "ingest.rows_read": rows_read,
            "ingest.rows_emitted": rows_emitted,
            "ingest.rows_filtered": c["rows_filtered"],
            "ingest.rows_null": rows_read - rows_emitted - c["rows_filtered"],
            "ingest.canonicalize_calls": calls("ingest.canonicalize"),
            "ingest.canonicalize_s": total("ingest.canonicalize"),
            "ingest.filter_s": total("ingest.filter"),
            "hashing.items_hashed": c["items_hashed"],
            "hashing.eval_s": total("hashing.eval"),
            "hashing.distinct_share": distinct_items / max(c["items_hashed"], 1),
            "hashing.derive_s": total("hashing.derive"),
            "sketch.scatter_s": own("sketch.bulk_update"),
            "sketch.tuples": c["tuples"],
            "sketch.touched_cells": c["touched_cells"],
            "sketchfile.save_s": total("sketchfile.save"),
            "sketchfile.load_s": total("sketchfile.load"),
            "sketchfile.bytes": c["sketchfile_bytes"],
            "estimator.combine_s": total("estimator.combine"),
            "estimator.xcorr_calls": calls("estimator.xcorr"),
            "estimator.xcorr_s": total("estimator.xcorr"),
            "estimator.fft_points": c["fft_points"],
            "joingraph.parse_s": total("joingraph.parse"),
            "joingraph.plan_s": total("joingraph.plan"),
            "oracle.materialize_s": own("oracle.materialize"),
            "oracle.distinct_keys": c["distinct_keys"],
            "oracle.join_s": total("oracle.join"),
            "ams.update_s": total("ams.update"),
            "ams.distinct_tuples": c["ams_distinct_tuples"],
            "ams.touched_cells": c["ams_touched_cells"],
            "ams.estimate_s": total("ams.estimate"),
            "cli.other_s": sum(
                entry["self_s"] for name, entry in totals.items() if name.startswith("cli.")
            ),
        }


def traced_round(session: Session) -> tuple[dict, dict]:
    tracer = Tracer()
    probe = LayerProbe(tracer)
    try:
        timings = session.round(tracer)
    finally:
        tracer.restore()
    return timings, probe.metrics()


def per_layer(session: Session, seconds: float) -> dict:
    start = time.perf_counter()
    pairs = []
    while not pairs or time.perf_counter() - start < seconds:
        plain = session.round()
        traced, layers = traced_round(session)
        pairs.append((plain["wall_s"], traced["wall_s"], layers))
    metrics = {}
    for name, value in pairs[-1][2].items():
        if name.endswith("_s"):
            value = statistics.median(p[2][name] for p in pairs)
        metrics[name] = value
    metrics["trace.overhead_share"] = statistics.median(t / u - 1.0 for u, t, _ in pairs)
    metrics["trace.pairs"] = len(pairs)
    metrics["measured_s"] = time.perf_counter() - start
    return metrics


@contextlib.contextmanager
def captured_logs():
    """Route every log record to memory; cli.main's basicConfig then adds none."""
    buf = io.StringIO()
    handler = logging.StreamHandler(buf)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield buf
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one joinsketch benchmark session")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    import joinsketch.cli as cli

    session = Session(args.workdir, args.workload, args.seed, cli)
    with captured_logs() as logs:
        if args.trace:
            metrics = per_layer(session, args.seconds)
        else:
            metrics = end_to_end(session, args.seconds)
    metrics["abs_rel_error"] = session.abs_rel_error()
    log_lines = logs.getvalue().splitlines()
    print(json.dumps({
        "metrics": metrics,
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures,
        "digest": session.digest,
        "pinned": session.pinned is not None,
        "band": session.band,
        "estimate": session.estimate_value,
        "join_size": session.truth["join_size"],
        "log_lines": len(log_lines),
        "log_warnings": sum(line.startswith("WARNING") for line in log_lines),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
