"""joinsketch benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload chain3-int --seed 1 --seconds 10 --trace 0

Run from the repository root; joinsketch is imported from ``src`` (the
package need not be installed).  Each run uses three kinds of process,
one at a time:

1. the generator (``workloads.py``) writes the seeded CSVs, the query and
   the independently computed truth into a scratch directory;
2. with ``--trace 0``, SETUP_PROBES fresh interpreters each time the
   set-up of a ``sketch`` command and the reference work mix
   (``setup_probe.py``); ``setup_s`` is the median of the set-up times,
   each scaled by its own probe's reference time;
3. one session process (``session.py``) runs the CLI commands in-process,
   one call at a time, and checks every answer.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``, which holds the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.  The
line before it is the full report (schema REPORT_SCHEMA): every metric
with its unit, the check results, the workload's sizes and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPORT_SCHEMA = "joinsketch-perfbench-v1"
# Set-up takes about 0.15 s, and the host's speed moves in phases of a few
# seconds; 15 probes, each scaled by its own reference time, span them.
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from reference import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    """Environment of every child: src on the path, one thread, no JSK_ defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JSK_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], what: str) -> str:
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(workdir: str, w, seed: int) -> tuple[float, float, int]:
    """Set-up seconds of SETUP_PROBES fresh interpreters: the median scaled
    by each probe's own reference time, the raw median, and failures."""
    scaled, raw, failed = [], [], 0
    for _ in range(SETUP_PROBES):
        try:
            out = run_child(
                [os.path.join(HERE, "setup_probe.py"), os.path.join(workdir, "query.json"),
                 str(w.m), str(w.l), str(seed), w.method],
                "setup probe",
            )
            setup_s, ref_s = (float(v) for v in out.strip().splitlines()[-1].split())
        except (RuntimeError, ValueError, IndexError) as exc:
            print(exc, file=sys.stderr)
            failed += 1
            continue
        raw.append(setup_s)
        scaled.append(setup_s * REFERENCE_S / ref_s)
    if not raw:
        raise RuntimeError("every setup probe failed")
    return statistics.median(scaled), statistics.median(raw), failed


# Units of the report-only figures; every other unit comes from BENCHMARK.json,
# and a raw.<name> figure has the unit of <name>.
REPORT_UNITS = {"rounds": "count", "estimate_samples": "count", "trace.pairs": "count",
                "measured_s": "s", "reference_s": "s"}


def benchmark_metrics() -> dict:
    """Metric name -> unit, for --trace 0 and --trace 1, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="joinsketch benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    for needed in ("src/joinsketch/cli.py", "tests/conftest.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a joinsketch checkout",
                  file=sys.stderr)
            return 2
    all_units = benchmark_metrics()
    units = all_units[args.trace]
    report_units = {**all_units[0], **all_units[1], **REPORT_UNITS}
    w = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench-work", f"{w.name}-{args.seed}-{os.getpid()}")
    started = time.perf_counter()
    try:
        run_child(
            [os.path.join(HERE, "workloads.py"), "--workload", w.name,
             "--seed", str(args.seed), "--out", workdir],
            "generator",
        )
        setup_s, raw_setup_s, setup_failed = (
            (None, None, 0) if args.trace else measure_setup(workdir, w, args.seed)
        )
        session = json.loads(run_child(
            [os.path.join(HERE, "session.py"), "--workdir", workdir, "--workload", w.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            "session",
        ).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    metrics = session["metrics"]
    attempted = session["attempted"] + (0 if args.trace else SETUP_PROBES)
    failed = session["failed"] + setup_failed
    metrics["failed_share"] = failed / attempted
    if setup_s is not None:
        metrics["setup_s"] = setup_s
        metrics["raw.setup_s"] = raw_setup_s
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    report = {
        "schema": REPORT_SCHEMA,
        "workload": {**w.__dict__, "seed": args.seed},
        "machine": {
            "workers": 1,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": session["numpy"],
            "platform": platform.platform(),
        },
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "checks": {k: session[k] for k in (
            "attempted", "failed", "failures", "digest", "pinned", "band",
            "estimate", "join_size", "log_lines", "log_warnings")},
        "metrics": {
            name: {"value": value, "unit": report_units[name.removeprefix("raw.")]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
