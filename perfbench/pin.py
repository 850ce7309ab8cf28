"""Recompute pinned.json: each workload's counter digest and estimate, per seed.

    PYTHONPATH=src python3 perfbench/pin.py

For every workload and every seed below session.PINNED_SEEDS, generate
the workload, run ``joinsketch sketch`` and ``joinsketch estimate`` once,
and record the sha256 of the float64 counter values and the estimate.
Every benchmark run compares its sketch and its estimates with the pinned
values for its workload and seed, and counts a mismatch as a failed
operation, so a change that alters any counter or moves an estimate by
more than session.ESTIMATE_RTOL shows.  Re-pin only in a change whose
purpose is to alter the counters or the estimator, and say so.  Seeds with
no pinned values are checked for repeats across calls and for estimates
inside the Chebyshev band.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import session  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def main() -> int:
    import joinsketch.cli as cli

    pins: dict[str, dict[str, dict]] = {}
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench-work", f"pin-{os.getpid()}")
    try:
        for name in sorted(WORKLOADS):
            pins[name] = {}
            for seed in range(session.PINNED_SEEDS):
                generate(name, seed, workdir)
                s = session.Session(workdir, name, seed, cli)
                s.pinned = None
                with session.captured_logs():
                    s.sketch()
                    s.estimate()
                if s.failed:
                    raise RuntimeError(f"{name} seed {seed}: {s.failures}")
                pins[name][str(seed)] = {"counters": s.digest, "estimate": s.estimate_value}
            print(f"{name}: {session.PINNED_SEEDS} seeds pinned", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(session.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
