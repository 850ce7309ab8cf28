"""perfbench, the repository's benchmark, reaches into joinsketch by name.

Its LayerProbe swaps module attributes (``cli.estimate``,
``bench.bulk_update``, ``sketch.bin_eval_vec``, ...) for timing wrappers,
and its setup_probe.py derives each method's hash functions in a fresh
interpreter.  These tests fail when a name either of them uses is
deleted or renamed, or when a layer stops being called through it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from joinsketch.cli import main

from conftest import chain3_query_doc, write_chain3_workload

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


@pytest.fixture()
def probe_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from session import LayerProbe
    from tracing import Tracer

    return LayerProbe, Tracer


@pytest.mark.parametrize(
    "method, layers",
    [("conv", ("sketch.scatter_s", "estimator.combine_s", "estimator.xcorr_s")),
     ("ams", ("ams.update_s", "ams.estimate_s"))],
)
def test_layer_probe_times_each_layer_and_restores(
    tmp_path, probe_modules, method, layers
):
    import joinsketch.bench as bench
    import joinsketch.cli as cli

    LayerProbe, Tracer = probe_modules
    write_chain3_workload(tmp_path, np.random.default_rng(3))
    q = tmp_path / "q.json"
    q.write_text(json.dumps(chain3_query_doc(
        {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
    )))
    originals = (cli.estimate, cli.read_stream, bench.bulk_update, bench.ams_bulk_update)

    tracer = Tracer()
    probe = LayerProbe(tracer)
    try:
        assert main(["sketch", "--query", str(q), "--m", "64", "--reps", "3",
                     "--out", str(tmp_path / "s.jsk"), "--method", method]) == 0
        assert main(["estimate", "--query", str(q), "--sketches", str(tmp_path / "s.jsk")]) == 0
    finally:
        tracer.restore()
    assert (cli.estimate, cli.read_stream, bench.bulk_update, bench.ams_bulk_update) == originals

    metrics = probe.metrics()
    assert metrics["ingest.rows_read"] == 130
    for layer in layers:
        assert metrics[layer] > 0.0, layer


@pytest.mark.parametrize("method", ["conv", "ams"])
def test_setup_probe_runs(tmp_path, method):
    query = tmp_path / "query.json"
    query.write_text(json.dumps(chain3_query_doc()))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(query), "64", "3", "1", method],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    setup_s, reference_s = (float(v) for v in proc.stdout.split())
    assert setup_s > 0.0 and reference_s > 0.0
