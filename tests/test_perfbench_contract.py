"""perfbench, the repository's benchmark, reaches into joinsketch by name.

Its LayerProbe swaps module attributes (``cli.estimate``,
``bench.bulk_update``, ``sketch.bin_eval_vec``, ...) for timing wrappers,
and its setup_probe.py derives each method's hash functions in a fresh
interpreter.  These tests fail when a name either of them uses is
deleted or renamed, or when a layer stops being called through it.  Its
workload generator's truth also checks `joinsketch exact` here, on
every workload, and the pinned counter digests are checked against
the grids a sketch file loads as.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from joinsketch import sketchfile
from joinsketch.cli import main
from joinsketch.joingraph import build_join_graph, load_query
from joinsketch.sketchfile import load_sketch_file, save_sketch_file

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
    [("conv", ("hashing.derive_s", "hashing.eval_s", "hashing.items_hashed",
               "sketch.scatter_s", "estimator.combine_s", "estimator.xcorr_s")),
     ("ams", ("hashing.derive_s", "ams.update_s", "ams.estimate_s"))],
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


@pytest.mark.parametrize(
    "name", ["chain3-int", "star4-wide", "chain3-str-turnstile", "chain3-ams"]
)
def test_exact_matches_every_workloads_truth(tmp_path, monkeypatch, capsys, name):
    # perfbench marks a round failed when `exact` misses the generator's
    # join size; this checks the oracle against every workload's truth
    # without running the benchmark.
    from joinsketch.ingest import read_stream
    from joinsketch.joingraph import build_join_graph, load_query
    from joinsketch.oracle import frequency_norms, materialize

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    out = tmp_path / "w"
    truth = workloads.generate(name, 3, str(out))
    query = str(out / "query.json")
    assert main(["exact", "--query", query]) == 0
    assert capsys.readouterr().out.strip() == str(truth["join_size"])
    graph = build_join_graph(load_query(query))
    norms = [frequency_norms(materialize(read_stream(graph, k), graph, k)) for k in range(graph.r)]
    assert norms == truth["f2"]


@pytest.mark.parametrize(
    "name", ["chain3-int", "star4-wide", "chain3-str-turnstile", "chain3-ams"]
)
def test_narrow_grids_digest_as_the_pinned_float64_counters(tmp_path, monkeypatch, name):
    # perfbench pins a sha256 over each grid's float64 values.  A sketch
    # file stores the grids as int16; loaded through load_sketch_file they
    # must digest as the same grids saved as float64, and as the pin.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from session import counter_digest, pinned

    w = workloads.WORKLOADS[name]
    workloads.generate(name, 0, str(tmp_path / "w"))
    query = str(tmp_path / "w" / "query.json")
    narrow, wide = str(tmp_path / "n.jsk"), str(tmp_path / "w.jsk")
    assert main(["sketch", "--query", query, "--m", str(w.m), "--reps", str(w.l),
                 "--seed", "0", "--out", narrow, "--method", w.method]) == 0
    graph = build_join_graph(load_query(query))
    config, relations = load_sketch_file(narrow, graph)
    assert {grid.dtype for _, grid in relations} == {np.dtype(np.int16)}
    with monkeypatch.context() as patched:
        patched.setattr(sketchfile, "_encode", lambda grid: (0, grid.astype("<f8")))
        save_sketch_file(wide, graph, config, relations)
    as_float64 = load_sketch_file(wide)[1]
    assert {grid.dtype for _, grid in as_float64} == {np.dtype(np.float64)}
    assert counter_digest(relations) == counter_digest(as_float64) == pinned(name, 0)["counters"]
