"""Benchmark harness: metric formulas, sweep parsing, reproducibility,
and self-consistent summaries."""

import math

import numpy as np
import pytest

from joinsketch.bench import (
    BENCH_SCHEMA,
    abs_rel_error,
    freqs_from_columns,
    loglog_slope,
    parse_m_sweep,
    q_error,
    read_all_columns,
    run_bench,
    run_throughput,
    trial_seed,
    write_bench_csv,
)
from joinsketch.errors import QueryError
from joinsketch.oracle import materialize
from joinsketch.sketch import TupleUpdate, updates_to_columns

from conftest import multiway_graph, turnstile_stream, write_chain3_workload


class TestFreqsFromColumns:
    def test_matches_materialize_on_turnstile_stream(self):
        graph = multiway_graph()
        rng = np.random.default_rng(8)
        streams = [turnstile_stream(rng, graph, rel, n=300) for rel in range(graph.r)]
        streams[1].append(TupleUpdate(1, {1: (1 << 64) - 1, 2: 1 << 63}, 3.0))
        streams[3] = []
        columns = [updates_to_columns(s, graph, rel) for rel, s in enumerate(streams)]
        expected = [materialize(s, graph, rel) for rel, s in enumerate(streams)]
        assert all(len(f) > 0 for f in expected[:3]) and expected[3] == {}
        assert freqs_from_columns(graph, columns) == expected


class TestMetrics:
    def test_abs_rel_error_examples(self):
        assert abs_rel_error(100.0, 150.0) == 0.5
        assert abs_rel_error(0.0, 0.0) == 0.0
        assert abs_rel_error(0.0, 3.0) == 3.0

    def test_q_error_examples(self):
        assert q_error(100.0, 50.0) == 2.0
        assert q_error(42.0, 42.0) == 1.0
        assert q_error(100.0, 0.0) == math.inf

    def test_q_error_negative_estimate_is_infinite(self):
        assert q_error(10.0, -5.0) == math.inf

    def test_q_error_zero_truth_clamped(self):
        assert q_error(0.0, 2.0) == 2.0


class TestMSweep:
    def test_simple_range(self):
        assert parse_m_sweep("2^6..2^9") == [64, 128, 256, 512]

    def test_with_step(self):
        assert parse_m_sweep("2^6..2^12:2") == [64, 256, 1024, 4096]

    def test_single_point(self):
        assert parse_m_sweep("2^4..2^4") == [16]

    def test_rejects_garbage(self):
        for bad in ("64..128", "2^8", "2^9..2^6", "2^a..2^b"):
            with pytest.raises(QueryError):
                parse_m_sweep(bad)


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        s1 = trial_seed(7, "conv", 64, 0)
        assert s1 == trial_seed(7, "conv", 64, 0)
        assert s1 != trial_seed(7, "conv", 64, 1)
        assert s1 != trial_seed(7, "ams", 64, 0)
        assert s1 != trial_seed(8, "conv", 64, 0)


class TestLogLogSlope:
    def test_exact_power_law(self):
        xs = [64, 256, 1024]
        ys = [x**-0.5 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(-0.5, abs=1e-9)

    def test_zero_errors_clamped(self):
        slope = loglog_slope([2, 4], [0.0, 0.0])
        assert slope == pytest.approx(0.0, abs=1e-9)


class TestRunBench:
    def test_rows_reproducible_and_summaries_consistent(self, tmp_path):
        rng = np.random.default_rng(99)
        graph = write_chain3_workload(tmp_path, rng, sizes=(25, 30, 25))
        columns = read_all_columns(graph)
        kwargs = dict(
            m_values=[16, 64],
            trials=5,
            master_seed=11,
            methods=["conv", "ams"],
            l=3,
            columns_by_relation=columns,
        )
        rows_a, summaries_a, slopes_a = run_bench(graph, **kwargs)
        rows_b, summaries_b, slopes_b = run_bench(graph, **kwargs)

        assert [(r.method, r.m, r.trial, r.seed, r.estimate) for r in rows_a] == [
            (r.method, r.m, r.trial, r.seed, r.estimate) for r in rows_b
        ]
        assert len(rows_a) == 2 * 2 * 5
        # Sorted by method name, not by the order `methods` lists them in.
        order = [(r.method, r.m, r.trial) for r in rows_a]
        assert order == sorted(order) and order[0] == ("ams", 16, 0)
        assert summaries_a == summaries_b
        assert slopes_a == slopes_b

        # summaries recomputable from raw rows
        for s in summaries_a:
            errs = [r.abs_rel_error for r in rows_a if r.method == s.method and r.m == s.m]
            assert s.median_are == pytest.approx(float(np.median(errs)))
            assert s.p95_are == pytest.approx(float(np.percentile(errs, 95)))

    def test_rows_match_metric_formulas(self, tmp_path):
        rng = np.random.default_rng(123)
        graph = write_chain3_workload(tmp_path, rng, sizes=(20, 20, 20))
        rows, _, _ = run_bench(
            graph, m_values=[32], trials=3, master_seed=5, methods=["conv"], l=3
        )
        for r in rows:
            assert r.abs_rel_error == abs_rel_error(r.exact, r.estimate)
            assert r.q_error == q_error(r.exact, r.estimate)
            assert r.exact > 0

    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(7)
        graph = write_chain3_workload(tmp_path, rng, sizes=(15, 15, 15))
        rows, summaries, slopes = run_bench(
            graph, m_values=[16, 32], trials=2, master_seed=1, methods=["conv"], l=2
        )
        out = tmp_path / "bench.csv"
        write_bench_csv(str(out), rows, summaries, slopes)
        lines = out.read_text().splitlines()
        assert lines[0] == f"# schema={BENCH_SCHEMA}"
        assert lines[1].startswith("row_type,method,m,trial,seed")
        kinds = [line.split(",")[0] for line in lines[2:]]
        assert kinds.count("row") == 4
        assert kinds.count("summary") == 2
        assert kinds.count("slope") == 1


class TestThroughput:
    def test_zero_tuple_source(self, tmp_path):
        (tmp_path / "e0.csv").write_text("x\n")
        (tmp_path / "e1.csv").write_text("y\n")
        doc = {
            "relations": [
                {"name": "A", "source": str(tmp_path / "e0.csv"), "join_columns": ["x:int"]},
                {"name": "B", "source": str(tmp_path / "e1.csv"), "join_columns": ["y:int"]},
            ],
            "joins": [["A.x", "B.y"]],
        }
        from joinsketch.joingraph import build_join_graph, parse_query

        graph = build_join_graph(parse_query(doc))
        results = run_throughput(graph, [16], ["conv", "ams"], l=1)
        assert all(r["tuples"] == 0 for r in results)
        assert all(r["tuples_per_sec"] == 0.0 for r in results)

    def test_measures_largest_relation(self, tmp_path):
        rng = np.random.default_rng(13)
        graph = write_chain3_workload(tmp_path, rng, sizes=(10, 40, 10))
        results = run_throughput(graph, [16], ["conv"], l=2)
        assert results[0]["relation"] == "R1"
        assert results[0]["tuples"] == 40
        assert results[0]["tuples_per_sec"] > 0
