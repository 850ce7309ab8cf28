"""Tests of the benchmark's own machinery: self-time arithmetic, the
generator's determinism, and failure counting."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import session  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            Span("a", 0.0, 10.0, None),
            Span("b", 1.0, 4.0, 0),
            Span("c", 2.0, 3.0, 1),
        ]
        assert self_times(spans) == [7.0, 2.0, 1.0]

    def test_overlapping_children_count_once(self):
        spans = [
            Span("a", 0.0, 10.0, None),
            Span("b", 1.0, 5.0, 0),
            Span("c", 3.0, 8.0, 0),
            Span("d", 4.0, 6.0, 0),
        ]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [Span("a", 0.0, 10.0, None), Span("b", 9.0, 12.0, 0)]
        assert self_times(spans)[0] == pytest.approx(9.0)

    def test_folded_time_is_subtracted(self):
        spans = [Span("a", 0.0, 10.0, None, folded_s=2.5), Span("b", 1.0, 2.0, 0)]
        assert self_times(spans)[0] == pytest.approx(6.5)

    def test_tracer_nests_recorded_and_folded_calls(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            return 1

        folded_leaf = tracer.folded_fn("leaf", leaf)

        def inner():
            return folded_leaf() + folded_leaf()

        def outer():
            tracer.folded_fn("row", inner)()
            return tracer.call("child", leaf)

        tracer.call("top", outer)
        totals = tracer.totals()
        # Clock ticks: top 0..9, row 1..6 (leaves 2..3 and 4..5), child 7..8
        assert totals["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
        assert totals["row"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
        assert totals["child"]["total_s"] == 1.0
        assert totals["top"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0}

    def test_wrap_restores_the_original(self):
        class Module:
            @staticmethod
            def f(x):
                return x + 1

        tracer = Tracer()
        seen = []
        original = Module.f
        tracer.wrap(Module, "f", "m.f", observe=lambda result, x: seen.append((x, result)))
        assert Module.f(1) == 2
        tracer.restore()
        assert Module.f is original
        assert seen == [(1, 2)]
        assert tracer.totals()["m.f"]["calls"] == 1


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestGenerator:
    @pytest.mark.parametrize("name", ["chain3-ams", "chain3-str-turnstile"])
    def test_same_seed_gives_identical_files(self, tmp_path, name):
        out = str(tmp_path / "w")
        workloads.generate(name, 7, out)
        first = _files(out)
        shutil.rmtree(out)
        workloads.generate(name, 7, out)
        assert _files(out) == first
        workloads.generate(name, 8, out)
        assert _files(out)["r0.csv"] != first["r0.csv"]

    def test_truth_matches_the_oracle(self, tmp_path):
        from joinsketch.ingest import read_stream
        from joinsketch.joingraph import build_join_graph, load_query
        from joinsketch.oracle import exact_cardinality, frequency_norms, materialize

        out = str(tmp_path / "w")
        truth = workloads.generate("chain3-str-turnstile", 3, out)
        graph = build_join_graph(load_query(os.path.join(out, "query.json")))
        freqs = [materialize(read_stream(graph, k), graph, k) for k in range(graph.r)]
        assert exact_cardinality(freqs, graph) == truth["join_size"]
        assert [frequency_norms(f) for f in freqs] == truth["f2"]


@pytest.fixture
def small_workload(tmp_path):
    out = str(tmp_path / "w")
    workloads.generate("chain3-ams", 0, out)
    return out


class TestChecks:
    def test_a_clean_round_passes_every_check(self, small_workload):
        import joinsketch.cli as cli

        s = session.Session(small_workload, "chain3-ams", 0, cli)
        assert s.pinned is not None
        s.round()
        assert (s.failed, s.failures) == (0, [])
        assert s.attempted == 2 + session.ESTIMATES_PER_ROUND
        assert s.digest == s.pinned["counters"]
        assert s.estimate_value == s.pinned["estimate"]

    def test_missing_source_counts_as_failed(self, small_workload, capsys):
        path = os.path.join(small_workload, "query.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["relations"][0]["source"] = os.path.join(small_workload, "missing.csv")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        session.main(["--workdir", small_workload, "--workload", "chain3-ams",
                      "--seed", "0", "--seconds", "0", "--trace", "0"])
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["attempted"] > 0
        assert result["failed"] == result["attempted"]

    def test_wrong_digest_counts_as_failed(self, small_workload):
        import joinsketch.cli as cli

        s = session.Session(small_workload, "chain3-ams", 0, cli)
        s.pinned = {**s.pinned, "counters": "0" * 64}
        s.sketch()
        assert s.failed == 1

    def test_moved_estimate_counts_as_failed(self, small_workload):
        import joinsketch.cli as cli

        s = session.Session(small_workload, "chain3-ams", 0, cli)
        s.pinned = {**s.pinned, "estimate": s.pinned["estimate"] * (1 + 1e-6)}
        s.sketch()
        s.estimate()
        assert (s.attempted, s.failed) == (2, 1)
        assert "pinned" in s.failures[0]

    def test_malformed_output_counts_as_failed(self, small_workload):
        class GarbledCli:
            @staticmethod
            def main(argv):
                print({"estimate": "{", "exact": "many"}[argv[0]])
                return 0

        s = session.Session(small_workload, "chain3-ams", 0, GarbledCli)
        s.estimate()
        s.exact()
        assert (s.attempted, s.failed) == (2, 2)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain3-ams", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
