"""End-to-end command-line behavior on a desk-scale workload."""

import json
import logging
import tracemalloc

import numpy as np
import pytest

from joinsketch import cli
from joinsketch.bench import build_sketches, read_all_columns
from joinsketch.cli import EXIT_DATA, EXIT_QUERY, EXIT_USAGE, main
from joinsketch.ingest import read_stream
from joinsketch.joingraph import build_join_graph, load_query
from joinsketch.oracle import exact_cardinality, materialize
from joinsketch.sketch import SketchConfig
from joinsketch.sketchfile import load_sketch_file, save_sketch_file

from conftest import (
    chain3_query_doc,
    multiway_query_doc,
    patch_sketch_header,
    random_graph,
    write_chain3_workload,
    zipf_values,
)


def _write_multiway_workload(tmp_path, rng, n=12, domain=5):
    sources = {}
    for name, cols in (("R0", ["a0"]), ("R1", ["a1", "a2"]), ("R2", ["a3"]), ("R3", ["a4"])):
        path = tmp_path / f"{name.lower()}.csv"
        header = ",".join(cols)
        rows = [
            ",".join(str(int(v)) for v in rng.integers(0, domain, size=len(cols)))
            for _ in range(n)
        ]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        sources[name] = str(path)
    qpath = tmp_path / "query.json"
    qpath.write_text(json.dumps(multiway_query_doc(sources)))
    return str(qpath)


def _write_random_workload(tmp_path, rng, n=40):
    """Sources and a query document for a `random_graph` query, in a new
    directory; every row has a turnstile `__delta`, some of them negative."""
    spec = random_graph(rng).spec
    tmp_path.mkdir()
    relations = []
    for decl in spec.relations:
        path = tmp_path / f"{decl.name}.csv"
        cols = [zipf_values(rng, n, 8, 1.2) for _ in decl.join_columns]
        deltas = rng.choice([-2, -1, 1, 1, 2, 3], size=n)
        rows = [",".join(str(int(v)) for v in row) for row in zip(*cols, deltas)]
        path.write_text(",".join([*decl.join_columns, "__delta"]) + "\n" + "\n".join(rows) + "\n")
        relations.append({"name": decl.name, "source": str(path),
                          "join_columns": [f"{c}:int" for c in decl.join_columns]})
    joins = [[f"{spec.relations[a].name}.{ca}", f"{spec.relations[b].name}.{cb}"]
             for (a, ca), (b, cb) in spec.joins]
    query = tmp_path / "q.json"
    query.write_text(json.dumps({"relations": relations, "joins": joins}))
    return str(query)


@pytest.fixture()
def multiway_env(tmp_path):
    rng = np.random.default_rng(2024)
    return tmp_path, _write_multiway_workload(tmp_path, rng)


def spy_on_source_reads(monkeypatch) -> list[int]:
    """The relations whose sources are opened from now on."""
    import joinsketch.ingest as ingest

    opened = []
    original = ingest.read_stream

    def spy(graph, relation, path=None):
        opened.append(relation)
        return original(graph, relation, path)

    monkeypatch.setattr(ingest, "read_stream", spy)
    return opened


class TestParser:
    def test_parser_is_built_once_per_process(self, multiway_env, monkeypatch, capsys):
        # Building the five subparsers costs far more than parsing, and a
        # process may run many commands; a usage error must not spoil the
        # kept parser for the calls after it.
        tmp_path, query = multiway_env
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if self.prog == "joinsketch":
                    built.append(self)

        monkeypatch.setattr(cli, "_Parser", Counted)
        cli.build_parser.cache_clear()
        out = str(tmp_path / "s.jsk")
        try:
            assert main(["sketch", "--query", query, "--m", "8", "--seed", "4", "--out", out]) == 0
            with pytest.raises(SystemExit) as exc:
                main(["sketch", "--query", query])
            assert exc.value.code == EXIT_USAGE
            capsys.readouterr()
            assert main(["estimate", "--query", query, "--sketches", out]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert main(["exact", "--query", query, "--path", "nested"]) == 0
            assert cli.build_parser() is built[0]
        finally:
            cli.build_parser.cache_clear()
        assert len(built) == 1
        assert (payload["m"], payload["l"], payload["seed"]) == (8, 5, 4)
        assert capsys.readouterr().out.strip().isdigit()


class TestSketchCommand:
    def test_writes_expected_shapes(self, multiway_env):
        tmp_path, query = multiway_env
        out = str(tmp_path / "s.jsk")
        code = main(
            ["sketch", "--query", query, "--m", "8", "--reps", "5", "--seed", "3", "--out", out]
        )
        assert code == 0
        config, relations = load_sketch_file(out)
        assert config.m == 8 and config.l == 5 and config.seed == 3
        assert [name for name, _ in relations] == ["R0", "R1", "R2", "R3"]
        assert all(grid.shape == (5, 8) for _, grid in relations)

    def test_byte_identical_reruns(self, multiway_env):
        tmp_path, query = multiway_env
        a = str(tmp_path / "a.jsk")
        b = str(tmp_path / "b.jsk")
        flags = ["--query", query, "--m", "16", "--reps", "3", "--seed", "9"]
        assert main(["sketch", *flags, "--out", a]) == 0
        assert main(["sketch", *flags, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("method", ["conv", "ams"])
    @pytest.mark.parametrize("m", [24, 64])
    @pytest.mark.parametrize("l", [1, 5])
    def test_file_equals_the_saved_build_sketches_grids(self, tmp_path, method, m, l):
        # conv `sketch` builds and writes one relation at a time through
        # one grid, ams `sketch` builds all first; either file must be the
        # one written from build_sketches' grids.
        rng = np.random.default_rng([m, l, method == "ams"])
        for case in range(3):
            query = _write_random_workload(tmp_path / f"w{case}", rng)
            seed = int(rng.integers(0, 2**62))
            out = tmp_path / f"{case}.jsk"
            assert main(["sketch", "--query", query, "--m", str(m), "--reps", str(l),
                         "--seed", str(seed), "--method", method, "--out", str(out)]) == 0
            graph = build_join_graph(load_query(query))
            config = SketchConfig(m=m, l=l, seed=seed, method=method)
            sketches = build_sketches(graph, config, read_all_columns(graph))
            expected = tmp_path / f"{case}-expected.jsk"
            save_sketch_file(str(expected), graph, config, [
                (decl.name, sk.counters) for decl, sk in zip(graph.spec.relations, sketches)
            ])
            assert out.read_bytes() == expected.read_bytes()

    def test_conv_sketch_holds_one_grid(self, tmp_path):
        # A conv `sketch` of the 4-relation star holds one l x m grid, so
        # raising m from 2^6 to 2^16 adds less than two grids to its traced
        # peak; one grid per relation would add four.
        query = _write_multiway_workload(tmp_path, np.random.default_rng(5), n=2000, domain=500)
        l = 5

        def peak_bytes(m):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(["sketch", "--query", query, "--m", str(m), "--reps", str(l),
                             "--out", str(tmp_path / f"{m}.jsk")]) == 0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak_bytes(2**6)  # imports and caches
        small, large = peak_bytes(2**6), peak_bytes(2**16)
        assert large - small < 2 * l * 2**16 * 8, (small, large)

    def test_environment_supplies_no_flag(self, multiway_env, monkeypatch, capsys):
        # JSK_METHOD is outside --method's choices and JSK_PATH=fft is not
        # an oracle path: neither may reach a command.
        tmp_path, query = multiway_env
        env = {"JSK_M": "4", "JSK_REPS": "2", "JSK_METHOD": "foo", "JSK_PATH": "fft"}
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        out = str(tmp_path / "env.jsk")
        assert main(["sketch", "--query", query, "--m", "8", "--seed", "1", "--out", out]) == 0
        config, _ = load_sketch_file(out)
        assert (config.m, config.l, config.method) == (8, 5, "conv")

        graph = build_join_graph(load_query(query))
        freqs = [materialize(read_stream(graph, rel), graph, rel) for rel in range(graph.r)]
        assert main(["exact", "--query", query]) == 0
        expected = exact_cardinality(freqs, graph)
        assert capsys.readouterr().out.strip() == str(int(expected))

    @pytest.mark.parametrize("env", [{}, {"JSK_M": "4"}], ids=["plain", "jsk-m-set"])
    def test_missing_required_flag_is_usage_error(self, multiway_env, monkeypatch, capsys, env):
        _, query = multiway_env
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        with pytest.raises(SystemExit) as exc:
            main(["sketch", "--query", query])
        assert exc.value.code == EXIT_USAGE
        usage = capsys.readouterr().err
        assert " --m M " in usage and "[--m M]" not in usage

    def test_bad_query_document_exit_code(self, tmp_path):
        q = tmp_path / "bad.json"
        q.write_text('{"relations": [], "joins": []}')
        code = main(["sketch", "--query", str(q), "--m", "4", "--out", str(tmp_path / "x.jsk")])
        assert code == EXIT_QUERY

    def test_missing_data_file_exit_code(self, tmp_path):
        doc = multiway_query_doc({"R0": str(tmp_path / "missing.csv")})
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        code = main(["sketch", "--query", str(q), "--m", "4", "--out", str(tmp_path / "x.jsk")])
        assert code == EXIT_DATA

    def test_unwritable_out_is_data_error(self, multiway_env, caplog, monkeypatch):
        tmp_path, query = multiway_env
        out = tmp_path / "missing" / "x.jsk"
        opened = spy_on_source_reads(monkeypatch)
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            code = main(["sketch", "--query", query, "--m", "4", "--out", str(out)])
        assert code == EXIT_DATA
        assert f"cannot write sketch file {str(out)!r}" in caplog.text
        assert not (tmp_path / "missing").exists()
        assert opened == []  # found before the first source was read

    def test_failed_sketch_keeps_the_old_out(self, multiway_env, caplog):
        # A source fails after the temporary file was made: the old file
        # stays whole and the temporary file goes.
        tmp_path, query = multiway_env
        out = tmp_path / "x.jsk"
        assert main(["sketch", "--query", query, "--m", "4", "--out", str(out)]) == 0
        before = out.read_bytes()
        (tmp_path / "r2.csv").write_text("a3\nnot-an-int\n")
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            code = main(["sketch", "--query", query, "--m", "8", "--out", str(out)])
        assert code == EXIT_DATA
        assert out.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_rename_leaves_no_temporary_file(self, multiway_env, caplog):
        # --out names a directory: the open and the writes succeed, the rename fails.
        tmp_path, query = multiway_env
        out = tmp_path / "taken"
        out.mkdir()
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            code = main(["sketch", "--query", query, "--m", "4", "--out", str(out)])
        assert code == EXIT_DATA
        assert f"cannot write sketch file {str(out)!r}" in caplog.text
        assert not list(tmp_path.glob("*.tmp"))

    def test_slow_throughput_warning(self, tmp_path, caplog):
        # A dense AMS sketch with a big m over a few thousand tuples drops
        # well under the warning rate.
        rng = np.random.default_rng(1)
        graph_tmp = tmp_path
        n = 1500
        (graph_tmp / "a.csv").write_text(
            "x\n" + "\n".join(str(int(v)) for v in rng.integers(0, 1 << 40, size=n)) + "\n"
        )
        (graph_tmp / "b.csv").write_text("y\n1\n")
        doc = {
            "relations": [
                {"name": "A", "source": str(graph_tmp / "a.csv"), "join_columns": ["x:int"]},
                {"name": "B", "source": str(graph_tmp / "b.csv"), "join_columns": ["y:int"]},
            ],
            "joins": [["A.x", "B.y"]],
        }
        q = graph_tmp / "q.json"
        q.write_text(json.dumps(doc))
        out = str(graph_tmp / "slow.jsk")
        with caplog.at_level(logging.WARNING, logger="joinsketch"):
            code = main(
                ["sketch", "--query", str(q), "--m", str(2**14), "--reps", "2",
                 "--method", "ams", "--out", out]
            )
        assert code == 0
        assert any("low sketch throughput" in rec.message for rec in caplog.records)


class TestEstimateCommand:
    @pytest.mark.parametrize("m", [1, 7, 8])
    def test_fft_and_naive_paths_agree(self, multiway_env, capsys, m):
        tmp_path, query = multiway_env
        out = str(tmp_path / "s.jsk")
        main(["sketch", "--query", query, "--m", str(m), "--reps", "5", "--seed", "3", "--out", out])

        assert main(["estimate", "--sketches", out, "--query", query, "--path", "fft"]) == 0
        fft = json.loads(capsys.readouterr().out)
        assert main(["estimate", "--sketches", out, "--query", query, "--path", "naive"]) == 0
        naive = json.loads(capsys.readouterr().out)
        assert fft["median"] == pytest.approx(naive["median"], rel=1e-9, abs=1e-9)
        assert len(fft["estimates"]) == 5

    def test_zero_sketches_zero_median(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        # empty CSVs -> all-zero sketches
        for name in ("r0", "r1", "r2", "r3"):
            cols = {"r0": "a0", "r1": "a1,a2", "r2": "a3", "r3": "a4"}[name]
            (tmp_path / f"{name}.csv").write_text(cols + "\n")
        query = tmp_path / "q.json"
        query.write_text(
            json.dumps(
                multiway_query_doc({f"R{i}": str(tmp_path / f"r{i}.csv") for i in range(4)})
            )
        )
        out = str(tmp_path / "z.jsk")
        main(["sketch", "--query", str(query), "--m", "8", "--out", out])
        assert main(["estimate", "--sketches", out, "--query", str(query)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["median"] == 0.0

    @pytest.mark.parametrize(
        "field,value", [("m", 0), ("l", 0), ("m", 2**40), ("name0", 0xFF)]
    )
    def test_corrupt_header_is_data_error(self, multiway_env, field, value):
        tmp_path, query = multiway_env
        out = str(tmp_path / "s.jsk")
        main(["sketch", "--query", query, "--m", "8", "--out", out])
        patch_sketch_header(out, field, value)
        assert main(["estimate", "--sketches", out, "--query", query]) == EXIT_DATA

    def test_ams_file_with_conv_path_is_error(self, multiway_env):
        tmp_path, query = multiway_env
        out = str(tmp_path / "a.jsk")
        main(["sketch", "--query", query, "--m", "8", "--method", "ams", "--out", out])
        code = main(["estimate", "--sketches", out, "--query", query, "--path", "fft"])
        assert code == EXIT_QUERY

    def test_ams_file_auto_path(self, multiway_env, capsys):
        tmp_path, query = multiway_env
        out = str(tmp_path / "a.jsk")
        main(["sketch", "--query", query, "--m", "8", "--method", "ams", "--out", out])
        assert main(["estimate", "--sketches", out, "--query", query]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "ams"

    def test_mismatched_query_is_error(self, multiway_env, tmp_path):
        wd, query = multiway_env
        out = str(wd / "s.jsk")
        main(["sketch", "--query", query, "--m", "8", "--out", out])
        rng = np.random.default_rng(5)
        other = write_chain3_workload(tmp_path, rng, sizes=(5, 5, 5))
        other_q = tmp_path / "other.json"
        doc = {
            "relations": [
                {
                    "name": decl.name,
                    "source": decl.source,
                    "join_columns": [f"{c}:int" for c in decl.join_columns],
                }
                for decl in other.spec.relations
            ],
            "joins": [["R0.x", "R1.y"], ["R1.z", "R2.w"]],
        }
        other_q.write_text(json.dumps(doc))
        code = main(["estimate", "--sketches", out, "--query", str(other_q)])
        assert code == EXIT_QUERY

    @pytest.mark.parametrize("method", ["conv", "ams"])
    @pytest.mark.parametrize("mutation", ["joins-swapped", "filter-added", "type-changed"])
    def test_a_file_under_another_query_is_query_error(self, tmp_path, caplog, method, mutation):
        # A file sketched for R0.x=R1.y, R1.z=R2.w (m=256, l=5, seed 1,
        # 200-row relations over 0-9) answers that query only.  Without
        # the binding each mutated query printed the original's median.
        rng = np.random.default_rng(11)
        for name, cols in (("r0", "x"), ("r1", "y,z"), ("r2", "w")):
            rows = rng.integers(0, 10, size=(200, len(cols.split(","))))
            (tmp_path / f"{name}.csv").write_text(
                cols + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)
            )
        doc = chain3_query_doc({f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)})
        query, other = tmp_path / "q.json", tmp_path / "other.json"
        query.write_text(json.dumps(doc))
        if mutation == "joins-swapped":
            doc["joins"] = [["R0.x", "R1.z"], ["R1.y", "R2.w"]]
        elif mutation == "filter-added":
            doc["relations"][0]["filters"] = [{"column": "x", "op": "<", "value": 5}]
        else:
            doc["relations"][0]["join_columns"] = ["x:str"]
            doc["relations"][1]["join_columns"] = ["y:str", "z:int"]
        other.write_text(json.dumps(doc))
        out = str(tmp_path / "s.jsk")
        assert main(["sketch", "--query", str(query), "--m", "256", "--reps", "5", "--seed", "1",
                     "--method", method, "--out", out]) == 0
        assert main(["estimate", "--sketches", out, "--query", str(query)]) == 0
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert main(["estimate", "--sketches", out, "--query", str(other)]) == EXIT_QUERY
        assert "was sketched for another query" in caplog.text

    def test_moved_sources_keep_their_sketch_file(self, multiway_env, tmp_path, capsys):
        wd, query = multiway_env
        out = str(wd / "s.jsk")
        assert main(["sketch", "--query", query, "--m", "8", "--out", out]) == 0
        assert main(["estimate", "--sketches", out, "--query", query]) == 0
        here = json.loads(capsys.readouterr().out)
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(multiway_query_doc(
            {f"R{k}": f"/nowhere/r{k}.csv" for k in range(4)}
        )))
        assert main(["estimate", "--sketches", out, "--query", str(moved)]) == 0
        there = json.loads(capsys.readouterr().out)
        del here["infer_ms"], there["infer_ms"]
        assert here == there


class TestExactCommand:
    def test_single_join_toy(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("x\n1\n1\n2\n")
        (tmp_path / "b.csv").write_text("y\n1\n2\n2\n")
        doc = {
            "relations": [
                {"name": "A", "source": str(tmp_path / "a.csv"), "join_columns": ["x:int"]},
                {"name": "B", "source": str(tmp_path / "b.csv"), "join_columns": ["y:int"]},
            ],
            "joins": [["A.x", "B.y"]],
        }
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        assert main(["exact", "--query", str(q)]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_empty_relation(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("x\n")
        (tmp_path / "b.csv").write_text("y\n1\n")
        doc = {
            "relations": [
                {"name": "A", "source": str(tmp_path / "a.csv"), "join_columns": ["x:int"]},
                {"name": "B", "source": str(tmp_path / "b.csv"), "join_columns": ["y:int"]},
            ],
            "joins": [["A.x", "B.y"]],
        }
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        assert main(["exact", "--query", str(q)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_multiway_all_ones(self, tmp_path, capsys):
        (tmp_path / "r0.csv").write_text("a0\n1\n")
        (tmp_path / "r1.csv").write_text("a1,a2\n1,1\n")
        (tmp_path / "r2.csv").write_text("a3\n1\n")
        (tmp_path / "r3.csv").write_text("a4\n1\n")
        q = tmp_path / "q.json"
        q.write_text(
            json.dumps(multiway_query_doc({f"R{i}": str(tmp_path / f"r{i}.csv") for i in range(4)}))
        )
        assert main(["exact", "--query", str(q)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("path", ["auto", "nested"])
    def test_string_keys_filters_nulls_and_deletions(self, tmp_path, capsys, path):
        # A str chain with a status filter, NULL join cells and __delta
        # deletions, against the per-tuple fold of read_stream.
        rng = np.random.default_rng(41)
        words = ["ant", "bee", "cat", "dog", "", "eel"]
        statuses = ["on", "on", "off", ""]

        def rows(n, width):
            out = []
            for _ in range(n):
                keys = [words[int(rng.integers(len(words)))] for _ in range(width)]
                status = statuses[int(rng.integers(len(statuses)))]
                delta = "-1" if rng.random() < 0.4 else "1"
                out.append(",".join([*keys, status, delta]))
            return "\n".join(out) + "\n"

        sources = {}
        for name, cols in (("R0", ["x"]), ("R1", ["y", "z"]), ("R2", ["w"])):
            src = tmp_path / f"{name.lower()}.csv"
            src.write_text(",".join([*cols, "status", "__delta"]) + "\n" + rows(60, len(cols)))
            sources[name] = str(src)
        doc = chain3_query_doc(sources)
        for rel in doc["relations"]:
            rel["join_columns"] = [col.replace(":int", "") for col in rel["join_columns"]]
            rel["filters"] = [{"column": "status", "op": "!=", "value": "off"}]
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))

        graph = build_join_graph(load_query(str(q)))
        readers = [read_stream(graph, rel) for rel in range(graph.r)]
        freqs = [materialize(reader, graph, rel) for rel, reader in enumerate(readers)]
        expected = exact_cardinality(freqs, graph, path="nested")
        assert all(r.rows_emitted < r.rows_read for r in readers)
        assert expected != 0 and any((sums < 0).any() for _, sums in freqs)
        assert main(["exact", "--query", str(q), "--path", path]) == 0
        assert capsys.readouterr().out.strip() == str(int(expected))

    @staticmethod
    def _spy_grouping(monkeypatch):
        """The attribute tuples of every `group_tuples` call the oracle makes."""
        from joinsketch import oracle

        calls = []

        def spy(columns, attrs, deltas, group_tuples=oracle.group_tuples):
            calls.append(attrs)
            return group_tuples(columns, attrs, deltas)

        monkeypatch.setattr(oracle, "group_tuples", spy)
        return calls

    def test_exact_joins_dense_rows_without_grouping(self, tmp_path, monkeypatch, capsys):
        # On dense int keys the hash join totals every node with one
        # `np.bincount` over the entry column's span and groups nothing;
        # the nested reference still groups each relation once.
        graph = write_chain3_workload(tmp_path, np.random.default_rng(61))
        q = tmp_path / "q.json"
        sources = {name: str(tmp_path / f"{name.lower()}.csv") for name in ("R0", "R1", "R2")}
        q.write_text(json.dumps(chain3_query_doc(sources)))
        freqs = [materialize(read_stream(graph, rel), graph, rel) for rel in range(graph.r)]
        calls = self._spy_grouping(monkeypatch)
        expected = exact_cardinality(freqs, graph)
        assert calls == []
        assert main(["exact", "--query", str(q)]) == 0
        assert calls == []
        assert expected != 0 and capsys.readouterr().out.strip() == str(int(expected))
        assert main(["exact", "--query", str(q), "--path", "nested"]) == 0
        assert calls == list(graph.omega)
        assert capsys.readouterr().out.strip() == str(int(expected))

    def test_exact_reads_each_source_once_below_the_root_first(self, tmp_path, monkeypatch, capsys):
        graph = write_chain3_workload(tmp_path, np.random.default_rng(63))
        q = tmp_path / "q.json"
        sources = {name: str(tmp_path / f"{name.lower()}.csv") for name in ("R0", "R1", "R2")}
        q.write_text(json.dumps(chain3_query_doc(sources)))
        expected = exact_cardinality(read_all_columns(graph), graph)
        read = []

        def spy(graph, relation, read_columns=cli.read_columns):
            read.append(relation)
            return read_columns(graph, relation)

        monkeypatch.setattr(cli, "read_columns", spy)
        assert main(["exact", "--query", str(q)]) == 0
        assert read == [2, 1, 0]  # the chain's plan enters R0, then R1, then R2
        assert capsys.readouterr().out.strip() == str(int(expected))

    def test_exact_groups_single_columns_on_sparse_keys(self, tmp_path, monkeypatch, capsys):
        # str keys hash to sparse uint64 values: each node totals per
        # entry value with `group_tuples` on that one column, and no call
        # groups tuples over more than one attribute.
        write_chain3_workload(tmp_path, np.random.default_rng(62))
        doc = chain3_query_doc(
            {name: str(tmp_path / f"{name.lower()}.csv") for name in ("R0", "R1", "R2")}
        )
        for rel in doc["relations"]:
            rel["join_columns"] = [col.replace(":int", "") for col in rel["join_columns"]]
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        graph = build_join_graph(load_query(str(q)))
        freqs = [materialize(read_stream(graph, rel), graph, rel) for rel in range(graph.r)]
        expected = exact_cardinality(freqs, graph, path="nested")
        calls = self._spy_grouping(monkeypatch)
        assert main(["exact", "--query", str(q)]) == 0
        assert len(calls) == graph.r and all(len(attrs) == 1 for attrs in calls)
        assert expected != 0 and capsys.readouterr().out.strip() == str(int(expected))

    @pytest.mark.parametrize("path", ["auto", "nested"])
    def test_count_past_2_53_is_data_error(self, tmp_path, capsys, caplog, path):
        # (2^27 + 1)^2 = 2^54 + 2^28 + 1 has no float64; `exact` exits 3
        # rather than print a rounded count.
        for name in ("a", "b"):
            (tmp_path / f"{name}.csv").write_text(f"k,__delta\n1,{2**27 + 1}\n")
        doc = {
            "relations": [
                {"name": "A", "source": str(tmp_path / "a.csv"), "join_columns": ["k:int"]},
                {"name": "B", "source": str(tmp_path / "b.csv"), "join_columns": ["k:int"]},
            ],
            "joins": [["A.k", "B.k"]],
        }
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert main(["exact", "--query", str(q), "--path", path]) == EXIT_DATA
        assert capsys.readouterr().out == ""
        assert "2^53" in caplog.text

    def test_hash_path_is_usage_error(self, tmp_path):
        # The hash join is `--path auto`; it has no second name.
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--query", str(tmp_path / "q.json"), "--path", "hash"])
        assert exc.value.code == EXIT_USAGE

    def test_three_join_columns_auto_matches_nested(self, tmp_path, capsys):
        # A relation joined on three columns folds three per-column codes
        # (two re-rankings); no benchmark workload has one.
        rng = np.random.default_rng(53)
        layout = {"A": ["x"], "B": ["p", "q", "s"], "C": ["y"], "D": ["z"]}
        sources = {}
        for name, cols in layout.items():
            src = tmp_path / f"{name.lower()}.csv"
            rows = [
                ",".join([*(str(int(v)) for v in rng.integers(0, 4, size=len(cols))),
                          str(int(rng.choice([-1, 1, 2])))])
                for _ in range(40)
            ]
            src.write_text(",".join([*cols, "__delta"]) + "\n" + "\n".join(rows) + "\n")
            sources[name] = str(src)
        doc = {
            "relations": [
                {"name": name, "source": sources[name],
                 "join_columns": [f"{c}:int" for c in cols]}
                for name, cols in layout.items()
            ],
            "joins": [["A.x", "B.p"], ["B.q", "C.y"], ["B.s", "D.z"]],
        }
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        printed = []
        for path in ("auto", "nested"):
            assert main(["exact", "--query", str(q), "--path", path]) == 0
            printed.append(capsys.readouterr().out.strip())
        assert printed[0] == printed[1]
        assert printed[0] != "0"


class TestBadSourceData:
    """Source data that no command may read silently exits 3 from both commands."""

    def _query(self, tmp_path, a_text, b_text="y\n5\n"):
        (tmp_path / "a.csv").write_bytes(a_text if isinstance(a_text, bytes) else a_text.encode())
        (tmp_path / "b.csv").write_text(b_text)
        doc = {
            "relations": [
                {"name": "A", "source": str(tmp_path / "a.csv"), "join_columns": ["x:int"]},
                {"name": "B", "source": str(tmp_path / "b.csv"), "join_columns": ["y:int"]},
            ],
            "joins": [["A.x", "B.y"]],
        }
        q = tmp_path / "q.json"
        q.write_text(json.dumps(doc))
        return str(q)

    def _run(self, command, query, tmp_path):
        extra = ["--m", "8", "--out", str(tmp_path / "s.jsk")] if command == "sketch" else []
        return main([command, "--query", query, *extra])

    @pytest.mark.parametrize("command", ["exact", "sketch"])
    @pytest.mark.parametrize(
        "text",
        [b"x,name\n5,ok\n5,b\xffd\n", b'x,name\r\n5,"ok"\r\n5,b\xffd\r\n'],
        ids=["plain", "csv"],
    )
    def test_non_utf8_source(self, tmp_path, caplog, command, text):
        query = self._query(tmp_path, text)
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert self._run(command, query, tmp_path) == EXIT_DATA
        assert f"{tmp_path / 'a.csv'}: not UTF-8 text" in caplog.text

    @pytest.mark.parametrize("command", ["exact", "sketch"])
    def test_cell_over_the_csv_field_limit(self, tmp_path, caplog, command):
        query = self._query(tmp_path, 'x,name\n5,"' + "a" * 200_000 + '"\n')
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert self._run(command, query, tmp_path) == EXIT_DATA
        assert f"{tmp_path / 'a.csv'}: field larger than field limit" in caplog.text

    @pytest.mark.parametrize("command", ["exact", "sketch"])
    def test_unquoted_cell_over_the_csv_field_limit(self, tmp_path, caplog, command):
        # The plain tokenizer used to read this cell, which csv.reader rejects.
        query = self._query(tmp_path, "x,name\n5," + "a" * 200_000 + "\n")
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert self._run(command, query, tmp_path) == EXIT_DATA
        assert f"{tmp_path / 'a.csv'}: field larger than field limit (131072)" in caplog.text

    @pytest.mark.parametrize("command", ["exact", "sketch"])
    def test_delta_sum_reaching_2_to_the_53(self, tmp_path, caplog, command):
        # The true join size is 1; float64 arithmetic made it 0.
        query = self._query(tmp_path, "x,__delta\n5,9007199254740993\n5,-9007199254740992\n")
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert self._run(command, query, tmp_path) == EXIT_DATA
        assert "sum to 2^53 or more" in caplog.text

    @pytest.mark.parametrize("command", ["exact", "sketch"])
    def test_delta_sum_past_int64_in_one_plain_block(self, tmp_path, caplog, command):
        # Twelve 18-digit deltas sum past 2^63: an int64 sum would wrap below 2^53.
        query = self._query(tmp_path, "x,__delta\n" + "5,999999999999999999\n" * 12)
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert self._run(command, query, tmp_path) == EXIT_DATA
        assert (
            f"{tmp_path / 'a.csv'}: |__delta| values sum to 2^53 or more in the first 12 "
            "data rows; counters are exact only below that"
        ) in caplog.text

    @pytest.mark.parametrize("deltas, code", [((2**52, 1 - 2**52), 0), ((2**52, -(2**52)), 3)])
    def test_delta_sum_bound_is_2_to_the_53(self, tmp_path, capsys, deltas, code):
        rows = "".join(f"5,{d}\n" for d in deltas)
        query = self._query(tmp_path, "x,__delta\n" + rows)
        assert main(["exact", "--query", query]) == code
        if code == 0:
            assert capsys.readouterr().out.strip() == "1"


class TestBenchCommand:
    def test_writes_schema_versioned_csv(self, tmp_path):
        rng = np.random.default_rng(31)
        graph = write_chain3_workload(tmp_path, rng, sizes=(15, 20, 15))
        q = tmp_path / "q.json"
        doc = {
            "relations": [
                {
                    "name": decl.name,
                    "source": decl.source,
                    "join_columns": [f"{c}:int" for c in decl.join_columns],
                }
                for decl in graph.spec.relations
            ],
            "joins": [["R0.x", "R1.y"], ["R1.z", "R2.w"]],
        }
        q.write_text(json.dumps(doc))
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--query", str(q), "--m-sweep", "2^4..2^6", "--trials", "3",
             "--methods", "conv", "--reps", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema=")
        assert sum(1 for line in lines if line.startswith("row,")) == 9

    def test_unwritable_out_is_data_error(self, tmp_path, caplog, monkeypatch):
        rng = np.random.default_rng(32)
        write_chain3_workload(tmp_path, rng, sizes=(15, 20, 15))
        q = tmp_path / "q.json"
        sources = {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
        q.write_text(json.dumps(chain3_query_doc(sources)))
        out = tmp_path / "missing" / "bench.csv"
        opened = spy_on_source_reads(monkeypatch)
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            code = main(
                ["bench", "--query", str(q), "--m-sweep", "2^4..2^4", "--trials", "1",
                 "--methods", "conv", "--reps", "2", "--out", str(out)]
            )
        assert code == EXIT_DATA
        assert f"cannot write bench output {str(out)!r}" in caplog.text
        assert opened == []  # found before the first source was read

    def test_failed_bench_keeps_the_old_out(self, tmp_path, caplog):
        rng = np.random.default_rng(33)
        write_chain3_workload(tmp_path, rng, sizes=(15, 20, 15))
        q = tmp_path / "q.json"
        sources = {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
        q.write_text(json.dumps(chain3_query_doc(sources)))
        out = tmp_path / "bench.csv"
        argv = ["bench", "--query", str(q), "--m-sweep", "2^4..2^4", "--trials", "1",
                "--methods", "conv", "--reps", "2", "--out", str(out)]
        assert main(argv) == 0
        before = out.read_bytes()
        (tmp_path / "r1.csv").unlink()
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert main(argv) == EXIT_DATA
        assert out.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("bench", ["--trials", "0"], "trials must be >= 1, got 0"),
            ("bench", ["--methods", "conv,ams,conv"], "a method is listed twice"),
            ("throughput", ["--methods", "ams,ams"], "a method is listed twice"),
            ("bench", ["--reps", "0"], "repetition count l must be >= 1, got 0"),
            ("throughput", ["--reps", "0"], "repetition count l must be >= 1, got 0"),
            ("bench", ["--m-sweep", "2^-1..2^2"], "m-sweep exponents must be >= 0, got 2^-1"),
            ("throughput", ["--m-sweep", "2^-2..2^2"], "m-sweep exponents must be >= 0, got 2^-2"),
        ],
        ids=["zero-trials", "bench-repeated-method", "throughput-repeated-method",
             "bench-zero-reps", "throughput-zero-reps", "bench-negative-exponent",
             "throughput-negative-exponent"],
    )
    def test_bad_sweep_is_rejected_before_any_source_is_read(
        self, tmp_path, caplog, command, flags, message
    ):
        # The sources do not exist, so a check made after reading them exits 3.
        q = tmp_path / "q.json"
        sources = {f"R{k}": str(tmp_path / f"missing{k}.csv") for k in range(3)}
        q.write_text(json.dumps(chain3_query_doc(sources)))
        out = tmp_path / "bench.csv"
        argv = [command, "--query", str(q), "--m-sweep", "2^4..2^4", *flags]
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert main(argv + (["--out", str(out)] if command == "bench" else [])) == EXIT_QUERY
        assert message in caplog.text
        assert not out.exists()

    def test_workers_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--query", str(tmp_path / "q.json"), "--m-sweep", "2^4..2^4",
                  "--out", str(tmp_path / "b.csv"), "--workers", "2"])
        assert exc.value.code == EXIT_USAGE


class TestThroughputCommand:
    def test_table_output(self, tmp_path, capsys):
        rng = np.random.default_rng(37)
        graph = write_chain3_workload(tmp_path, rng, sizes=(10, 30, 10))
        q = tmp_path / "q.json"
        doc = {
            "relations": [
                {
                    "name": decl.name,
                    "source": decl.source,
                    "join_columns": [f"{c}:int" for c in decl.join_columns],
                }
                for decl in graph.spec.relations
            ],
            "joins": [["R0.x", "R1.y"], ["R1.z", "R2.w"]],
        }
        q.write_text(json.dumps(doc))
        code = main(
            ["throughput", "--query", str(q), "--m-sweep", "2^4..2^5",
             "--methods", "conv,ams", "--reps", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,m,relation,tuples,seconds,tuples_per_sec"
        assert len(lines) == 1 + 4  # 2 methods x 2 sizes
        assert all(line.split(",")[2] == "R1" for line in lines[1:])


HUGE_M = 1 << 40


class TestUnallocatableGrid:
    @pytest.mark.parametrize(
        "argv, m",
        [
            (["sketch", "--m", str(HUGE_M), "--out", "{out}"], HUGE_M),
            (["sketch", "--m", str(HUGE_M), "--method", "ams", "--out", "{out}"], HUGE_M),
            (["bench", "--m-sweep", "2^40..2^40", "--out", "{out}"], HUGE_M),
            (["throughput", "--m-sweep", "2^40..2^40"], HUGE_M),
            # 8 * 3 * 2^61 bytes overflows numpy's size type: a ValueError.
            (["sketch", "--m", str(1 << 61), "--out", "{out}"], 1 << 61),
        ],
        ids=["sketch-conv", "sketch-ams", "bench", "throughput", "sketch-size-overflow"],
    )
    def test_found_before_any_source_is_read(self, tmp_path, caplog, monkeypatch, argv, m):
        rng = np.random.default_rng(38)
        write_chain3_workload(tmp_path, rng, sizes=(10, 20, 10))
        q = tmp_path / "q.json"
        sources = {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
        q.write_text(json.dumps(chain3_query_doc(sources)))
        out = tmp_path / "out"
        for name in ("empty", "zeros"):
            # Refuse an l x m grid as an exhausted address space would,
            # without asking for the memory, wherever it is made.
            original = getattr(np, name)

            def refuse(shape, *args, original=original, **kwargs):
                if isinstance(shape, tuple) and HUGE_M in shape:
                    raise MemoryError(f"cannot allocate an array of shape {shape}")
                return original(shape, *args, **kwargs)

            monkeypatch.setattr(np, name, refuse)
        opened = spy_on_source_reads(monkeypatch)
        argv = [arg.format(out=out) for arg in argv]
        with caplog.at_level(logging.INFO, logger="joinsketch"):
            code = main([argv[0], "--query", str(q), "--reps", "3", *argv[1:]])
        assert code == EXIT_QUERY
        assert [r.getMessage() for r in caplog.records] == [
            f"query error: an l x m = 3 x {m} counter grid needs {24 * m:,} bytes, "
            "more than can be allocated"
        ]
        assert opened == []
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))
