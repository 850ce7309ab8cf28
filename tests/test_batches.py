"""Batch by batch: `sketch` and `exact` read each source in batches of at
most `ingest.BATCH_ROWS` rows, and must give what a whole read gives.

The batch size and the block size are set small here, so that every
batch boundary falls somewhere new: between an insert and its deletion,
across a NULL cell or a filtered row, inside the csv.reader fallback.
The bytes of the sketch file, `exact`'s output, every row counter and
every refusal must not move.
"""

import gc
import json
import logging
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

import joinsketch.bench as bench
import joinsketch.ingest as ingest
import joinsketch.sketch as sketch
from joinsketch.cli import EXIT_DATA, main
from joinsketch.errors import DataError
from joinsketch.hashing import derive_hash_set
from joinsketch.ingest import read_stream
from joinsketch.joingraph import build_join_graph, load_query
from joinsketch.sketch import RelationSketch, SketchConfig, build_sketch, bulk_update

from conftest import chain3_query_doc, zipf_values

_LAYOUTS = {"alone": 1, "mixed": 64, "one-block": 1 << 16}  # BLOCK_BYTES
_BATCH_ROWS = [1, 7, 4096]
_STRINGS = ["a", "b", "é", "x y", "日本"]


def _rows(rng, n, cells):
    """`n` rows of `cells()`, then the first third of them again with each
    delta negated: deletions that land far from their inserts."""
    rows = [cells() for _ in range(n)]
    rows += [row[:-1] + [str(-int(row[-1]))] for row in rows[: n // 3]]
    return rows


def _text(header, rows, kind):
    """CSV text: LF lines; with "fallback", one quoted cell midway, so that
    csv.reader reads from its block on; with "crlf", CRLF line ends, so
    that it reads the whole file."""
    lines = [",".join(row) for row in rows]
    if kind == "fallback":
        mid = len(lines) // 2
        lines[mid] = ",".join(f'"{cell}"' if i == 1 else cell for i, cell in enumerate(rows[mid]))
    end = "\r\n" if kind == "crlf" else "\n"
    return end.join([header, *lines]) + end


def _batch_workload(tmp_path, kind, seed=5):
    """A joins B on k:int and C on s:str, with a status filter on A, NULL
    cells and `__delta` deletions in all three."""
    rng = np.random.default_rng(seed)

    def key(values):
        return "" if rng.random() < 0.1 else str(rng.choice(values))

    def delta():
        return str(rng.choice([1, 1, 2, -1]))

    tables = {
        "a": ("status,s,k,__delta", lambda: [
            str(rng.choice(["active", "active", "closed"])), key(_STRINGS), key(range(6)), delta()
        ]),
        "b": ("y,__delta", lambda: [key(range(6)), delta()]),
        "c": ("z,__delta", lambda: [key(_STRINGS), delta()]),
    }
    for name, (header, cells) in tables.items():
        text = _text(header, _rows(rng, 45, cells), kind)
        (tmp_path / f"{name}.csv").write_bytes(text.encode("utf-8"))
    doc = {
        "relations": [
            {"name": "A", "source": str(tmp_path / "a.csv"), "join_columns": ["k:int", "s:str"],
             "filters": [{"column": "status", "op": "!=", "value": "closed"}]},
            {"name": "B", "source": str(tmp_path / "b.csv"), "join_columns": ["y:int"]},
            {"name": "C", "source": str(tmp_path / "c.csv"), "join_columns": ["z:str"]},
        ],
        "joins": [["A.k", "B.y"], ["A.s", "C.z"]],
    }
    query = tmp_path / "q.json"
    query.write_text(json.dumps(doc))
    return str(query)


@pytest.fixture()
def readers(monkeypatch):
    """Every reader a command makes, with the number of batches each yielded."""
    made = []
    original_read_stream, original_batches = ingest.read_stream, ingest.StreamReader.batches

    def spy(graph, relation, path=None):
        reader = original_read_stream(graph, relation, path)
        reader.batches_yielded = 0
        made.append(reader)
        return reader

    def counted(reader):
        with closing(original_batches(reader)) as batches:
            for batch in batches:
                reader.batches_yielded += 1
                yield batch

    monkeypatch.setattr(ingest, "read_stream", spy)
    monkeypatch.setattr(ingest.StreamReader, "batches", counted)
    return made


@pytest.fixture()
def opened(monkeypatch):
    """Every file `ingest` opens."""
    files = []

    def spy(*args, **kwargs):
        fh = open(*args, **kwargs)
        files.append(fh)
        return fh

    monkeypatch.setattr(ingest, "open", spy, raising=False)
    return files


def _outcome(query, tmp_path, capsys, readers):
    """Sketch file bytes, both `exact` outputs and every reader's counters."""
    out = tmp_path / "s.jsk"
    assert main(["sketch", "--query", query, "--m", "64", "--reps", "3", "--seed", "9",
                 "--out", str(out)]) == 0
    printed = []
    for path in ("auto", "nested"):
        assert main(["exact", "--query", query, "--path", path]) == 0
        printed.append(capsys.readouterr().out)
    counts = [(r.relation, r.rows_read, r.rows_filtered, r.rows_null, r.rows_emitted)
              for r in readers]
    batches = max(r.batches_yielded for r in readers)
    readers.clear()
    return out.read_bytes(), printed, counts, batches


@pytest.mark.parametrize("kind", ["plain", "fallback", "crlf"])
@pytest.mark.parametrize("batch_rows", _BATCH_ROWS)
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_batches_give_what_a_whole_read_gives(tmp_path, monkeypatch, capsys, readers,
                                              layout, batch_rows, kind):
    query = _batch_workload(tmp_path, kind)
    monkeypatch.setattr(ingest, "BLOCK_BYTES", _LAYOUTS[layout])
    whole = _outcome(query, tmp_path, capsys, readers)
    assert whole[3] == 1
    monkeypatch.setattr(ingest, "BATCH_ROWS", batch_rows)
    batched = _outcome(query, tmp_path, capsys, readers)
    assert batched[:3] == whole[:3]
    auto, nested = batched[1]
    assert auto == nested and int(auto) != 0
    # One block is one batch at any size; small blocks make many batches.
    assert (batched[3] > 1) == (layout != "one-block" and batch_rows < 45)


@pytest.mark.parametrize("batch_rows", [1, 7])
def test_build_sketch_from_a_reader_updates_batch_by_batch(tmp_path, monkeypatch, batch_rows):
    query = _batch_workload(tmp_path, "plain")
    graph = build_join_graph(load_query(query))
    config = SketchConfig(m=64, l=3, seed=4)
    hashes = derive_hash_set(config, graph)
    whole = RelationSketch(0, config, graph, hashes)
    bulk_update(whole, *read_stream(graph, 0).read())

    calls = []

    def counted(sk, columns, deltas):
        calls.append(len(deltas))
        return bulk_update(sk, columns, deltas)

    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)
    monkeypatch.setattr(ingest, "BATCH_ROWS", batch_rows)
    monkeypatch.setattr(sketch, "bulk_update", counted)
    built = build_sketch(read_stream(graph, 0), graph, hashes, config, 0)
    assert whole.counters.any()
    assert built.counters.tobytes() == whole.counters.tobytes()
    # A batch holds more rows than BATCH_ROWS only when one block does.
    assert len(calls) > 1 and (batch_rows == 1 or max(calls) <= batch_rows)


def _one_key_query(tmp_path, deltas_a, deltas_b):
    """A(k) joins B(k); every row has key 1 and the given deltas."""
    for name, deltas in (("a", deltas_a), ("b", deltas_b)):
        (tmp_path / f"{name}.csv").write_text("k,__delta\n" + "".join(f"1,{d}\n" for d in deltas))
    doc = {
        "relations": [
            {"name": name.upper(), "source": str(tmp_path / f"{name}.csv"),
             "join_columns": ["k:int"]}
            for name in ("a", "b")
        ],
        "joins": [["A.k", "B.k"]],
    }
    query = tmp_path / "q.json"
    query.write_text(json.dumps(doc))
    return str(query)


@pytest.fixture()
def one_row_batches(monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 1)
    monkeypatch.setattr(ingest, "BATCH_ROWS", 1)


def test_delta_bound_first_reached_in_a_later_batch(tmp_path, caplog, readers, opened,
                                                    one_row_batches):
    # Each |__delta| is 2^51, so the sum reaches 2^53 at the fourth row,
    # after the batches of the first two rows went out; the third row's
    # batch is still open when the fourth row's block is read.
    query = _one_key_query(tmp_path, ["1"], [str(2**51)] * 5)
    for argv in (["sketch", "--query", query, "--m", "8", "--out", str(tmp_path / "s.jsk")],
                 ["exact", "--query", query]):
        with caplog.at_level(logging.ERROR, logger="joinsketch"):
            assert main(argv) == EXIT_DATA
        assert "2^53 or more in the first 4 data rows" in caplog.text
        assert readers[-1].relation == 1 and readers[-1].batches_yielded == 2
        assert all(fh.closed for fh in opened)
        caplog.clear()


@pytest.mark.parametrize("path", ["auto", "nested"])
def test_row_product_bound_crossed_only_across_batches(tmp_path, caplog, capsys, opened,
                                                       one_row_batches, path):
    # B weighs key 1 at 2^26, so each of A's rows weighs 2^25 * 2^26 = 2^51:
    # below 2^53 in every one-row batch, 2^53 over A's four rows.
    query = _one_key_query(tmp_path, [str(2**25)] * 3, [str(2**26)])
    assert main(["exact", "--query", query, "--path", path]) == 0
    assert capsys.readouterr().out == f"{3 * 2**51}\n"
    query = _one_key_query(tmp_path, [str(2**25)] * 4, [str(2**26)])
    with caplog.at_level(logging.ERROR, logger="joinsketch"):
        assert main(["exact", "--query", query, "--path", path]) == EXIT_DATA
    assert "reach 2^53" in caplog.text and capsys.readouterr().out == ""
    # The hash join stops in A's fourth batch, before the generator ends;
    # every file is closed all the same.
    assert opened and all(fh.closed for fh in opened)


@pytest.mark.parametrize("form", ["plain", "crlf"])
@pytest.mark.parametrize("batch_rows", _BATCH_ROWS)
def test_bad_delta_row_number_counts_earlier_batches(tmp_path, monkeypatch, form, batch_rows):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 1)
    monkeypatch.setattr(ingest, "BATCH_ROWS", batch_rows)
    rows = [f"{k},1" for k in range(11)]
    rows[9] = "9,two"
    end = "\r\n" if form == "crlf" else "\n"
    query = _one_key_query(tmp_path, ["1"], ["1"])
    (tmp_path / "b.csv").write_text(end.join(["k,__delta", *rows]) + end)
    graph = build_join_graph(load_query(query))
    with pytest.raises(DataError, match="bad __delta value 'two' at data row 10$"):
        list(read_stream(graph, 1).batches())


def _chain3_query(tmp_path, end):
    """The chain R0.x = R1.y, R1.z = R2.w over r0.csv, r1.csv and r2.csv,
    with `end` line ends: "\r\n" sends every file to csv.reader."""
    rng = np.random.default_rng(17)
    for name, header, n in (("r0", "x", 40), ("r1", "y,z", 50), ("r2", "w", 40)):
        width = header.count(",") + 1
        rows = ["".join(f"{v}," for v in rng.integers(0, 8, size=width))[:-1] for _ in range(n)]
        (tmp_path / f"{name}.csv").write_bytes((end.join([header, *rows]) + end).encode())
    query = tmp_path / "q.json"
    query.write_text(json.dumps(chain3_query_doc(
        {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
    )))
    return str(query)


# Both tokenizers: csv.reader reads through a text wrapper over the file.
_ENDS = pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["plain", "crlf"])


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@_ENDS
def test_sketch_failing_on_its_last_relation_leaves_the_old_file(tmp_path, monkeypatch,
                                                                 opened, readers, end):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 16)
    monkeypatch.setattr(ingest, "BATCH_ROWS", 7)
    query = _chain3_query(tmp_path, end)
    with open(tmp_path / "r2.csv", "ab") as fh:
        fh.write(f"4x{end}".encode())  # a bad int cell in the last relation's last batch
    out = tmp_path / "s.jsk"
    out.write_bytes(b"old sketch file")
    assert main(["sketch", "--query", query, "--m", "16", "--out", str(out)]) == EXIT_DATA
    assert [r.relation for r in readers] == [0, 1, 2] and readers[-1].batches_yielded > 1
    assert out.read_bytes() == b"old sketch file"
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp") == []
    assert len(opened) == 3 and all(fh.closed for fh in opened)
    gc.collect()


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@_ENDS
def test_a_consumer_that_stops_early_closes_the_source(tmp_path, monkeypatch, opened, end):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 16)
    monkeypatch.setattr(ingest, "BATCH_ROWS", 7)
    query = _chain3_query(tmp_path, end)
    calls = []

    def failing(sk, columns, deltas):
        calls.append(len(deltas))
        if len(calls) == 2:
            raise DataError("stopped by the test")
        return bulk_update(sk, columns, deltas)

    # `sketch` stops in its first relation's second batch.
    with monkeypatch.context() as patched:
        patched.setattr(bench, "bulk_update", failing)
        assert main(["sketch", "--query", query, "--m", "16",
                     "--out", str(tmp_path / "s.jsk")]) == EXIT_DATA
    assert len(opened) == 1 and opened[0].closed

    # So does the library build, and so does a loop over a reader's tuples.
    graph = build_join_graph(load_query(query))
    config = SketchConfig(m=16, l=2)
    calls.clear()
    with monkeypatch.context() as patched:
        patched.setattr(sketch, "bulk_update", failing)
        with pytest.raises(DataError, match="stopped by the test"):
            build_sketch(read_stream(graph, 1), graph, derive_hash_set(config, graph), config, 1)
    assert len(opened) == 2 and opened[1].closed
    tuples = iter(read_stream(graph, 2))
    next(tuples)
    tuples.close()
    assert len(opened) == 3 and opened[2].closed
    gc.collect()


# What a 10x input may add to a command's traced peak, stated before the
# first run: a batch is at most BATCH_ROWS rows, so it is what the input
# adds, beyond the 40,000-row relations of the 1x input that are one
# batch each.  Whole reads add about 42 MiB to `sketch` and 17 MiB to
# `exact` here.
_GROWTH_BOUND = 4 << 20


def test_ten_times_the_input_adds_less_than_a_bound(tmp_path):
    rng = np.random.default_rng(3)
    keys = {"r0": [zipf_values(rng, 40_000, 10_000, 1.1)],
            "r1": [zipf_values(rng, 40_000, 10_000, 1.1) for _ in range(2)],
            "r2": [zipf_values(rng, 40_000, 10_000, 1.1)]}
    headers = {"r0": "x", "r1": "y,z", "r2": "w"}
    queries = {}
    for times in (1, 10):
        sources = {}
        for k, (name, cols) in enumerate(keys.items()):
            body = "".join(",".join(map(str, row)) + "\n" for row in zip(*(c.tolist() for c in cols)))
            path = tmp_path / f"{name}x{times}.csv"
            path.write_text(headers[name] + "\n" + body * times)
            sources[f"R{k}"] = str(path)
        query = tmp_path / f"q{times}.json"
        query.write_text(json.dumps(chain3_query_doc(sources)))
        queries[times] = str(query)

    def peak(argv):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    commands = {
        "sketch": lambda q: ["sketch", "--query", q, "--m", "4096", "--out", str(tmp_path / "s.jsk")],
        "exact": lambda q: ["exact", "--query", q],
    }
    for name, argv in commands.items():
        peak(argv(queries[1]))  # imports and caches
        small, large = peak(argv(queries[1])), peak(argv(queries[10]))
        assert large - small < _GROWTH_BOUND, (name, small, large)
