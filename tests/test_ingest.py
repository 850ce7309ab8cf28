"""CSV ingestion: filtering, NULL handling, canonical item values,
delta column support, and single-pass instrumentation."""

import csv
import io
import re

import numpy as np
import pytest

from joinsketch.errors import DataError
from joinsketch.hashing import derive_hash_set
from joinsketch.ingest import (
    apply_filters,
    canonicalize,
    fnv1a64,
    read_columns,
    read_stream,
)
from joinsketch.joingraph import FilterPredicate, build_join_graph, parse_query
from joinsketch.sketch import SketchConfig, build_sketch

from conftest import ams_build


def _two_rel_doc(tmp_path, rows_a, columns="x:int", filters=None):
    src = tmp_path / "a.csv"
    src.write_text(rows_a)
    doc = {
        "relations": [
            {
                "name": "A",
                "source": str(src),
                "join_columns": [columns],
                "filters": filters or [],
            },
            {"name": "B", "source": str(tmp_path / "b.csv"), "join_columns": ["y:int"]},
        ],
        "joins": [["A.x" if ":" not in columns else f"A.{columns.split(':')[0]}", "B.y"]],
    }
    return build_join_graph(parse_query(doc))


class TestCanonicalize:
    def test_int_passthrough(self):
        assert canonicalize("42", "int") == 42

    def test_int_negative_twos_complement(self):
        assert canonicalize("-1", "int") == (1 << 64) - 1
        assert canonicalize("-2", "int") == (1 << 64) - 2

    def test_int_parse_failure(self):
        with pytest.raises(DataError):
            canonicalize("4x", "int")

    def test_int_range_is_64_bit(self):
        assert canonicalize(str((1 << 64) - 1), "int") == (1 << 64) - 1
        assert canonicalize(str(-(1 << 63)), "int") == 1 << 63

    def test_int_of_2_to_the_64_rejected(self):
        # 2^64 would wrap to item 0 and join with "0".
        with pytest.raises(DataError):
            canonicalize("18446744073709551616", "int")
        with pytest.raises(DataError):
            canonicalize(str(-(1 << 63) - 1), "int")

    def test_int_with_underscore_rejected(self):
        with pytest.raises(DataError):
            canonicalize("1_0", "int")

    def test_int_with_non_ascii_digit_rejected(self):
        with pytest.raises(DataError):
            canonicalize("\u0663", "int")  # ARABIC-INDIC DIGIT THREE

    def test_equal_strings_equal_items(self):
        assert canonicalize("hello", "str") == canonicalize("hello", "str")
        assert canonicalize("hello", "str") != canonicalize("hellp", "str")

    def test_fnv_reference_vectors(self):
        # Published FNV-1a 64-bit test vectors.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_empty_string_hash_defined(self):
        assert canonicalize("", "str") == 0xCBF29CE484222325


# Int cells at the edges of the numpy kernel of plain blocks, which takes
# 1 to 18 ASCII digits after an optional "-" and leaves the rest to
# canonicalize: zero, signs, leading zeros, the 64-bit range and the texts
# that int() reads but an int cell must not.
_INT_EDGE_CELLS = [
    "0", "-0", "007", "999999999999999999", "-999999999999999999",
    str(2**63 - 1), str(-(2**63)), str(2**64 - 1), str(2**64), str(-(2**63) - 1),
    "1234567890123456789", "00000000000000000007", "99999999999999999999",
    "+5", " 5", "5 ", "1_0", "\u0663", "-", "--5", "5-", "",
]
_KERNEL_CELL = re.compile(r"-?[0-9]{1,18}")


def _kernel_cells(rng, count):
    """Random int cells the kernel takes: 1 to 18 digits, leading zeros
    included, a third of them negative."""
    return [
        ("-" if rng.random() < 0.3 else "") + "".join(rng.choice(list("0123456789"), size=digits))
        for digits in rng.integers(1, 19, size=count)
    ]


def _canonical(cell):
    try:
        return canonicalize(cell, "int")
    except DataError as exc:
        return str(exc)


_LAYOUTS = {"alone": 1, "mixed": 64, "one-block": 1 << 16}  # BLOCK_BYTES


class TestIntKernel:
    """Plain-block int cells give canonicalize's items bit for bit and its
    DataError text, whether the kernel or the fallback reads them."""

    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("edge", _INT_EDGE_CELLS, ids=ascii)
    def test_join_cells_match_canonicalize(self, tmp_path, monkeypatch, edge, layout):
        import joinsketch.ingest as ingest

        rng = np.random.default_rng(len(edge))
        cells = _kernel_cells(rng, 30)
        cells.insert(int(rng.integers(0, 31)), edge)
        graph = _two_rel_doc(tmp_path, "x\n" + "\n".join(cells) + "\n")
        # An empty cell is a blank line here: not a row.
        expected = [_canonical(cell) for cell in cells if cell]
        calls = []

        def counted(text, col_type):
            calls.append(text)
            return canonicalize(text, col_type)

        monkeypatch.setattr(ingest, "BLOCK_BYTES", _LAYOUTS[layout])
        monkeypatch.setattr(ingest, "canonicalize", counted)
        if any(isinstance(item, str) for item in expected):
            with pytest.raises(DataError) as exc:
                read_columns(graph, 0)
            assert str(exc.value) == _canonical(edge)
        else:
            columns, _ = read_columns(graph, 0)
            assert columns[0].dtype == np.uint64
            assert columns[0].tobytes() == np.array(expected, dtype=np.uint64).tobytes()
        if _KERNEL_CELL.fullmatch(edge):
            assert calls == []
        elif layout == "alone" and edge:
            assert calls == [edge]  # only the edge's own block falls back
        elif edge:
            assert edge in calls and set(calls) <= set(cells)


# Str cells at the edges of the FNV-1a kernel of plain blocks: empty (NULL),
# non-ASCII of two, three and four UTF-8 bytes, and longer than 64 bytes.
_STR_EDGE_CELLS = [
    "", "\u00e9", "\u65e5\u672c\u8a9e", "\U0001f600", "a" * 65, "\u00e9" * 40,
    "na\u00efve " * 9, " ", "-", "0",
]
_STR_ALPHABET = list("abcdefghijklmnopqrstuvwxyz0123456789 -_.:;!?'/") + ["\u00e9", "\u65e5"]


def _str_cells(rng, count):
    """Random cells of 1 to 20 characters, no comma, quote or line end."""
    return ["".join(rng.choice(_STR_ALPHABET, size=n)) for n in rng.integers(1, 21, size=count)]


def _str_graph(tmp_path, text, filters=()):
    """A joins C on s:str; the other columns of `text` are not joined."""
    src = tmp_path / "a.csv"
    src.write_bytes(text.encode("utf-8"))
    doc = {
        "relations": [
            {"name": "A", "source": str(src), "join_columns": ["s:str"],
             "filters": list(filters)},
            {"name": "C", "source": "c.csv", "join_columns": ["z:str"]},
        ],
        "joins": [["A.s", "C.z"]],
    }
    return build_join_graph(parse_query(doc))


class TestStrKernel:
    """Plain-block str cells give fnv1a64 of their UTF-8 bytes bit for bit,
    an empty cell drops its row, and str filters compare bytes; no str
    cell of a plain block goes through canonicalize or _passes."""

    @pytest.fixture()
    def str_path(self, monkeypatch):
        """Every call of canonicalize, _passes and csv.reader's tokenizer."""
        import joinsketch.ingest as ingest

        calls = []
        for name in ("canonicalize", "_passes", "_csv_tokenize"):
            original = getattr(ingest, name)

            def counted(*args, _name=name, _original=original):
                calls.append((_name,) + args[:2])
                return _original(*args)

            monkeypatch.setattr(ingest, name, counted)
        return calls

    # few=1 hashes every byte position in numpy; the default leaves the
    # last cells of a block to Python, and a block of fewer rows all of them.
    @pytest.mark.parametrize("few", [1, None], ids=["numpy", "numpy-then-python"])
    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("edge", _STR_EDGE_CELLS, ids=ascii)
    def test_join_cells_match_fnv1a64(self, tmp_path, monkeypatch, str_path, edge, layout, few):
        import joinsketch.ingest as ingest

        if few:
            monkeypatch.setattr(ingest, "_FEW_CELLS", few)
        rng = np.random.default_rng(len(edge))
        cells = _str_cells(rng, 30) + ["", "x" * int(rng.integers(64, 200))]
        rng.shuffle(cells)
        cells.insert(int(rng.integers(0, 33)), edge)
        # The row number in a second column keeps an empty s cell a row.
        text = "s,n\n" + "".join(f"{cell},{i}\n" for i, cell in enumerate(cells))
        monkeypatch.setattr(ingest, "BLOCK_BYTES", _LAYOUTS[layout])
        reader = read_stream(_str_graph(tmp_path, text), 0)
        columns, deltas = reader.read()
        expected = [fnv1a64(cell.encode("utf-8")) for cell in cells if cell]
        assert columns[0].dtype == np.uint64
        assert columns[0].tobytes() == np.array(expected, dtype=np.uint64).tobytes()
        assert deltas.tolist() == [1.0] * len(expected)
        assert (reader.rows_read, reader.rows_null) == (len(cells), cells.count(""))
        assert str_path == []

    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("op", ["=", "!="])
    @pytest.mark.parametrize(
        "value",
        ["active", "", "\u00e9", "e\u0301", "\u65e5\u672c", "\U0001f600", "act", "y" * 70,
         "\ud800"],
        ids=ascii,
    )
    def test_str_filters_compare_bytes(self, tmp_path, monkeypatch, str_path, op, value,
                                       layout):
        import joinsketch.ingest as ingest

        # Prefixes, extensions, the composed and decomposed e-acute, and empty cells.
        pool = ["active", "activ", "actives", "", "\u00e9", "e\u0301", "\u65e5\u672c",
                "\u65e5", "\U0001f600", "y" * 70, "y" * 71, "act"]
        rng = np.random.default_rng(7)
        rows = [(str(rng.choice(pool)), f"s{i}") for i in range(60)]
        text = "status,s\n" + "".join(f"{status},{s}\n" for status, s in rows)
        predicate = {"column": "status", "op": op, "value": value}
        monkeypatch.setattr(ingest, "BLOCK_BYTES", _LAYOUTS[layout])
        reader = read_stream(_str_graph(tmp_path, text, [predicate]), 0)
        columns, _ = reader.read()
        assert str_path == []
        decl_filter = FilterPredicate("status", op, value, "str")
        kept = [s for status, s in rows if apply_filters({"status": status}, [decl_filter])]
        assert columns[0].tolist() == [fnv1a64(s.encode()) for s in kept]
        assert reader.rows_filtered == len(rows) - len(kept)


class TestApplyFilters:
    def test_empty_conjunction_is_true(self):
        assert apply_filters({"x": "1"}, []) is True

    def test_string_equality(self):
        preds = [FilterPredicate("name", "=", "bob", "str")]
        assert apply_filters({"name": "bob"}, preds) is True
        assert apply_filters({"name": "alice"}, preds) is False

    def test_int_comparisons(self):
        preds = [FilterPredicate("age", ">", 5, "int")]
        assert apply_filters({"age": "7"}, preds) is True
        assert apply_filters({"age": "3"}, preds) is False

    def test_null_cell_fails_predicates(self):
        preds = [FilterPredicate("age", ">", 5, "int")]
        assert apply_filters({"age": ""}, preds) is False

    def test_unparsable_typed_comparison(self):
        preds = [FilterPredicate("age", ">", 5, "int")]
        with pytest.raises(DataError):
            apply_filters({"age": "old"}, preds)

    @pytest.mark.parametrize("cell", ["18446744073709551616", "1_0", "\u0663"])
    def test_int_cells_parse_as_in_canonicalize(self, cell):
        preds = [FilterPredicate("age", ">", 0, "int")]
        with pytest.raises(DataError):
            apply_filters({"age": cell}, preds)

    def test_conjunction_shortcircuits_to_false(self):
        preds = [
            FilterPredicate("age", ">", 5, "int"),
            FilterPredicate("name", "=", "bob", "str"),
        ]
        assert apply_filters({"age": "9", "name": "bob"}, preds) is True
        assert apply_filters({"age": "9", "name": "eve"}, preds) is False


class TestReadStream:
    def test_three_rows_no_filters(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "x\n1\n2\n3\n")
        updates = list(read_stream(graph, 0))
        assert len(updates) == 3
        assert all(t.delta == 1.0 for t in updates)
        assert [t.values[0] for t in updates] == [1, 2, 3]

    def test_filter_drops_rows(self, tmp_path):
        graph = _two_rel_doc(
            tmp_path,
            "x\n3\n7\n9\n",
            filters=[{"column": "x", "op": ">", "value": 5}],
        )
        updates = list(read_stream(graph, 0))
        assert len(updates) == 2
        assert [t.values[0] for t in updates] == [7, 9]

    def test_null_joined_cell_skipped(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "x,other\n1,p\n,q\n3,r\n")
        reader = read_stream(graph, 0)
        updates = list(reader)
        assert [t.values[0] for t in updates] == [1, 3]
        assert reader.rows_read == 3

    def test_delta_column(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "x,__delta\n1,2\n1,-2\n2,5\n")
        updates = list(read_stream(graph, 0))
        assert [(t.values[0], t.delta) for t in updates] == [(1, 2.0), (1, -2.0), (2, 5.0)]

    def test_bad_delta_value(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "x,__delta\n1,two\n")
        with pytest.raises(DataError, match="__delta"):
            list(read_stream(graph, 0))

    @pytest.mark.parametrize("delta", ["1_0", "\u0663"])
    def test_delta_parses_as_an_int_cell(self, tmp_path, delta):
        graph = _two_rel_doc(tmp_path, f"x,__delta\n1,{delta}\n")
        with pytest.raises(DataError, match="__delta"):
            list(read_stream(graph, 0))

    # Deltas the int kernel declines, at and past 2^63: as int64 bit patterns
    # they would read as small negatives and pass the 2^53 bound.
    @pytest.mark.parametrize("delta", [" 18446744073709551615", "+9223372036854775808",
                                       " 9007199254740992", "-9223372036854775808 "])
    @pytest.mark.parametrize("form", ["plain", "csv"])
    def test_huge_delta_fails_the_bound(self, tmp_path, delta, form):
        text = f"x,__delta\n1,1\n2,{delta}\n"
        graph = _two_rel_doc(tmp_path, text if form == "plain" else _csv_only(text))
        with pytest.raises(DataError, match="values sum to 2\\^53 or more in the first 2 data rows"):
            read_columns(graph, 0)

    def test_missing_declared_column(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "z\n1\n")
        with pytest.raises(DataError, match="missing column"):
            list(read_stream(graph, 0))

    def test_missing_file(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "x\n1\n")
        with pytest.raises(DataError, match="cannot open"):
            list(read_stream(graph, 0, path=str(tmp_path / "nope.csv")))

    def test_single_pass_row_counter(self, tmp_path):
        graph = _two_rel_doc(
            tmp_path,
            "x\n" + "\n".join(str(i % 4) for i in range(50)) + "\n",
            filters=[{"column": "x", "op": "!=", "value": 0}],
        )
        reader = read_stream(graph, 0)
        updates = list(reader)
        assert reader.rows_read == 50
        assert reader.rows_emitted == len(updates)

    def test_string_join_column(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text('name,tag\nbob,1\n"a,b",2\n,3\n')
        doc = {
            "relations": [
                {"name": "A", "source": str(src), "join_columns": ["name"]},
                {"name": "B", "source": "b.csv", "join_columns": ["name"]},
            ],
            "joins": [["A.name", "B.name"]],
        }
        graph = build_join_graph(parse_query(doc))
        updates = list(read_stream(graph, 0))
        # quoted comma survives; the empty-name row is NULL and skipped
        assert len(updates) == 2
        assert updates[0].values[0] == fnv1a64(b"bob")
        assert updates[1].values[0] == fnv1a64(b"a,b")

    def test_rfc4180_quoting(self, tmp_path):
        graph = _two_rel_doc(tmp_path, 'x,other\n"1",note\n2,"with,comma"\n')
        updates = list(read_stream(graph, 0))
        assert [t.values[0] for t in updates] == [1, 2]


class TestReadColumns:
    def test_matches_stream(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "x,__delta\n1,2\n5,1\n9,-1\n")
        columns, deltas = read_columns(graph, 0)
        np.testing.assert_array_equal(columns[0], np.array([1, 5, 9], dtype=np.uint64))
        np.testing.assert_array_equal(deltas, np.array([2.0, 1.0, -1.0]))

    def test_empty_source(self, tmp_path):
        graph = _two_rel_doc(tmp_path, "x\n")
        columns, deltas = read_columns(graph, 0)
        assert len(deltas) == 0
        assert len(columns[0]) == 0


def _columns_from_updates(updates, attrs):
    columns = {u: np.array([t.values[u] for t in updates], dtype=np.uint64) for u in attrs}
    return columns, np.array([t.delta for t in updates], dtype=np.float64)


class TestColumnsMatchStream:
    """read_columns, iterating read_stream and building from a reader share
    one parser."""

    def _graph(self, tmp_path, text):
        src = tmp_path / "a.csv"
        src.write_text(text)
        doc = {
            "relations": [
                {
                    "name": "A",
                    "source": str(src),
                    "join_columns": ["k:int", "s:str"],
                    "filters": [{"column": "status", "op": "!=", "value": "closed"}],
                },
                {"name": "B", "source": str(tmp_path / "b.csv"), "join_columns": ["y:int"]},
                {"name": "C", "source": str(tmp_path / "c.csv"), "join_columns": ["z:str"]},
            ],
            "joins": [["A.k", "B.y"], ["A.s", "C.z"]],
        }
        return build_join_graph(parse_query(doc))

    def test_mixed_rows(self, tmp_path):
        graph = self._graph(
            tmp_path,
            "status,k,s,__delta\n"
            "active,12,12,1\n"  # one cell text in an int and a str column
            'active,12,"a,b",2\n'  # quoted comma
            "active,,x,1\n"  # NULL int join cell
            "closed,5,zz,1\n"  # filtered
            "\n"  # blank line: skipped, not a data row
            "active,9,12,-1,extra,cells\n"  # long row: extra cells ignored
            "active,4\n"  # short row: the missing join cell is NULL
            'pending,7,"",3\n'  # quoted empty str cell is NULL
            "active,12,12,-1\n",
        )
        reader = read_stream(graph, 0)
        updates = list(reader)
        assert [(t.values[0], t.values[1], t.delta) for t in updates] == [
            (12, fnv1a64(b"12"), 1.0),
            (12, fnv1a64(b"a,b"), 2.0),
            (9, fnv1a64(b"12"), -1.0),
            (12, fnv1a64(b"12"), -1.0),
        ]
        assert (reader.rows_read, reader.rows_emitted) == (8, 4)

        columns, deltas = read_columns(graph, 0)
        expected_columns, expected_deltas = _columns_from_updates(updates, graph.omega[0])
        assert columns.keys() == expected_columns.keys()
        for u in columns:
            np.testing.assert_array_equal(columns[u], expected_columns[u])
        np.testing.assert_array_equal(deltas, expected_deltas)

    _TURNSTILE = (
        "status,k,s,__delta\n"
        "active,12,ab,3\n"
        "closed,5,zz,1\n"  # filtered
        "active,,x,1\n"  # NULL int join cell
        "active,4,,2\n"  # NULL str join cell
        "active,9,ab,-1\n"
        "pending,12,ab,-2\n"
        "active,7,cd,5\n"
    )

    @pytest.mark.parametrize("method", ["conv", "ams"])
    def test_build_from_reader_equals_per_row_build(self, tmp_path, method):
        graph = self._graph(tmp_path, self._TURNSTILE)
        config = SketchConfig(m=32, l=3, seed=5, method=method)
        if method == "conv":
            hashes = derive_hash_set(config, graph)
            build = lambda updates: build_sketch(updates, graph, hashes, config, 0)  # noqa: E731
        else:
            build = lambda updates: ams_build(updates, graph, config, 0)  # noqa: E731
        from_reader = build(read_stream(graph, 0))
        per_row = build(list(read_stream(graph, 0)))
        assert from_reader.counters.any()
        assert from_reader.counters.tobytes() == per_row.counters.tobytes()
        assert from_reader.touched_cells == per_row.touched_cells

    @pytest.mark.parametrize("method", ["conv", "ams"])
    def test_reader_for_another_relation(self, tmp_path, method):
        graph = self._graph(tmp_path, self._TURNSTILE)
        config = SketchConfig(m=8, l=1, method=method)
        if method == "conv":
            hashes = derive_hash_set(config, graph)
            build = lambda updates: build_sketch(updates, graph, hashes, config, 1)  # noqa: E731
        else:
            build = lambda updates: ams_build(updates, graph, config, 1)  # noqa: E731
        with pytest.raises(DataError) as per_row:
            build(list(read_stream(graph, 0)))
        with pytest.raises(DataError) as from_reader:
            build(read_stream(graph, 0))
        assert str(from_reader.value) == str(per_row.value)
        assert "stream for relation 1 contains a tuple for relation 0" in str(per_row.value)

    def test_canonicalize_once_per_distinct_cell_of_a_column(self, tmp_path, monkeypatch):
        import joinsketch.ingest as ingest

        calls = []

        def counted(text, col_type):
            calls.append((text, col_type))
            return canonicalize(text, col_type)

        monkeypatch.setattr(ingest, "canonicalize", counted)
        text = "status,k,s\n" + "active,12,12\nactive,7,12\nactive,12,ab\n" * 5
        columns, _ = read_columns(self._graph(tmp_path, text), 0)
        # The kernels read every cell of a plain block: no call at all.
        assert calls == []
        assert columns[0].tolist() == [12, 7, 12] * 5
        plain = columns

        # csv.reader's cells go to canonicalize, once per distinct cell of a column.
        columns, _ = read_columns(self._graph(tmp_path, _csv_only(text)), 0)
        assert sorted(calls) == [("12", "int"), ("12", "str"), ("7", "int"), ("ab", "str")]
        assert all(np.array_equal(columns[u], plain[u]) for u in plain)

        # One cell the int kernel does not take sends the block's k column to
        # canonicalize, once per distinct cell; the s column stays with its kernel.
        calls.clear()
        columns, _ = read_columns(self._graph(tmp_path, text + "active,+5,ab\n"), 0)
        assert sorted(calls) == [("+5", "int"), ("12", "int"), ("7", "int")]
        assert columns[0].tolist() == [12, 7, 12] * 5 + [5]

    def test_short_row_missing_a_filter_cell(self, tmp_path):
        graph = self._graph(tmp_path, "k,s,status\n1,a,active\n2,b\n")
        with pytest.raises(DataError, match="filter column 'status' missing from row"):
            read_columns(graph, 0)

    @pytest.mark.parametrize("last_row", ["3,bad", "3"], ids=["unparsable", "missing"])
    def test_bad_delta_names_the_data_row(self, tmp_path, last_row):
        graph = _two_rel_doc(tmp_path, f"x,__delta\n1,1\n\n2,1\n{last_row}\n")
        expected = "'bad'" if last_row == "3,bad" else "None"
        with pytest.raises(DataError, match=f"bad __delta value {expected} at data row 3"):
            read_columns(graph, 0)
        with pytest.raises(DataError, match=f"bad __delta value {expected} at data row 3"):
            list(read_stream(graph, 0))


# Header of the tokenizer cases: filter columns first, so that a short row
# still carries every filter cell.
_TOKENIZER_HEADER = "status,n,k,s,__delta\n"
# case -> (file text, whether the plain file falls back to csv.reader)
_TOKENIZER_CASES = {
    "blank-line": (_TOKENIZER_HEADER + "active,1,1,a,1\n\nactive,1,2,b,1\n", True),
    # 2 + 6 commas on two lines, as in two full rows: only a per-line check sees it.
    "short-and-long-row": (
        _TOKENIZER_HEADER + "active,1,4\nactive,1,3,c,-1,x,y\nactive,1,5,e,1\n", True
    ),
    "no-trailing-newline": (_TOKENIZER_HEADER + "active,1,1,a,1\nactive,1,2,b,-1", False),
    "header-only": (_TOKENIZER_HEADER, False),
    "empty-file": ("", True),  # no header line to split: csv.reader decides
    "non-ascii-str-cells": (
        _TOKENIZER_HEADER + "active,1,1,é,1\nactive,1,1,日本,1\nactive,1,2,é,2\n",
        False,
    ),
    "filters-nulls-delta": (
        _TOKENIZER_HEADER
        + "active,1,1,a,1\n"
        + "closed,1,2,b,1\n"  # str filter fails
        + "active,0,3,c,1\n"  # int filter fails
        + ",1,4,d,1\n"  # NULL filter cell fails
        + "active,1,,e,1\n"  # NULL int join cell
        + "active,1,6,,1\n"  # NULL str join cell
        + "active, 7 ,-7,g,-3\n"
        + "active,1,1,a,9007199254\n",
        False,
    ),
}


def _csv_only(text):
    """The same rows with every cell quoted and CRLF line ends: csv.reader's alone."""
    return "\r\n".join(
        ",".join(f'"{cell}"' for cell in line.split(",")) if line else ""
        for line in text.split("\n")
    )


_TOKENIZER_FILTERS = [
    {"column": "status", "op": "!=", "value": "closed"},
    {"column": "n", "op": ">", "value": 0},
]


def _tokenizer_graph(tmp_path, name, text, filters=_TOKENIZER_FILTERS, with_j=False):
    """A joins B on k:int and C on s:str, and with `with_j`, D on j:int."""
    src = tmp_path / name
    src.write_bytes(text.encode("utf-8"))
    doc = {
        "relations": [
            {
                "name": "A",
                "source": str(src),
                "join_columns": ["k:int", "s:str"] + ["j:int"] * with_j,
                "filters": filters,
            },
            {"name": "B", "source": "b.csv", "join_columns": ["y:int"]},
            {"name": "C", "source": "c.csv", "join_columns": ["z:str"]},
        ] + [{"name": "D", "source": "d.csv", "join_columns": ["w:int"]}] * with_j,
        "joins": [["A.k", "B.y"], ["A.s", "C.z"]] + [["A.j", "D.w"]] * with_j,
    }
    return build_join_graph(parse_query(doc))


def _read_outcome(graph):
    """Columns, deltas and row counts of one read, or the error it raised."""
    reader = read_stream(graph, 0)
    try:
        columns, deltas = reader.read()
    except DataError as exc:
        return "error", str(exc).replace(reader.path, "<path>")
    counts = (reader.rows_read, reader.rows_emitted, reader.rows_filtered, reader.rows_null)
    assert counts[0] == sum(counts[1:])
    assert all(items.dtype == np.uint64 for items in columns.values())
    assert deltas.dtype == np.float64
    return {u: items.tolist() for u, items in columns.items()}, deltas.tolist(), counts


class TestTokenizers:
    """The split and csv.reader tokenizers feed one assembler, with one result."""

    @pytest.fixture()
    def fallbacks(self, monkeypatch):
        import joinsketch.ingest as ingest

        offsets = []
        original = ingest._csv_tokenize

        def spy(fh, offset, with_header):
            offsets.append(offset)
            return original(fh, offset, with_header)

        monkeypatch.setattr(ingest, "_csv_tokenize", spy)
        return offsets

    @pytest.mark.parametrize("case", list(_TOKENIZER_CASES))
    def test_plain_and_csv_files_read_alike(self, tmp_path, fallbacks, case):
        text, plain_falls_back = _TOKENIZER_CASES[case]
        plain = _read_outcome(_tokenizer_graph(tmp_path, "plain.csv", text))
        assert (fallbacks != []) == plain_falls_back
        assert 0 not in fallbacks or text == ""
        fallbacks.clear()
        quoted = _read_outcome(_tokenizer_graph(tmp_path, "quoted.csv", _csv_only(text)))
        assert fallbacks == [0]
        assert plain == quoted
        if case == "empty-file":
            assert plain == ("error", "<path>: missing header row")
        if case == "short-and-long-row":
            # The short row's s is NULL; the long row's extra cells are ignored.
            columns, deltas, counts = plain
            assert columns[0] == [3, 5] and deltas == [-1.0, 1.0]
            assert counts == (3, 2, 0, 1)
        if case == "filters-nulls-delta":
            columns, deltas, counts = plain
            assert columns[0] == [1, (1 << 64) - 7, 1]
            assert columns[1] == [fnv1a64(b"a"), fnv1a64(b"g"), fnv1a64(b"a")]
            assert deltas == [1.0, -3.0, 9007199254.0]
            assert counts == (8, 3, 3, 2)

    @pytest.mark.parametrize("form", ["plain", "csv"])
    def test_results_hold_across_blocks(self, tmp_path, monkeypatch, form):
        import joinsketch.ingest as ingest

        rows = [f"{'closed' if i % 7 == 0 else 'active'},1,{i % 5},s{i % 3},{i % 4 - 1}"
                for i in range(40)]
        text = _TOKENIZER_HEADER + "\n".join(rows) + "\n"
        text = text if form == "plain" else _csv_only(text)
        graph = _tokenizer_graph(tmp_path, "a.csv", text)
        whole = _read_outcome(graph)

        calls = []

        def counted(cell, col_type):
            calls.append((cell, col_type))
            return canonicalize(cell, col_type)

        monkeypatch.setattr(ingest, "BLOCK_BYTES", 40)  # about two lines
        monkeypatch.setattr(ingest, "canonicalize", counted)
        assert _read_outcome(graph) == whole
        str_calls = {(f"s{i}", "str") for i in range(3)}
        int_calls = {(str(i % 5), "int") for i in range(40)}
        # The kernels read every k and s cell of a plain block.
        assert sorted(calls) == ([] if form == "plain" else sorted(str_calls | int_calls))

        # "+4" is a fallback cell: only the k column of its plain block goes to
        # canonicalize, once per distinct cell of the rows that pass the filter.
        fallback_rows = rows[:9] + [rows[9].replace(",4,", ",+4,")] + rows[10:]
        text = _TOKENIZER_HEADER + "\n".join(fallback_rows) + "\n"
        graph = _tokenizer_graph(tmp_path, "a.csv", text if form == "plain" else _csv_only(text))
        calls.clear()
        assert _read_outcome(graph) == whole
        if form == "plain":
            block = next(b for _, b in ingest._blocks(io.BytesIO(text.encode())) if b"+4" in b)
            lines = [line.split(",") for line in block.decode().splitlines()]
            fallback = {(cells[2], "int") for cells in lines if cells[0] == "active"}
            assert ("+4", "int") in fallback and len(fallback) < len(int_calls)
            assert sorted(calls) == sorted(fallback)
        else:
            assert sorted(calls) == sorted(str_calls | int_calls | {("+4", "int")})

        rows[30] = rows[30].rsplit(",", 1)[0] + ",bad"
        text = _TOKENIZER_HEADER + "\n".join(rows) + "\n"
        graph = _tokenizer_graph(tmp_path, "a.csv", text if form == "plain" else _csv_only(text))
        assert _read_outcome(graph) == ("error", "<path>: bad __delta value 'bad' at data row 31")

    @pytest.mark.parametrize("form", ["plain", "csv"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("active,1,4x,a,1", "cannot parse '4x' as int"),
            ("active,1,4x,,1", "cannot parse '4x' as int"),  # before a NULL cell
            ("active,old,4,a,1", "cannot compare 'old' in column 'n' as int"),
            ("active,1,4,a,two", "<path>: bad __delta value 'two' at data row 2"),
            ("active", "filter column 'n' missing from row"),
        ],
        ids=["join-cell", "join-cell-then-null", "filter-cell", "delta-cell",
             "missing-filter-cell"],
    )
    def test_single_bad_cell_message(self, tmp_path, form, row, message):
        text = _TOKENIZER_HEADER + f"active,1,1,a,1\n{row}\nactive,1,2,b,1\n"
        text = text if form == "plain" else _csv_only(text)
        assert _read_outcome(_tokenizer_graph(tmp_path, "a.csv", text)) == ("error", message)


    @pytest.mark.parametrize("form", ["plain", "csv"])
    @pytest.mark.parametrize(
        "header_cell, s_cell, outcome",
        [("h" * 8, "s" * 8, "read"), ("h" * 9, "s", "error"), ("h", "s" * 9, "error")],
        ids=["at-the-limit", "long-header-cell", "long-row-cell"],
    )
    def test_cell_length_limit(self, tmp_path, fallbacks, form, header_cell, s_cell, outcome):
        # Both tokenizers read a cell of csv.field_size_limit() characters
        # and reject one character more, with csv.reader's message; the
        # limit in force at the call applies.
        text = _TOKENIZER_HEADER.replace("\n", f",{header_cell}\n") + f"active,1,1,{s_cell},1,x\n"
        graph = _tokenizer_graph(tmp_path, "a.csv", text if form == "plain" else _csv_only(text))
        old = csv.field_size_limit(8)
        try:
            got = _read_outcome(graph)
        finally:
            csv.field_size_limit(old)
        assert (fallbacks == []) == (form == "plain")
        if outcome == "read":
            assert got[0][1] == [fnv1a64(s_cell.encode())]
        else:
            assert got == ("error", "<path>: field larger than field limit (8)")


def _reference_read(graph, relation):
    """Row-at-a-time reference: csv.DictReader rows, apply_filters, then
    canonicalize each joined cell until the first NULL, then the delta.
    Also the rows read, filtered, NULL-dropped and emitted."""
    decl = graph.spec.relations[relation]
    attrs = [(graph.attr_id(relation, col), col) for col in decl.join_columns]
    columns, deltas = {u: [] for u, _ in attrs}, []
    counts = {"read": 0, "filtered": 0, "null": 0}
    with open(decl.source, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            counts["read"] += 1
            if not apply_filters(row, decl.filters):
                counts["filtered"] += 1
                continue
            values = {}
            for u, col in attrs:
                if not row.get(col):
                    counts["null"] += 1
                    break
                values[u] = canonicalize(row[col], decl.column_types[col])
            else:
                for u, item in values.items():
                    columns[u].append(item)
                deltas.append(float(int(row.get("__delta") or 1)))
    counts = (counts["read"], len(deltas), counts["filtered"], counts["null"])
    columns = {u: np.array(v, dtype=np.uint64) for u, v in columns.items()}
    return columns, np.array(deltas), counts


def _quote(cell):
    return f'"{cell}"' if "," in cell else cell


def test_matches_row_at_a_time_reference(tmp_path, monkeypatch):
    import joinsketch.ingest as ingest

    rng = np.random.default_rng(2026)
    filters = [{"column": "status", "op": "!=", "value": "off"},
               {"column": "k", "op": ">", "value": 0},
               {"column": "tag", "op": "=", "value": "\u65e5\u672c"}]
    # j mixes cells the int kernel takes with fallback cells; so does __delta.
    # s mixes quoted commas, non-ASCII and long cells; tag's "=" filter
    # passes one value, not its prefix or its extension.
    pools = {"status": ["on", "off", ""], "k": ["1", "2", "-3", " 4", ""],
             "tag": ["\u65e5\u672c", "\u65e5\u672c", "\u65e5", "\u65e5\u672c\u8a9e", ""],
             "__delta": ["1", "-1", "2", "007", "-12", " 3", "+2"],
             "s": ["a", "b,c", "\u00e9", "", "\u65e5\u672c\u8a9e", "\U0001f600", "x" * 70,
                   "\u00e9" * 40],
             "j": ["7", "-12", "007", " 4", "+5", "1234567890123456789", ""]}
    for trial in range(60):
        # A short row still has its filter and delta cells; its s cell is NULL.
        names = list(pools)
        rows = [names]
        for _ in range(int(rng.integers(0, 40))):
            shape = rng.random()
            if shape < 0.03:
                rows.append(None)  # a blank line
                continue
            width = len(names) if shape < 0.9 else int(rng.integers(4, len(names) + 3))
            rows.append([str(rng.choice(pools.get(name, ["x"])))
                         for name in (names + ["extra"] * 2)[:width]])
        newline = "\r\n" if rng.random() < 0.2 else "\n"
        end = newline if rng.random() < 0.8 else ""
        lines = [",".join(map(_quote, row)) if row else "" for row in rows]
        text = newline.join(lines) + end
        # The same rows with every cell quoted and CRLF line ends: csv.reader's alone.
        quoted = "\r\n".join(",".join(f'"{c}"' for c in row) if row else "" for row in rows)
        monkeypatch.setattr(ingest, "BLOCK_BYTES", int(rng.choice([7, 16, 64, 1 << 16])))
        outcomes = []
        for name, form in ((f"r{trial}.csv", text), (f"q{trial}.csv", quoted + end)):
            graph = _tokenizer_graph(tmp_path, name, form, filters, with_j=True)
            reader = read_stream(graph, 0)
            columns, deltas = reader.read()
            expected_columns, expected_deltas, expected_counts = _reference_read(graph, 0)
            for u in expected_columns:
                np.testing.assert_array_equal(columns[u], expected_columns[u])
            np.testing.assert_array_equal(deltas, expected_deltas)
            counts = (reader.rows_read, reader.rows_emitted, reader.rows_filtered,
                      reader.rows_null)
            assert counts == expected_counts
            outcomes.append(counts)
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("form", ["plain", "csv"])
def test_bad_int_cell_of_a_dropped_row_is_never_parsed(tmp_path, form):
    # Row 2 fails the status filter and row 3 has a NULL s before its j
    # cell; neither row's bad k, j or __delta cell is read.
    text = (
        "status,n,k,s,__delta,j\n"
        "active,1,1,a,1,2\n"
        "closed,1,4x,a,two,4x\n"
        "active,1,3,,two,+4x\n"
        "active,1,-5,b,-1,6\n"
    )
    text = text if form == "plain" else _csv_only(text)
    graph = _tokenizer_graph(tmp_path, "a.csv", text, with_j=True)
    columns, deltas, counts = _read_outcome(graph)
    assert columns == {0: [1, (1 << 64) - 5], 1: [fnv1a64(b"a"), fnv1a64(b"b")], 2: [2, 6]}
    assert deltas == [1.0, -1.0]
    assert counts == (4, 2, 1, 1)
