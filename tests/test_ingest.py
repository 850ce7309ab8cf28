"""CSV ingestion: filtering, NULL handling, canonical item values,
delta column support, and single-pass instrumentation."""

import numpy as np
import pytest

from joinsketch.errors import DataError
from joinsketch.ingest import (
    apply_filters,
    canonicalize,
    fnv1a64,
    read_columns,
    read_stream,
)
from joinsketch.joingraph import FilterPredicate, build_join_graph, parse_query


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
    """read_columns and iterating read_stream share one parser."""

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

    def test_canonicalize_once_per_distinct_cell_of_a_column(self, tmp_path, monkeypatch):
        import joinsketch.ingest as ingest

        calls = []

        def counted(text, col_type):
            calls.append((text, col_type))
            return canonicalize(text, col_type)

        monkeypatch.setattr(ingest, "canonicalize", counted)
        graph = self._graph(
            tmp_path,
            "status,k,s\n" + "active,12,12\nactive,7,12\nactive,12,ab\n" * 5,
        )
        columns, _ = read_columns(graph, 0)
        assert sorted(calls) == [("12", "int"), ("12", "str"), ("7", "int"), ("ab", "str")]
        assert columns[0].tolist() == [12, 7, 12] * 5

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
