"""Query parsing, graph construction, and traversal-plan structure."""

import gc
import json
import weakref

import numpy as np
import pytest

from joinsketch.cli import EXIT_QUERY, main
from joinsketch.errors import QueryError, UnsupportedQueryError
from joinsketch.joingraph import (
    QuerySpec,
    RelationDecl,
    build_join_graph,
    load_query,
    parse_query,
    traversal_plan,
)

from conftest import multiway_query_doc, random_graph, two_rel_query_doc


class TestParseQuery:
    def test_multiway_shape(self):
        spec = parse_query(multiway_query_doc())
        assert len(spec.relations) == 4
        assert spec.joins == [
            ((0, "a0"), (1, "a1")),
            ((2, "a3"), (1, "a1")),
            ((3, "a4"), (1, "a2")),
        ]

    def test_accepts_json_text(self):
        spec = parse_query(json.dumps(multiway_query_doc()))
        assert len(spec.relations) == 4

    def test_no_joins_is_an_error(self):
        doc = multiway_query_doc()
        doc["joins"] = []
        with pytest.raises(QueryError, match="joins"):
            parse_query(doc)

    def test_self_join_expands_to_copy(self):
        doc = {
            "relations": [
                {"name": "R0", "source": "r0.csv", "join_columns": ["a:int"]},
            ],
            "joins": [["R0.a", "R0.a"]],
        }
        spec = parse_query(doc)
        assert len(spec.relations) == 2
        copy = spec.relations[1]
        assert copy.alias_of == "R0"
        assert copy.source == "r0.csv"
        assert len(spec.joins) == 1
        assert spec.joins[0] == ((0, "a"), (1, "a"))

    def test_self_join_on_two_columns(self):
        doc = {
            "relations": [
                {"name": "R0", "source": "r0.csv", "join_columns": ["a:int", "b:int"]},
            ],
            "joins": [["R0.a", "R0.b"]],
        }
        spec = parse_query(doc)
        assert len(spec.relations) == 2
        # column b moved to the copy; the original keeps only a
        assert spec.relations[0].join_columns == ["a"]
        assert spec.relations[1].join_columns == ["b"]

    def test_unknown_column_in_join(self):
        doc = multiway_query_doc()
        doc["joins"][0] = ["R0.missing", "R1.a1"]
        with pytest.raises(QueryError, match="missing"):
            parse_query(doc)

    def test_unknown_relation_in_join(self):
        doc = multiway_query_doc()
        doc["joins"][0] = ["R9.a0", "R1.a1"]
        with pytest.raises(QueryError, match="R9"):
            parse_query(doc)

    def test_unused_join_column_is_an_error(self):
        doc = multiway_query_doc()
        doc["relations"][0]["join_columns"].append("extra:int")
        with pytest.raises(QueryError, match="extra"):
            parse_query(doc)

    def test_join_type_mismatch(self):
        doc = two_rel_query_doc()
        doc["relations"][0]["join_columns"] = ["x"]  # string vs B.y:int
        with pytest.raises(QueryError, match="mismatched types"):
            parse_query(doc)

    @pytest.mark.parametrize("op", ["LIKE", ["="], None], ids=ascii)
    def test_malformed_predicate_op(self, op):
        doc = two_rel_query_doc()
        doc["relations"][0]["filters"] = [{"column": "x", "op": op, "value": "a"}]
        with pytest.raises(QueryError) as exc:
            parse_query(doc)
        assert str(exc.value).endswith(
            "malformed predicate, op must be one of ('=', '!=', '<', '<=', '>', '>=')"
        )

    def test_order_comparison_on_string_column(self):
        doc = two_rel_query_doc()
        doc["relations"][0]["filters"] = [{"column": "name", "op": "<", "value": "zz"}]
        with pytest.raises(QueryError, match="not defined on string"):
            parse_query(doc)

    def test_predicate_value_type_mismatch(self):
        doc = two_rel_query_doc()
        doc["relations"][0]["filters"] = [{"column": "age:int", "op": ">", "value": "five"}]
        with pytest.raises(QueryError, match="non-int"):
            parse_query(doc)

    def test_bad_json_text(self):
        with pytest.raises(QueryError, match="not valid JSON"):
            parse_query("{relations: nope")


def _edited(*path_and_value):
    """two_rel_query_doc() with the entry at a key/index path replaced."""
    *path, value = path_and_value
    doc = two_rel_query_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _spec(columns, joins):
    """A QuerySpec built by hand, past parse_query's checks: relation name ->
    int join columns, and ((relation, column), (relation, column)) joins."""
    relations = [
        RelationDecl(name, "", list(cols), {c: "int" for c in cols}, [])
        for name, cols in columns.items()
    ]
    return QuerySpec(relations, joins)


# case -> (query document, hand-built QuerySpec or None for a missing file;
# exception type; message fragment)
_INVALID_QUERIES = {
    "non-object-document": ("[1, 2]", QueryError, "query document must be a JSON object"),
    "relation-not-an-object": (
        _edited("relations", 0, "A"), QueryError, "relations[0]: expected an object"),
    "missing-relation-name": (
        _edited("relations", 0, "name", ""), QueryError, "relations[0]: missing relation name"),
    "duplicate-relation-name": (
        _edited("relations", 1, "name", "A"), QueryError,
        "relations[1]: duplicate relation name 'A'"),
    "non-string-source": (
        _edited("relations", 0, "source", 5), QueryError,
        "relations[0]: source must be a path string"),
    "empty-join-columns": (
        _edited("relations", 0, "join_columns", []), QueryError,
        "relations[0]: join_columns must be a non-empty list"),
    "non-string-join-column": (
        _edited("relations", 0, "join_columns", [5]), QueryError,
        "relations[0].join_columns[0]: expected a string"),
    "duplicate-join-column": (
        _edited("relations", 0, "join_columns", ["x", "x:int"]), QueryError,
        "relations[0].join_columns[1]: duplicate column 'x'"),
    "bad-annotation": (
        _edited("relations", 0, "join_columns", ["x:float"]), QueryError,
        "unknown type annotation 'float' (use :int or :str)"),
    "empty-column-name": (
        _edited("relations", 0, "join_columns", [":int"]), QueryError,
        "relations[0].join_columns[0]: empty column name"),
    "join-not-a-pair": (
        _edited("joins", 0, ["A.x"]), QueryError, "joins[0]: expected a pair of endpoints"),
    "endpoint-without-dot": (
        _edited("joins", 0, ["Ax", "B.y"]), QueryError,
        "join endpoint must look like 'Relation.column', got 'Ax'"),
    "endpoint-empty-column": (
        _edited("joins", 0, ["A.", "B.y"]), QueryError, "empty column name in 'A.'"),
    "self-join-copy-name-collision": (
        {
            "relations": [
                {"name": "A", "source": "", "join_columns": ["x:int", "y:int"]},
                {"name": "A__copy1", "source": "", "join_columns": ["z:int"]},
            ],
            "joins": [["A.x", "A.y"]],
        },
        QueryError, "relation name 'A__copy1' collides with a self-join copy"),
    "self-join-undeclared-column": (
        _edited("joins", 0, ["A.x", "A.q"]), QueryError, "A.q is not a declared join column"),
    "filters-not-a-list": (
        _edited("relations", 0, "filters", {}), QueryError,
        "relations[0].filters: expected a list"),
    "filter-not-an-object": (
        _edited("relations", 0, "filters", ["x"]), QueryError,
        "relations[0].filters[0]: expected an object"),
    "filter-without-column": (
        _edited("relations", 0, "filters", [{"op": "=", "value": 1}]), QueryError,
        "relations[0].filters[0]: missing column"),
    "filter-value-not-a-scalar": (
        _edited("relations", 0, "filters", [{"column": "x", "op": "=", "value": 1.5}]),
        QueryError, "value must be an integer or string scalar"),
    "filter-annotation-against-declaration": (
        _edited("relations", 0, "filters", [{"column": "x:str", "op": "=", "value": "a"}]),
        QueryError, "column 'x' annotated str but declared int"),
    "str-filter-against-int": (
        _edited("relations", 0, "filters", [{"column": "name:str", "op": "=", "value": 5}]),
        QueryError, "string column 'name' compared against non-string 5"),
    "join-of-an-attribute-with-itself": (
        _spec({"A": ["x"]}, [((0, "x"), (0, "x"))]), QueryError,
        "join connects an attribute with itself"),
    "join-within-one-relation": (
        _spec({"A": ["x", "y"]}, [((0, "x"), (0, "y"))]), UnsupportedQueryError,
        "join connects two attributes of one relation instance"),
    "column-in-no-join": (
        _spec({"A": ["x", "y"], "B": ["w"]}, [((0, "x"), (1, "w"))]), QueryError,
        "join column A.y participates in no join"),
    "unreadable-query-file": (None, QueryError, "cannot read query document"),
}


@pytest.mark.parametrize("case", list(_INVALID_QUERIES))
def test_invalid_query_raises(tmp_path, case):
    subject, error, fragment = _INVALID_QUERIES[case]
    with pytest.raises(QueryError) as raised:
        if subject is None:
            load_query(str(tmp_path / "missing.json"))
        elif isinstance(subject, QuerySpec):
            build_join_graph(subject)
        else:
            build_join_graph(parse_query(subject))
    assert type(raised.value) is error
    assert fragment in str(raised.value)


def test_invalid_query_exits_2(tmp_path, caplog):
    q = tmp_path / "q.json"
    q.write_text(json.dumps(_INVALID_QUERIES["duplicate-relation-name"][0]))
    assert main(["exact", "--query", str(q)]) == EXIT_QUERY
    assert "duplicate relation name 'A'" in caplog.text


class TestBuildJoinGraph:
    def test_multiway_structure(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        assert graph.w == 5
        assert graph.r == 4
        assert graph.edges == [(0, 1), (1, 3), (2, 4)]
        assert graph.omega[1] == (1, 2)
        assert graph.gamma[1] == (0, 3)
        # components {0,1,3} and {2,4}, labeled by smallest member
        assert [graph.psi[a] for a in range(5)] == [0, 0, 1, 0, 1]
        assert graph.n_components == 2

    def test_two_relations_single_join(self):
        graph = build_join_graph(parse_query(two_rel_query_doc()))
        assert graph.w == 2
        assert graph.n_components == 1
        assert graph.psi == [0, 0]

    def test_cyclic_triangle_rejected(self):
        doc = {
            "relations": [
                {"name": "A", "source": "", "join_columns": ["x:int", "y:int"]},
                {"name": "B", "source": "", "join_columns": ["x:int", "y:int"]},
                {"name": "C", "source": "", "join_columns": ["x:int", "y:int"]},
            ],
            "joins": [["A.x", "B.x"], ["B.y", "C.x"], ["C.y", "A.y"]],
        }
        with pytest.raises(UnsupportedQueryError, match="cyclic"):
            build_join_graph(parse_query(doc))

    def test_parallel_edges_rejected(self):
        doc = {
            "relations": [
                {"name": "A", "source": "", "join_columns": ["x:int", "y:int"]},
                {"name": "B", "source": "", "join_columns": ["x:int", "y:int"]},
            ],
            "joins": [["A.x", "B.x"], ["A.y", "B.y"]],
        }
        with pytest.raises(UnsupportedQueryError, match="cyclic"):
            build_join_graph(parse_query(doc))

    def test_disconnected_rejected(self):
        doc = {
            "relations": [
                {"name": "A", "source": "", "join_columns": ["x:int"]},
                {"name": "B", "source": "", "join_columns": ["x:int"]},
                {"name": "C", "source": "", "join_columns": ["x:int"]},
                {"name": "D", "source": "", "join_columns": ["x:int"]},
            ],
            "joins": [["A.x", "B.x"], ["C.x", "D.x"]],
        }
        with pytest.raises(UnsupportedQueryError, match="disconnected"):
            build_join_graph(parse_query(doc))

    def test_gamma_endpoint_count_identity(self):
        # Summing |Gamma(u)| over all attributes of all relations counts
        # each edge endpoint exactly once.
        rng = np.random.default_rng(10)
        for _ in range(40):
            graph = random_graph(rng)
            total = sum(len(graph.gamma[u]) for o in graph.omega for u in o)
            assert total == 2 * len(graph.edges)
            assert len(graph.edges) == graph.r - 1
            assert graph.n_components == graph.w - graph.r + 1

    def test_component_labels_canonical(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        # label of the component containing attribute 0 must be 0, and
        # labels are ordered by the smallest attribute id in the component
        comp_min = {}
        for a in range(graph.w):
            label = graph.psi[a]
            comp_min[label] = min(comp_min.get(label, a), a)
        mins = [comp_min[label] for label in sorted(comp_min)]
        assert mins == sorted(mins)
        assert graph.psi[0] == 0


def covered(node, attrs=None, relations=None):
    """Attributes and relations of a plan subtree, in visiting order."""
    if attrs is None:
        attrs, relations = [], []
    attrs.append(node.attr)
    relations.append(node.relation)
    for other, children in node.cross_groups:
        attrs.append(other)
        for child in children:
            covered(child, attrs, relations)
    for child in node.hadamard_children:
        covered(child, attrs, relations)
    return attrs, relations


class TestTraversalPlan:
    def test_multiway_root4_leaves(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        plan = traversal_plan(graph, root=4)
        assert plan.attr == 4
        assert plan.relation == 3

        def leaves(node, acc):
            subnodes = [c for _, cs in node.cross_groups for c in cs] + list(
                node.hadamard_children
            )
            if not subnodes:
                acc.append(node.attr)
            for child in subnodes:
                leaves(child, acc)
            return acc

        assert sorted(leaves(plan, [])) == [0, 3]

    def test_every_root_covers_everything(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            graph = random_graph(rng)
            for root in range(graph.w):
                plan = traversal_plan(graph, root)
                attrs, relations = covered(plan)
                assert sorted(attrs) == list(range(graph.w))
                assert sorted(relations) == list(range(graph.r))

    def test_auto_root_is_lowest_attr(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        plan = traversal_plan(graph, "auto")
        assert plan.attr == 0

    def test_two_node_tree(self):
        graph = build_join_graph(parse_query(two_rel_query_doc()))
        for root in (0, 1):
            plan = traversal_plan(graph, root)
            assert plan.attr == root
            assert len(covered(plan)[0]) == 2

    def test_graph_is_freed_without_the_cycle_collector(self):
        # Building the plan must not leave a reference cycle (such as a
        # recursive closure) holding the graph.
        graph = build_join_graph(parse_query(multiway_query_doc()))
        ref = weakref.ref(graph)
        gc.collect()
        gc.disable()
        try:
            plan = traversal_plan(graph, "auto")
            del graph
            assert ref() is None
            assert plan.attr == 0
        finally:
            gc.enable()

    def test_unknown_root(self):
        graph = build_join_graph(parse_query(two_rel_query_doc()))
        with pytest.raises(QueryError, match="unknown root"):
            traversal_plan(graph, 99)
