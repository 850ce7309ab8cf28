"""Query documents, the join graph, and rooted traversal plans.

A query names its relations (CSV sources plus filter predicates) and the
equi-joins between their columns.  Joined attributes become graph
vertices, joins become edges, and relations group vertices.  The
relation-level graph must be a tree: self-joins are expanded into joins
with a fictitious copy of the relation, cyclic or disconnected queries
are rejected.

The traversal plan is the rooted form of the graph, a tree of PlanNodes
that both the FFT estimator and the exact hash join walk: descending
through a relation's other attributes marks a cross-correlation step
and descending along a join edge marks a Hadamard step.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Mapping

from .errors import QueryError, UnsupportedQueryError

# Each filter operator and the comparison it applies to a cell and the value.
FILTER_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
ORDER_OPS = frozenset({"<", "<=", ">", ">="})


@dataclass(frozen=True)
class FilterPredicate:
    column: str
    op: str
    value: int | str
    col_type: str  # "int" or "str"


@dataclass
class RelationDecl:
    """One relation instance: declared columns, source file, filters."""

    name: str
    source: str
    join_columns: list[str]
    column_types: dict[str, str]
    filters: list[FilterPredicate]
    alias_of: str | None = None  # original name for fictitious self-join copies


@dataclass
class QuerySpec:
    relations: list[RelationDecl]
    # ((relation index, column), (relation index, column)) per join
    joins: list[tuple[tuple[int, str], tuple[int, str]]]


def _split_annotation(name: str, where: str) -> tuple[str, str | None]:
    if ":" not in name:
        return name, None
    base, _, ann = name.partition(":")
    if ann not in ("int", "str"):
        raise QueryError(f"{where}: unknown type annotation {ann!r} (use :int or :str)")
    if not base:
        raise QueryError(f"{where}: empty column name")
    return base, ann


def _parse_endpoint(
    text: str, names: Mapping[str, int], relations: list[RelationDecl], where: str
) -> tuple[int, str]:
    if not isinstance(text, str) or "." not in text:
        raise QueryError(f"{where}: join endpoint must look like 'Relation.column', got {text!r}")
    rel, _, col = text.partition(".")
    if rel not in names:
        raise QueryError(f"{where}: unknown relation {rel!r}")
    if not col:
        raise QueryError(f"{where}: empty column name in {text!r}")
    if col not in relations[names[rel]].join_columns:
        raise QueryError(f"{where}: {rel}.{col} is not a declared join column")
    return names[rel], col


def parse_query(doc: str | Mapping) -> QuerySpec:
    """Parse and validate a query document (JSON text or mapping).

    Self-joins are expanded: when both endpoints of a join name the same
    relation instance, the second endpoint is rewritten to a fictitious
    copy sharing the source and filters.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise QueryError(f"query document is not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise QueryError("query document must be a JSON object")

    raw_relations = doc.get("relations")
    raw_joins = doc.get("joins")
    if not isinstance(raw_relations, list) or not raw_relations:
        raise QueryError("relations: expected a non-empty list")
    if not isinstance(raw_joins, list) or not raw_joins:
        raise QueryError("joins: expected a non-empty list (zero joins is unsupported)")

    relations: list[RelationDecl] = []
    names: dict[str, int] = {}
    for idx, entry in enumerate(raw_relations):
        where = f"relations[{idx}]"
        if not isinstance(entry, Mapping):
            raise QueryError(f"{where}: expected an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise QueryError(f"{where}: missing relation name")
        if name in names:
            raise QueryError(f"{where}: duplicate relation name {name!r}")
        source = entry.get("source", "")
        if not isinstance(source, str):
            raise QueryError(f"{where}: source must be a path string")
        raw_cols = entry.get("join_columns")
        if not isinstance(raw_cols, list) or not raw_cols:
            raise QueryError(f"{where}: join_columns must be a non-empty list")

        columns: list[str] = []
        types: dict[str, str] = {}
        for cidx, raw in enumerate(raw_cols):
            if not isinstance(raw, str):
                raise QueryError(f"{where}.join_columns[{cidx}]: expected a string")
            col, ann = _split_annotation(raw, f"{where}.join_columns[{cidx}]")
            if col in columns:
                raise QueryError(f"{where}.join_columns[{cidx}]: duplicate column {col!r}")
            columns.append(col)
            types[col] = ann or "str"

        filters = _parse_filters(entry.get("filters", []), types, where)
        relations.append(RelationDecl(name, source, columns, types, filters))
        names[name] = idx

    joins: list[tuple[tuple[int, str], tuple[int, str]]] = []
    declared_used: set[tuple[int, str]] = set()
    copies = 0
    for jidx, pair in enumerate(raw_joins):
        where = f"joins[{jidx}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise QueryError(f"{where}: expected a pair of endpoints")
        left = _parse_endpoint(pair[0], names, relations, where)
        right = _parse_endpoint(pair[1], names, relations, where)
        declared_used.add(left)
        declared_used.add(right)
        if left[0] == right[0]:
            # Self-join: rewrite the right endpoint to a fictitious copy.
            original = relations[right[0]]
            copies += 1
            copy_name = f"{original.name}__copy{copies}"
            if copy_name in names:
                raise QueryError(f"{where}: relation name {copy_name!r} collides with a self-join copy")
            col = right[1]
            copy = RelationDecl(
                name=copy_name,
                source=original.source,
                join_columns=[col],
                column_types=dict(original.column_types),
                filters=list(original.filters),
                alias_of=original.name,
            )
            relations.append(copy)
            names[copy_name] = len(relations) - 1
            right = (names[copy_name], col)
        joins.append((left, right))

    # Check joined column types and record which columns are referenced
    # (after self-join expansion).
    referenced: set[tuple[int, str]] = set()
    for jidx, (left, right) in enumerate(joins):
        referenced.update((left, right))
        lt = relations[left[0]].column_types[left[1]]
        rt = relations[right[0]].column_types[right[1]]
        if lt != rt:
            raise QueryError(
                f"joins[{jidx}]: joined columns have mismatched types ({lt} vs {rt})"
            )

    # A declared column never named by any join (even before self-join
    # rewriting) is an error; columns whose only use moved to a copy are
    # silently pruned so every remaining attribute joins at least once.
    for rel_idx, decl in enumerate(relations):
        if decl.alias_of is not None:
            continue
        for col in decl.join_columns:
            if (rel_idx, col) not in declared_used:
                raise QueryError(
                    f"relations[{rel_idx}]: join column {decl.name}.{col} is not used by any join"
                )
        decl.join_columns = [c for c in decl.join_columns if (rel_idx, c) in referenced]

    return QuerySpec(relations=relations, joins=joins)


def _parse_filters(raw, types: dict[str, str], where: str) -> list[FilterPredicate]:
    if not isinstance(raw, list):
        raise QueryError(f"{where}.filters: expected a list")
    out: list[FilterPredicate] = []
    for fidx, entry in enumerate(raw):
        loc = f"{where}.filters[{fidx}]"
        if not isinstance(entry, Mapping):
            raise QueryError(f"{loc}: expected an object")
        raw_col = entry.get("column")
        if not isinstance(raw_col, str) or not raw_col:
            raise QueryError(f"{loc}: missing column")
        col, ann = _split_annotation(raw_col, loc)
        op = entry.get("op")
        if not isinstance(op, str) or op not in FILTER_OPS:
            raise QueryError(f"{loc}: malformed predicate, op must be one of {tuple(FILTER_OPS)}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise QueryError(f"{loc}: value must be an integer or string scalar")

        declared = types.get(col)
        col_type = ann or declared or ("int" if isinstance(value, int) else "str")
        if declared is not None and ann is not None and declared != ann:
            raise QueryError(f"{loc}: column {col!r} annotated {ann} but declared {declared}")
        if col_type == "int" and not isinstance(value, int):
            raise QueryError(f"{loc}: int column {col!r} compared against non-int {value!r}")
        if col_type == "str" and not isinstance(value, str):
            raise QueryError(f"{loc}: string column {col!r} compared against non-string {value!r}")
        if col_type == "str" and op in ORDER_OPS:
            raise QueryError(f"{loc}: ordering comparison {op!r} is not defined on string columns")
        out.append(FilterPredicate(col, op, value, col_type))
    return out


@dataclass
class JoinGraph:
    """The attribute-level join graph of a validated query.

    Attribute ids are dense ints assigned in declaration order; `omega`
    maps relations to their attributes, `gamma` maps an attribute to the
    attributes it joins with, and `psi` labels connected components
    (canonically ordered by smallest member id).
    """

    spec: QuerySpec
    attrs: list[tuple[int, str]]
    edges: list[tuple[int, int]]
    omega: list[tuple[int, ...]]
    gamma: dict[int, tuple[int, ...]]
    psi: list[int]
    n_components: int

    @property
    def w(self) -> int:
        return len(self.attrs)

    @property
    def r(self) -> int:
        return len(self.spec.relations)

    def attr_id(self, rel_idx: int, column: str) -> int:
        return self._attr_of[(rel_idx, column)]

    def relation_of(self, attr: int) -> int:
        return self.attrs[attr][0]

    def __post_init__(self):
        self._attr_of = {pair: i for i, pair in enumerate(self.attrs)}


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def build_join_graph(spec: QuerySpec) -> JoinGraph:
    """Build and validate the join graph for a parsed query.

    Rejects queries whose relation-level graph is not a connected tree
    (|E| = r - 1): those are the acyclic multi-joins the estimators
    support.
    """
    attrs: list[tuple[int, str]] = []
    attr_of: dict[tuple[int, str], int] = {}
    for rel_idx, decl in enumerate(spec.relations):
        for col in decl.join_columns:
            attr_of[(rel_idx, col)] = len(attrs)
            attrs.append((rel_idx, col))

    edges: list[tuple[int, int]] = []
    for left, right in spec.joins:
        u, v = attr_of[left], attr_of[right]
        if u == v:
            raise QueryError("join connects an attribute with itself")
        edges.append((min(u, v), max(u, v)))

    r = len(spec.relations)
    rel_uf = _UnionFind(r)
    for u, v in edges:
        ru, rv = attrs[u][0], attrs[v][0]
        if ru == rv:
            raise UnsupportedQueryError(
                "join connects two attributes of one relation instance "
                "(self-joins must be expanded at parse time)"
            )
        rel_uf.union(ru, rv)
    roots = {rel_uf.find(k) for k in range(r)}
    if len(roots) > 1:
        raise UnsupportedQueryError(
            f"relation-level join graph is disconnected ({len(roots)} groups)"
        )
    if len(edges) != r - 1:
        raise UnsupportedQueryError(
            f"cyclic join graph: {len(edges)} joins over {r} relations (need exactly {r - 1})"
        )

    gamma_sets: dict[int, set[int]] = {a: set() for a in range(len(attrs))}
    for u, v in edges:
        gamma_sets[u].add(v)
        gamma_sets[v].add(u)
    for a, neighbors in gamma_sets.items():
        if not neighbors:
            rel_idx, col = attrs[a]
            raise QueryError(
                f"join column {spec.relations[rel_idx].name}.{col} participates in no join"
            )
    gamma = {a: tuple(sorted(ns)) for a, ns in gamma_sets.items()}

    omega: list[tuple[int, ...]] = []
    for rel_idx in range(r):
        omega.append(tuple(i for i, (ri, _) in enumerate(attrs) if ri == rel_idx))

    attr_uf = _UnionFind(len(attrs))
    for u, v in edges:
        attr_uf.union(u, v)
    comp_members: dict[int, list[int]] = {}
    for a in range(len(attrs)):
        comp_members.setdefault(attr_uf.find(a), []).append(a)
    # Canonical labels: order components by their smallest attribute id.
    ordered = sorted(comp_members.values(), key=min)
    psi = [0] * len(attrs)
    for label, members in enumerate(ordered):
        for a in members:
            psi[a] = label

    n_components = len(ordered)
    assert n_components == len(attrs) - (r - 1)
    assert sum(len(gamma[u]) for o in omega for u in o) == 2 * len(edges)

    return JoinGraph(
        spec=spec,
        attrs=attrs,
        edges=edges,
        omega=omega,
        gamma=gamma,
        psi=psi,
        n_components=n_components,
    )


@dataclass(frozen=True)
class PlanNode:
    """One step of the rooted traversal.

    `cross_groups` lists the relation's other attributes with the
    subtrees hanging off them (each group triggers one circular
    cross-correlation); `hadamard_children` are the subtrees reached
    through the entry attribute's own joins.
    """

    attr: int
    relation: int
    cross_groups: tuple[tuple[int, tuple["PlanNode", ...]], ...]
    hadamard_children: tuple["PlanNode", ...]


def traversal_plan(graph: JoinGraph, root: int | str = "auto") -> PlanNode:
    """Root the join graph at an attribute and return the root PlanNode.

    Recursion only moves away from the root: entering a relation through
    one attribute visits the relation's other attributes (cross-
    correlation groups) and then the unvisited neighbors of the entry
    attribute (Hadamard children).  "auto" picks the lowest attribute id;
    estimates are root-invariant.
    """
    if root == "auto":
        root = 0
    if not isinstance(root, int) or not (0 <= root < graph.w):
        raise QueryError(f"unknown root attribute {root!r}")
    visited: set[int] = set()
    plan = _plan_node(graph, root, visited)
    # Every relation has an attribute, so covering the attributes covers them too.
    assert visited == set(range(graph.w))
    return plan


def _plan_node(graph: JoinGraph, u: int, visited: set[int]) -> PlanNode:
    # A module-level function, not a recursive closure: a closure that
    # calls itself is a reference cycle, which would keep `graph` alive
    # until the cyclic garbage collector runs.
    rel = graph.relation_of(u)
    visited.add(u)
    cross: list[tuple[int, tuple[PlanNode, ...]]] = []
    for other in graph.omega[rel]:
        if other == u:
            continue
        assert other not in visited
        visited.add(other)
        cross.append((other, tuple(_plan_node(graph, v, visited) for v in graph.gamma[other])))
    hadamard = tuple(_plan_node(graph, v, visited) for v in graph.gamma[u] if v not in visited)
    return PlanNode(u, rel, tuple(cross), hadamard)


def load_query(path: str) -> QuerySpec:
    """Read and parse a query document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise QueryError(f"cannot read query document {path!r}: {exc}") from exc
    return parse_query(text)
