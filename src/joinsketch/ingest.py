"""CSV ingestion: filter-at-read, canonicalization, tuple-update streams.

Each source is parsed once, by one csv.reader loop that fills one list
per joined column plus the deltas; bulk sketching takes those lists as
arrays, and the per-tuple API iterates over them.  Filter predicates
apply before any sketch work, rows with an empty (NULL) joined column
never join and are dropped, and raw cells canonicalize to 64-bit items:
integers keep their two's-complement bit pattern, strings map through a
fixed FNV-1a hash so equal strings always produce equal items without
any cross-relation dictionary.  Canonicalization is memoized per
distinct cell text of each column.
"""

from __future__ import annotations

import csv
from typing import Iterator

import numpy as np

from .errors import DataError, QueryError
from .joingraph import FilterPredicate, JoinGraph
from .sketch import TupleUpdate

_MASK64 = (1 << 64) - 1

# FNV-1a 64-bit, seedless: offset basis and prime are fixed constants.
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

DELTA_COLUMN = "__delta"


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def canonicalize(text: str, col_type: str) -> int:
    """Map a raw cell to its 64-bit item value."""
    if col_type == "int":
        try:
            return int(text.strip()) & _MASK64
        except ValueError as exc:
            raise DataError(f"cannot parse {text!r} as int") from exc
    if col_type == "str":
        return fnv1a64(text.encode("utf-8"))
    raise QueryError(f"unknown column type {col_type!r}")


def apply_filters(row: dict[str, str], predicates: list[FilterPredicate]) -> bool:
    """Conjunction of all predicates; empty cells (NULL) satisfy none."""
    for p in predicates:
        cell = row.get(p.column)
        if cell is None:
            raise DataError(f"filter column {p.column!r} missing from row")
        if cell == "":
            return False
        if p.col_type == "int":
            try:
                left = int(cell.strip())
            except ValueError as exc:
                raise DataError(
                    f"cannot compare {cell!r} in column {p.column!r} as int"
                ) from exc
            right = p.value
        else:
            left = cell
            right = p.value
        if not _compare(left, p.op, right):
            return False
    return True


def _compare(left, op: str, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise QueryError(f"unknown operator {op!r}")


class StreamReader:
    """Single-pass reader of one relation's source.

    `read()` parses the file once with a single `csv.reader` loop into
    one list of items per joined attribute plus the deltas; iterating
    the reader yields one TupleUpdate per passing row from those lists.
    `rows_read` counts every data row seen, including filtered ones,
    and `rows_emitted` the rows that passed filters and NULL dropping.
    """

    def __init__(self, graph: JoinGraph, relation: int, path: str | None = None):
        self.graph = graph
        self.relation = relation
        decl = graph.spec.relations[relation]
        self.decl = decl
        self.path = path if path is not None else decl.source
        self.rows_read = 0
        self.rows_emitted = 0
        self._attr_cols = [(graph.attr_id(relation, col), col) for col in decl.join_columns]

    def read(self) -> tuple[dict[int, list[int]], list[float]]:
        """Parse the source into item lists keyed by attribute id, and deltas.

        Rows are handled as csv.DictReader would: blank lines are
        skipped, a short row's missing cells are None and extra cells
        are ignored.  A relation's filters run once per row, before any
        join cell is read.  `canonicalize` runs once per distinct cell
        text of a column; each column has its own cache, as one text
        maps to different items under different column types.
        """
        decl = self.decl
        try:
            fh = open(self.path, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot open {self.path!r}: {exc}") from exc
        with fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{self.path}: missing header row")
            # A repeated header name maps to its last position, as in DictReader.
            position = {name: i for i, name in enumerate(header)}
            needed = set(decl.join_columns) | {p.column for p in decl.filters}
            missing = needed - position.keys()
            if missing:
                raise DataError(f"{self.path}: missing column(s) {sorted(missing)}")
            delta_at = position.get(DELTA_COLUMN)
            predicates = decl.filters
            filter_at = [(p.column, position[p.column]) for p in predicates]
            joins = [
                (position[col], {}, decl.column_types[col]) for _, col in self._attr_cols
            ]
            items: list[list[int]] = [[] for _ in joins]
            deltas: list[float] = []
            delta_of: dict[str, float] = {}
            passes, canon = apply_filters, canonicalize
            rows_read = self.rows_read

            try:
                for row in reader:
                    if not row:
                        continue
                    rows_read += 1
                    width = len(row)
                    if predicates and not passes(
                        {col: row[i] if i < width else None for col, i in filter_at}, predicates
                    ):
                        continue
                    values = []
                    for i, cache, col_type in joins:
                        cell = row[i] if i < width else None
                        if not cell:
                            break
                        item = cache.get(cell)
                        if item is None:
                            item = cache[cell] = canon(cell, col_type)
                        values.append(item)
                    else:
                        if delta_at is None:
                            delta = 1.0
                        else:
                            cell = row[delta_at] if delta_at < width else None
                            delta = delta_of.get(cell)
                            if delta is None:
                                try:
                                    delta = delta_of[cell] = float(int(cell.strip()))
                                except (ValueError, AttributeError) as exc:
                                    raise DataError(
                                        f"{self.path}: bad {DELTA_COLUMN} value {cell!r} "
                                        f"at data row {rows_read}"
                                    ) from exc
                        for column, item in zip(items, values):
                            column.append(item)
                        deltas.append(delta)
            finally:
                self.rows_read = rows_read
                self.rows_emitted += len(deltas)
        return {attr: column for (attr, _), column in zip(self._attr_cols, items)}, deltas

    def __iter__(self) -> Iterator[TupleUpdate]:
        columns, deltas = self.read()
        attrs = list(columns)
        relation = self.relation
        for values, delta in zip(zip(*columns.values()), deltas):
            yield TupleUpdate(relation=relation, values=dict(zip(attrs, values)), delta=delta)


def read_stream(graph: JoinGraph, relation: int, path: str | None = None) -> StreamReader:
    """Open a relation's source for single-pass streaming ingestion."""
    return StreamReader(graph, relation, path)


def read_columns(
    graph: JoinGraph, relation: int, path: str | None = None
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Read a relation's source as column arrays for bulk updates."""
    columns, deltas = read_stream(graph, relation, path).read()
    arrays = {attr: np.array(items, dtype=np.uint64) for attr, items in columns.items()}
    return arrays, np.array(deltas, dtype=np.float64)
