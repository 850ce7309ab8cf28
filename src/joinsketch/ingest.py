"""CSV ingestion: filter-at-read, canonicalization, tuple-update streams.

A source is read as bytes, in blocks of about BLOCK_BYTES that end at a
newline, and tokenized one of two ways:

- a *plain* block (no quote, CR or NUL byte, no blank line, and exactly
  width - 1 commas on every line, width being the header's) is split at
  commas and newlines in one pass, and column i of the block is every
  width-th cell from i; a cell longer than `csv.field_size_limit()` is
  an error here too, with csv.reader's message;
- from the first block that is not plain to the end of the file,
  `csv.reader` tokenizes instead, with csv.DictReader's row rules: blank
  lines are skipped, a short row's missing cells are None and a long
  row's extra cells are ignored.  An empty header line, or one with a
  quote, CR or NUL byte, sends the whole file there.  It is the path for
  quoted cells and CRLF lines.

Every plain block is decoded, which checks that it is UTF-8, but split
into str cells only when a filter, a str column, `__delta` or the int
fallback needs them.  The joined `int` columns of a plain block are
parsed by a numpy kernel straight from the block's bytes (vectorized
parsing as in Mühlbauer et al., "Instant Loading for Main Memory
Databases", PVLDB 2013).  A column of a block whose cells are not all 1
to 18 ASCII digits after an optional '-' (an empty cell, a space, a sign
'+', 19 digits or more) falls back to the str cells, as does every
block that csv.reader tokenizes.

Both tokenizers feed one column assembler.  Per block, it runs each
filter predicate over the distinct cells of its column, in predicate
order, on the rows still passing; drops rows with an empty (NULL) joined
cell, as NULL never joins; canonicalizes each distinct cell text of a
joined column once per read, bar the cells the int kernel parsed; and
parses each distinct `__delta` text once.  Integers keep their
two's-complement bit pattern; strings map through a fixed FNV-1a hash,
so equal strings always produce equal items without any cross-relation
dictionary.  Bulk sketching takes the assembled arrays, and the
per-tuple API iterates over them.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain, compress
from typing import Callable, Iterator

import numpy as np

from .errors import DataError, QueryError
from .joingraph import FilterPredicate, JoinGraph
from .sketch import COUNTER_LIMIT, TupleUpdate

_MASK64 = (1 << 64) - 1
_INT_MIN = -(1 << 63)

# FNV-1a 64-bit, seedless: offset basis and prime are fixed constants.
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

DELTA_COLUMN = "__delta"

# Bytes per read block: large enough that per-block work is noise, small
# enough that ingest holds one block's cells, not the file's.  Blocks of
# 8 to 64 KiB ingested equally fast; the peak memory grows with the block.
BLOCK_BYTES = 1 << 14
_NEWLINE, _COMMA, _MINUS, _ZERO = b"\n,-0"
# Every byte but a comma, a newline and the bytes only csv.reader handles.
_CELL_TEXT = bytes(b for b in range(256) if b not in b',\n"\r\0')
# Digits an int cell may have for the numpy kernel: 10^18 - 1 < 2^63, so
# a longer cell, which may be out of range, is left to `canonicalize`.
_KERNEL_DIGITS = 18

# A block's row count, its cells at a header position, and for a plain
# block, the int kernel at a header position (None if it falls back).
_Batch = tuple[int, Callable[[int], list], Callable[[int], np.ndarray | None] | None]


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def _parse_int(text: str) -> int:
    """Parse an int or __delta cell: ASCII decimal, no underscores, in [-2^63, 2^64).

    Raises ValueError otherwise.  Python's `int()` also accepts digit
    separators ("1_0") and non-ASCII digits, and a wider range, all of
    which would join silently under a wrong 64-bit item.  A text of at
    most 19 characters is always in range, so only longer ones pay for
    the big-int comparison.  This is the reference for the numpy kernel
    of plain blocks (`_PlainBlock.ints`) and parses every int cell that
    the kernel does not.
    """
    value = int(text)
    in_range = len(text) <= 19 or _INT_MIN <= value <= _MASK64
    if "_" in text or not text.isascii() or not in_range:
        raise ValueError(text)
    return value


def canonicalize(text: str, col_type: str) -> int:
    """Map a raw cell to its 64-bit item value."""
    if col_type == "int":
        try:
            return _parse_int(text.strip()) & _MASK64
        except ValueError as exc:
            raise DataError(f"cannot parse {text!r} as int") from exc
    if col_type == "str":
        return fnv1a64(text.encode("utf-8"))
    raise QueryError(f"unknown column type {col_type!r}")


def apply_filters(row: dict[str, str], predicates: list[FilterPredicate]) -> bool:
    """Conjunction of all predicates; empty cells (NULL) satisfy none."""
    return all(_passes(p, row.get(p.column)) for p in predicates)


def _passes(p: FilterPredicate, cell: str | None) -> bool:
    """One predicate on one cell; None is a cell missing from its row."""
    if cell is None:
        raise DataError(f"filter column {p.column!r} missing from row")
    if cell == "":
        return False
    if p.col_type == "int":
        try:
            left = _parse_int(cell.strip())
        except ValueError as exc:
            raise DataError(
                f"cannot compare {cell!r} in column {p.column!r} as int"
            ) from exc
    else:
        left = cell
    return _compare(left, p.op, p.value)


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


def _blocks(fh) -> Iterator[tuple[int, bytes]]:
    """(offset, bytes) of each block of a binary file: whole lines, about
    BLOCK_BYTES each, then whatever follows the last newline."""
    offset, carry = 0, b""
    while chunk := fh.read(BLOCK_BYTES):
        data = carry + chunk
        cut = data.rfind(b"\n") + 1
        if cut:
            yield offset, data[:cut]
            offset += cut
        carry = data[cut:]
    if carry:
        yield offset, carry


def _plain_rows(block: bytes, width: int) -> int:
    """The lines of `block`, whole lines ending in a newline, if splitting
    at commas and newlines reads it as csv.reader does, else 0.  It does if
    the block has no quote, CR or NUL byte, no blank line, and width - 1
    commas on every line."""
    # Left with its commas, newlines and special bytes only, a plain block
    # is one line pattern repeated; a blank line breaks it unless width is 1.
    structure = block.translate(None, _CELL_TEXT)
    rows = len(structure) // width
    if structure != (b"," * (width - 1) + b"\n") * rows:
        return 0
    return rows if width > 1 or not (block[0] == _NEWLINE or b"\n\n" in block) else 0


class _PlainBlock:
    """A plain block's cells: split into str on first use, or parsed as
    int items by a numpy kernel, one column at a time."""

    def __init__(self, block: bytes, width: int, rows: int):
        self.text = block.decode("utf-8")  # checks every block is UTF-8
        self.block = block
        self.width = width
        self.rows = rows
        self._cells: list[str] | None = None
        self._ends: np.ndarray | None = None

    def split(self) -> list[str]:
        if self._cells is None:
            self._cells = self.text.replace("\n", ",").split(",")
            self._cells.pop()  # the empty text after the final newline
        return self._cells

    def cells(self, at: int) -> list[str]:
        return self.split()[at :: self.width]

    def ints(self, at: int) -> np.ndarray | None:
        """Column `at` as uint64 items, as `canonicalize` gives them, or None
        unless every cell is 1 to 18 ASCII digits after an optional '-'.

        Each digit position, up to the longest cell of the column, is one
        gather from the block for every cell, most significant first: items
        times 10 plus the digit.  Eighteen digits cannot wrap, and a '-'
        negates in uint64, which gives the two's-complement pattern.
        """
        data = np.frombuffer(self.block, np.uint8)
        if self._ends is None:
            separators = np.flatnonzero((data == _COMMA) | (data == _NEWLINE))
            # The separator before each cell; the first cell's is at -1.
            self._ends = np.concatenate(([-1], separators))
        ends = self._ends
        start, end = ends[at : -1 : self.width] + 1, ends[at + 1 :: self.width]
        negative = data[start] == _MINUS
        digits = end - start - negative
        shortest, longest = int(digits.min()), int(digits.max())
        if shortest < 1 or longest > _KERNEL_DIGITS:
            return None
        items = np.zeros(self.rows, np.uint64)
        for k in range(longest - 1, -1, -1):
            # Digit k from the right.  A cell of k digits or fewer reads a byte
            # before it as a leading zero; before the block's first byte, the
            # index wraps to its end, as the block holds a longer cell.
            digit = data[end - (k + 1)] - _ZERO  # wraps below "0"
            if k >= shortest:
                digit *= digits > k
            if digit.max() > 9:
                return None
            items *= 10
            items += digit
        np.negative(items, out=items, where=negative)
        return items


def _tokenize(fh) -> Iterator[list[str] | _Batch]:
    """Yield the header row, then one _Batch per block."""
    blocks = _blocks(fh)
    first = next(blocks, (0, b""))[1]
    head, newline, rest = first.partition(b"\n")
    width = head.count(b",") + 1
    if not _plain_rows(head + b"\n", width):
        yield from _csv_tokenize(fh, 0, with_header=True)
        return
    header = head.decode("utf-8").split(",")
    _check_cell_length(head, lambda: header)
    yield header
    for offset, block in chain([(len(head) + len(newline), rest)], blocks):
        if not block:
            continue
        if block[-1] != _NEWLINE:  # the last line of a file without a final newline
            block += b"\n"
        rows = _plain_rows(block, width)
        if not rows:
            yield from _csv_tokenize(fh, offset, with_header=False)
            return
        plain = _PlainBlock(block, width, rows)
        _check_cell_length(block, plain.split)
        yield plain.rows, plain.cells, plain.ints


def _check_cell_length(block: bytes, cells: Callable[[], list[str]]) -> None:
    """Raise csv.reader's error for a cell longer than csv.field_size_limit(),
    so that both tokenizers accept the same cells.  A cell is no longer
    than the bytes of its block, so only a longer block is split."""
    limit = csv.field_size_limit()
    if len(block) > limit and max(map(len, cells())) > limit:
        raise csv.Error(f"field larger than field limit ({limit})")


def _csv_tokenize(fh, offset: int, with_header: bool) -> Iterator[list[str] | _Batch]:
    """csv.reader over the file from `offset` on: the header row if asked
    for, then one _Batch per BLOCK_BYTES characters of text, blank lines
    left out."""
    fh.seek(offset)
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    fed = 0

    def lines():
        nonlocal fed
        for line in text:
            fed += len(line)
            yield line

    reader = csv.reader(lines())
    if with_header:
        header = next(reader, None)
        if header is None:
            return
        yield header
    rows: list[list[str]] = []
    for row in reader:
        if row:
            rows.append(row)
        if rows and fed >= BLOCK_BYTES:
            yield _row_batch(rows)
            rows, fed = [], 0
    if rows:
        yield _row_batch(rows)


def _row_batch(rows: list[list[str]]) -> _Batch:
    return len(rows), lambda at: [row[at] if at < len(row) else None for row in rows], None


def _take(cells: list, kept) -> list:
    """The cells of the rows in `kept`, positions in ascending order."""
    return cells if len(kept) == len(cells) else list(map(cells.__getitem__, kept))


def _at(values: np.ndarray, kept) -> np.ndarray:
    """A block's values at the rows in `kept`, positions in ascending order."""
    return values if len(kept) == len(values) else values[np.fromiter(kept, np.intp, len(kept))]


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


class StreamReader:
    """Single-pass reader of one relation's source.

    `read()` tokenizes the file block by block and assembles one array of
    items per joined attribute plus the deltas; iterating the reader
    yields one TupleUpdate per passing row from those arrays.
    `rows_read` counts every data row seen; each is then counted once in
    `rows_filtered` (failed a filter), `rows_null` (an empty joined cell)
    or `rows_emitted` (passed filters and NULL dropping).
    """

    def __init__(self, graph: JoinGraph, relation: int, path: str | None = None):
        self.graph = graph
        self.relation = relation
        decl = graph.spec.relations[relation]
        self.decl = decl
        self.path = path if path is not None else decl.source
        self.rows_read = 0
        self.rows_filtered = 0
        self.rows_null = 0
        self.rows_emitted = 0
        self._attr_cols = [(graph.attr_id(relation, col), col) for col in decl.join_columns]

    def read(self) -> tuple[dict[int, np.ndarray], np.ndarray]:
        """Parse the source into uint64 item arrays keyed by attribute id,
        and float64 deltas.

        The int kernel parses the joined int columns of a plain block.
        Otherwise `canonicalize` runs once per distinct cell text of a
        column; each column has its own cache, as one text maps to
        different items under different column types.
        """
        try:
            fh = open(self.path, "rb")
        except OSError as exc:
            raise DataError(f"cannot open {self.path!r}: {exc}") from exc
        with fh:
            try:
                return self._assemble(_tokenize(fh))
            except UnicodeDecodeError as exc:
                raise DataError(f"{self.path}: not UTF-8 text: {exc}") from exc
            except csv.Error as exc:
                raise DataError(f"{self.path}: {exc}") from exc

    def _assemble(
        self, tokens: Iterator[list[str] | _Batch]
    ) -> tuple[dict[int, np.ndarray], np.ndarray]:
        decl, path = self.decl, self.path
        header = next(tokens, None)
        if header is None:
            raise DataError(f"{path}: missing header row")
        # A repeated header name maps to its last position, as in DictReader.
        position = {name: i for i, name in enumerate(header)}
        needed = set(decl.join_columns) | {p.column for p in decl.filters}
        missing = needed - position.keys()
        if missing:
            raise DataError(f"{path}: missing column(s) {sorted(missing)}")
        delta_at = position.get(DELTA_COLUMN)
        filters = [(p, position[p.column], {}) for p in decl.filters]
        joins = [(position[col], decl.column_types[col], {}) for _, col in self._attr_cols]
        items: list[list[np.ndarray]] = [[] for _ in joins]
        deltas: list[np.ndarray] = []
        delta_of: dict[str | None, int] = {}
        delta_sum = 0

        for n, column, ints in tokens:
            first_row = self.rows_read  # data rows before this block
            self.rows_read += n
            kept = range(n)  # block positions of the rows still passing
            for p, at, verdict in filters:
                cells = _take(column(at), kept)
                for cell in dict.fromkeys(cells):
                    if cell not in verdict:
                        verdict[cell] = _passes(p, cell)
                kept = list(compress(kept, map(verdict.__getitem__, cells)))
            self.rows_filtered += n - len(kept)

            # Join columns in declared order: a row leaves at its first NULL
            # cell, so its later cells are never canonicalized.  A column the
            # int kernel parses has no NULL cell; it keeps the whole block's
            # items, taken at the kept rows once the NULL cells are known.
            passed = len(kept)
            joined: list[list[str] | np.ndarray] = []
            for at, col_type, cache in joins:
                parsed = ints(at) if ints and col_type == "int" else None
                if parsed is not None:
                    joined.append(parsed)
                    continue
                cells = _take(column(at), kept)
                if not all(cells):
                    whole = list(map(bool, cells))
                    kept = list(compress(kept, whole))
                    cells = list(compress(cells, whole))
                    joined = [
                        done if isinstance(done, np.ndarray) else list(compress(done, whole))
                        for done in joined
                    ]
                for cell in dict.fromkeys(cells):
                    if cell not in cache:
                        cache[cell] = canonicalize(cell, col_type)
                joined.append(cells)
            self.rows_null += passed - len(kept)
            for (_, _, cache), done, out in zip(joins, joined, items):
                if isinstance(done, np.ndarray):
                    out.append(_at(done, kept))
                else:
                    out.append(np.fromiter(map(cache.__getitem__, done), np.uint64, len(done)))

            if delta_at is None:
                deltas.append(np.ones(len(kept)))
            else:
                cells = _take(column(delta_at), kept)
                counts = Counter(cells)
                for cell in counts:
                    if cell not in delta_of:
                        try:
                            delta_of[cell] = _parse_int(cell.strip())
                        except (ValueError, AttributeError) as exc:
                            row = first_row + 1 + kept[cells.index(cell)]
                            raise DataError(
                                f"{path}: bad {DELTA_COLUMN} value {cell!r} at data row {row}"
                            ) from exc
                delta_sum += sum(abs(delta_of[cell]) * c for cell, c in counts.items())
                if delta_sum >= COUNTER_LIMIT:
                    raise DataError(
                        f"{path}: |{DELTA_COLUMN}| values sum to 2^53 or more in the first "
                        f"{self.rows_read} data rows; counters are exact only below that"
                    )
                values = map(delta_of.__getitem__, cells)
                deltas.append(np.fromiter(values, np.float64, len(cells)))
            self.rows_emitted += len(kept)

        attrs = [attr for attr, _ in self._attr_cols]
        columns = {attr: _concat(parts, np.uint64) for attr, parts in zip(attrs, items)}
        return columns, _concat(deltas, np.float64)

    def __iter__(self) -> Iterator[TupleUpdate]:
        columns, deltas = self.read()
        attrs = list(columns)
        relation = self.relation
        rows = zip(*(items.tolist() for items in columns.values()))
        for values, delta in zip(rows, deltas.tolist()):
            yield TupleUpdate(relation=relation, values=dict(zip(attrs, values)), delta=delta)


def read_stream(graph: JoinGraph, relation: int, path: str | None = None) -> StreamReader:
    """Open a relation's source for single-pass streaming ingestion."""
    return StreamReader(graph, relation, path)


def read_columns(
    graph: JoinGraph, relation: int, path: str | None = None
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Read a relation's source as column arrays for bulk updates."""
    return read_stream(graph, relation, path).read()
