"""CSV ingestion: filter-at-read, canonicalization, tuple-update streams.

A source is read as bytes, in blocks of about BLOCK_BYTES that end at a
newline, and tokenized one of two ways:

- a *plain* block (no quote, CR or NUL byte, no blank line, and exactly
  width - 1 commas on every line, width being the header's): one pass
  finds its commas and newlines, and column i of the block is every
  width-th cell from i; a cell longer than `csv.field_size_limit()` is
  an error here too, with csv.reader's message;
- from the first block that is not plain to the end of the file,
  `csv.reader` tokenizes instead, with csv.DictReader's row rules: blank
  lines are skipped, a short row's missing cells are None and a long
  row's extra cells are ignored.  An empty header line, or one with a
  quote, CR or NUL byte, sends the whole file there.  It is the path for
  quoted cells and CRLF lines.

Every plain block is decoded, which checks that it is UTF-8.  numpy
kernels then read its columns straight from the block's bytes, through
one index of its separators (vectorized parsing as in Mühlbauer et al.,
"Instant Loading for Main Memory Databases", PVLDB 2013):

- a joined `str` column is hashed with FNV-1a over each cell's UTF-8
  bytes, one byte position at a time for the cells that still have one;
  an empty cell is NULL;
- a str `=` or `!=` filter compares each cell's bytes with the UTF-8
  encoding of its value, never a hash; an empty cell passes neither;
- a joined `int` column and `__delta` are parsed one digit position at
  a time, if every cell of the block's column is 1 to 18 ASCII digits
  after an optional '-'.

A column the kernels decline (an int cell with a space, a '+', no digit
or 19 digits or more, and any int filter) is read from the block split
into str cells, for that block only, as is every block that csv.reader
tokenizes.  A block no column declines is never split.

Both tokenizers feed one column assembler, where a kernel column and a
str-cell column alike come back as block-length uint64 arrays plus a
mask of the rows they keep.  Per block, it runs the filters in predicate
order; then the joined columns in declared order, dropping a row at its
first empty (NULL) cell, as NULL never joins; then `__delta`.  The str
path reads only the rows still kept, so a bad cell in a row already
dropped is never parsed, and it parses each distinct cell text of a
column once per read.  Integers keep their two's-complement bit
pattern; strings map through a fixed FNV-1a hash, so equal strings
always produce equal items without any cross-relation dictionary.  Bulk
sketching takes the assembled arrays, and the per-tuple API iterates
over them.
"""

from __future__ import annotations

import csv
import io
from itertools import chain
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
# Once fewer str cells than this still have bytes to hash, each numpy step
# costs more than finishing those cells one byte at a time in Python; a
# single long cell would otherwise cost one numpy step per byte.
_FEW_CELLS = 16


def fnv1a64(data: bytes, h: int = FNV_OFFSET) -> int:
    """FNV-1a of `data`; `h` is the hash of the bytes before it, if any."""
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
    """Conjunction of all predicates; empty cells (NULL) satisfy none.

    The row-at-a-time reference that the tests hold `StreamReader` to; the
    reader itself filters whole blocks.  It stays in the package because
    the benchmark's per-layer probe patches it by name, as it does
    `canonicalize`.
    """
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
    """A plain block's columns, read by numpy kernels from the block's bytes
    through one separator index, or split into str cells for a column that
    a kernel declines."""

    def __init__(self, block: bytes, width: int, rows: int):
        self.text = block.decode("utf-8")  # checks every block is UTF-8
        self.block = block
        self.width = width
        self.rows = rows
        self._cells: list[str] | None = None
        self._data = np.frombuffer(block, np.uint8)
        separators = np.flatnonzero((self._data == _COMMA) | (self._data == _NEWLINE))
        # The separator before each cell; the first cell's is at -1.
        self._ends = np.concatenate(([-1], separators))

    def split(self) -> list[str]:
        if self._cells is None:
            self._cells = self.text.replace("\n", ",").split(",")
            self._cells.pop()  # the empty text after the final newline
        return self._cells

    def cells(self, at: int) -> list[str]:
        return self.split()[at :: self.width]

    def _bounds(self, at: int) -> tuple[np.ndarray, np.ndarray]:
        """Offsets of the first byte of each cell of column `at`, and of the
        separator after it."""
        return self._ends[at : -1 : self.width] + 1, self._ends[at + 1 :: self.width]

    def items(self, at: int, col_type: str) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Column `at` as `canonicalize` gives its items, and which cells are
        not empty (None if all are), or None if the kernel of `col_type`
        declines the column."""
        if col_type == "str":
            return self.hashes(at)
        items = self.ints(at)
        return None if items is None else (items, None)

    def ints(self, at: int) -> np.ndarray | None:
        """Column `at` as uint64 items, or None unless every cell is 1 to 18
        ASCII digits after an optional '-'.

        Each digit position, up to the longest cell of the column, is one
        gather from the block for every cell, most significant first: items
        times 10 plus the digit.  Eighteen digits cannot wrap, and a '-'
        negates in uint64, which gives the two's-complement pattern.
        """
        data = self._data
        start, end = self._bounds(at)
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

    def hashes(self, at: int) -> tuple[np.ndarray, np.ndarray]:
        """FNV-1a of the UTF-8 bytes of each cell of column `at`, and which
        cells are not empty.

        The cells are sorted longest first, so the cells that still have a
        byte at position k are a prefix of that order, and each position
        updates only them: the work is the column's bytes, not its rows
        times its longest cell.  The last few cells finish in Python.
        """
        start, end = self._bounds(at)
        length = end - start
        order = np.argsort(length, kind="stable")[::-1]
        first, last = start[order], end[order]
        # live[k]: the cells longer than k bytes.
        live = (self.rows - np.cumsum(np.bincount(length))[:-1]).tolist()
        hashes = np.full(self.rows, FNV_OFFSET, np.uint64)
        k = 0
        while k < len(live) and live[k] >= _FEW_CELLS:
            h = hashes[: live[k]]
            h ^= self._data[first[: live[k]] + k]
            h *= FNV_PRIME  # wraps modulo 2^64
            k += 1
        if k < len(live):
            few = live[k]
            spans = zip(first[:few].tolist(), last[:few].tolist(), hashes[:few].tolist())
            hashes[:few] = [fnv1a64(self.block[a + k : b], h) for a, b, h in spans]
        items = np.empty_like(hashes)
        items[order] = hashes
        return items, length > 0

    def matches(self, at: int, p: FilterPredicate) -> np.ndarray | None:
        """Which cells of column `at` pass a str `=` or `!=` predicate, or
        None for any other predicate.  A cell equals the value when its
        bytes are the value's UTF-8 encoding; an empty cell passes none."""
        if p.col_type != "str" or p.op not in ("=", "!="):
            return None
        start, end = self._bounds(at)
        # A lone surrogate keeps its bytes, which no UTF-8 cell has.
        value = p.value.encode("utf-8", "surrogatepass")
        same = end - start == len(value)
        rows = np.flatnonzero(same)
        if value and len(rows):
            window = self._data[start[rows, None] + np.arange(len(value))]
            same[rows] = (window == np.frombuffer(value, np.uint8)).all(axis=1)
        return (same if p.op == "=" else ~same) & (end > start)


class _RowBatch:
    """Rows that csv.reader tokenized: every column is read from str cells."""

    def __init__(self, rows: list[list[str]]):
        self.rows = len(rows)
        self._rows = rows

    def cells(self, at: int) -> list[str | None]:
        """Column `at`, None for a row too short to have it."""
        return [row[at] if at < len(row) else None for row in self._rows]

    def items(self, at: int, col_type: str) -> None:
        return None

    def matches(self, at: int, p: FilterPredicate) -> None:
        return None


_Batch = _PlainBlock | _RowBatch


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
        yield plain


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
            yield _RowBatch(rows)
            rows, fed = [], 0
    if rows:
        yield _RowBatch(rows)


# The str path: what a batch's kernels decline is read from its str cells,
# only in the rows still kept, and each distinct cell text of a column is
# parsed once per read.  Each returns block-length arrays, as the kernels do.


def _kept_cells(batch: _Batch, at: int, keep: np.ndarray) -> tuple[np.ndarray, list]:
    """The rows in `keep`, ascending, and their str cells of column `at`."""
    rows = np.flatnonzero(keep)
    cells = batch.cells(at)
    return rows, cells if len(rows) == len(cells) else list(map(cells.__getitem__, rows.tolist()))


def _filter_cells(batch: _Batch, at: int, keep: np.ndarray, p: FilterPredicate,
                  verdict: dict) -> np.ndarray:
    """Which rows in `keep` pass `p` on their cell at `at`."""
    rows, cells = _kept_cells(batch, at, keep)
    for cell in dict.fromkeys(cells):
        if cell not in verdict:
            verdict[cell] = _passes(p, cell)
    passed = np.zeros(batch.rows, bool)
    passed[rows] = np.fromiter(map(verdict.__getitem__, cells), bool, len(cells))
    return passed


def _canonical_cells(batch: _Batch, at: int, keep: np.ndarray, col_type: str,
                     cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """The items of the rows in `keep` at `at`, and which of those rows have
    a cell there that is not empty (NULL)."""
    rows, cells = _kept_cells(batch, at, keep)
    present = np.zeros(batch.rows, bool)
    present[rows] = np.fromiter(map(bool, cells), bool, len(cells))
    cells = list(filter(None, cells))
    for cell in dict.fromkeys(cells):
        if cell not in cache:
            cache[cell] = canonicalize(cell, col_type)
    items = np.zeros(batch.rows, np.uint64)
    items[present] = np.fromiter(map(cache.__getitem__, cells), np.uint64, len(cells))
    return items, present


def _delta_cells(batch: _Batch, at: int, keep: np.ndarray, first_row: int,
                 delta_of: dict, path: str) -> np.ndarray:
    """The deltas of the rows in `keep`, as uint64 two's-complement patterns.
    A value of magnitude 2^53 or more is clipped to 2^53: the bound on the
    sum of magnitudes fails either way, and clipped, every value fits int64."""
    rows, cells = _kept_cells(batch, at, keep)
    for cell in dict.fromkeys(cells):
        if cell not in delta_of:
            try:
                value = _parse_int(cell.strip())
            except (ValueError, AttributeError) as exc:
                row = first_row + 1 + int(rows[cells.index(cell)])
                raise DataError(
                    f"{path}: bad {DELTA_COLUMN} value {cell!r} at data row {row}"
                ) from exc
            delta_of[cell] = max(-COUNTER_LIMIT, min(value, COUNTER_LIMIT)) & _MASK64
    values = np.zeros(batch.rows, np.uint64)
    values[rows] = np.fromiter(map(delta_of.__getitem__, cells), np.uint64, len(cells))
    return values


def _abs_sum(values: np.ndarray) -> int:
    """The exact sum of |values| of an int64 array whose values are below
    2^60 in magnitude, as an int: a sum that could pass 2^63 is taken in
    Python ints instead of wrapping."""
    magnitudes = np.abs(values)
    if int(magnitudes.max(initial=0)) * len(values) < 1 << 63:
        return int(magnitudes.sum())
    return sum(magnitudes.tolist())


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

        The numpy kernels read the columns of a plain block.  For a column
        they decline, and in every block csv.reader tokenizes,
        `canonicalize` runs once per distinct cell text of a column; each
        column has its own cache, as one text maps to different items under
        different column types.
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

        for batch in tokens:
            first_row = self.rows_read  # data rows before this block
            self.rows_read += batch.rows
            keep = np.ones(batch.rows, bool)  # the rows still passing
            for p, at, verdict in filters:
                passed = batch.matches(at, p)
                keep &= _filter_cells(batch, at, keep, p, verdict) if passed is None else passed
            passing = int(np.count_nonzero(keep))
            self.rows_filtered += batch.rows - passing

            # Join columns in declared order: a row leaves at its first NULL
            # cell, so the str path never reads its later cells.
            joined = []
            for at, col_type, cache in joins:
                got = batch.items(at, col_type)
                values, present = got or _canonical_cells(batch, at, keep, col_type, cache)
                if present is not None:
                    keep &= present
                joined.append(values)
            kept = np.flatnonzero(keep)
            self.rows_null += passing - len(kept)
            whole = len(kept) == batch.rows
            for values, out in zip(joined, items):
                out.append(values if whole else values[kept])

            if delta_at is None:
                deltas.append(np.ones(len(kept)))
            else:
                got = batch.items(delta_at, "int")
                if got is None:
                    values = _delta_cells(batch, delta_at, keep, first_row, delta_of, path)
                else:
                    values = got[0]
                values = values[kept].view(np.int64)
                delta_sum += _abs_sum(values)
                if delta_sum >= COUNTER_LIMIT:
                    raise DataError(
                        f"{path}: |{DELTA_COLUMN}| values sum to 2^53 or more in the first "
                        f"{self.rows_read} data rows; counters are exact only below that"
                    )
                deltas.append(values.astype(np.float64))
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
