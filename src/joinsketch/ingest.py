"""CSV ingestion: filter-at-read, canonicalization, tuple-update streams.

A source is read as bytes, in blocks of about BLOCK_BYTES that end at a
newline, and tokenized one of two ways:

- a *plain* block (no quote, CR or NUL byte, no blank line, and exactly
  width - 1 commas on every line, width being the header's): a byte
  search rejects the three bytes, then one numpy pass indexes its commas
  and newlines, which must be width per newline with every width-th a
  newline (at width 1, none first or right after another); column i of
  the block is every width-th cell from i; a cell longer than
  `csv.field_size_limit()` is an error here too, with csv.reader's
  message;
- from the first block that is not plain to the end of the file,
  `csv.reader` tokenizes instead, with csv.DictReader's row rules: blank
  lines are skipped, a short row's missing cells are None and a long
  row's extra cells are ignored.  An empty header line, or one with a
  quote, CR or NUL byte, sends the whole file there.  It is the path for
  quoted cells and CRLF lines.

Every plain block is decoded, which checks that it is UTF-8.  numpy
kernels then read its columns straight from the block's bytes, through
the separator index the plain check built (vectorized parsing as in
Mühlbauer et al., "Instant Loading for Main Memory Databases", PVLDB
2013):

- a joined `str` column is hashed with FNV-1a over each cell's UTF-8
  bytes, all cells at once through a byte window that ends at each
  cell's separator, in rounds over the cells longer than the last
  window; the last few long cells are hashed in Python; an empty cell
  is NULL;
- a str `=` or `!=` filter compares each cell's bytes with the UTF-8
  encoding of its value, never a hash; an empty cell passes neither
  (parsing rejects an ordering operator on a str column);
- a joined `int` column and `__delta` are parsed one digit position at
  a time, if every cell of the block's column is empty or 1 to 18 ASCII
  digits after an optional '-'; an empty cell is NULL.

A column the kernels decline (an int cell with a space, a '+', 19
digits or more, or a lone '-', and any int filter) is read from the
block split into str cells, for that block only, as is every block that
csv.reader tokenizes, and so is a `__delta` column with an empty cell,
which is an error in a kept row.  A block no column declines, and with
no cell over the length limit in bytes, is never split.

Both tokenizers feed one column assembler, where a kernel column and a
str-cell column alike come back as block-length uint64 arrays plus a
mask of the rows they keep.  Per block, it runs the filters in predicate
order; then the joined columns in declared order, dropping a row at its
first empty (NULL) cell, as NULL never joins; then `__delta`, as
float64 from parse to sketch.  The str path reads only the rows still
kept, so a bad cell in a row already dropped is never parsed, and it
parses each distinct cell text of a column once per read.  Integers
keep their two's-complement bit pattern; strings map through a fixed
FNV-1a hash, so equal strings always produce equal items without any
cross-relation dictionary.  Bulk sketching takes the assembled arrays,
and the per-tuple API iterates over them.
"""

from __future__ import annotations

import csv
import io
from functools import partial
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .errors import DataError, QueryError
from .joingraph import FILTER_OPS, FilterPredicate, JoinGraph
from .sketch import COUNTER_LIMIT, TupleUpdate

_MASK64 = (1 << 64) - 1
_INT_MIN = -(1 << 63)

# FNV-1a 64-bit, seedless: offset basis and prime are fixed constants.
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_FNV_PRIME_INVERSE = pow(FNV_PRIME, -1, 1 << 64)

DELTA_COLUMN = "__delta"

# Bytes per read block: large enough that each numpy call of a kernel
# covers thousands of rows, small enough that ingest holds one block's
# cells, not the file's.  With blocks of 16, 32, 64, 128 and 256 KiB,
# read_columns of every relation (seed 3; median of 27 reads, the sizes
# interleaved in one process; 2 CPUs, numpy 2.4) read chain3-str-turnstile
# in 24.2, 17.8, 14.7, 15.1 and 15.9 ms, and chain3-int in 6.6, 6.1, 6.1,
# 6.5 and 6.6 ms; a second process read each within 0.4 ms of these.
BLOCK_BYTES = 1 << 16
_NEWLINE, _COMMA, _MINUS, _ZERO = b"\n,-0"
# Digits an int cell may have for the numpy kernel: 10^18 - 1 < 2^63, so
# a longer cell, which may be out of range, is left to `canonicalize`.
_KERNEL_DIGITS = 18
# A str window is at most the shortest that fewer than this many of its
# cells overrun: each window position costs a numpy step over every cell,
# so a few long cells must not set its length.  Once fewer cells than this
# are left, hashing them in Python costs less than those numpy steps.
_FEW_CELLS = 16
# Nor is a window longer than this many times the mean length of the cells
# it reads, so that it costs about that many times their bytes; the cells
# that overrun it, fewer than 1 in this many, are read by a further window.
_WINDOW_SPAN = 2


def fnv1a64(data: bytes) -> int:
    """FNV-1a of `data`; `_PlainBlock.hashes` gives it for a whole column."""
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
    return FILTER_OPS[p.op](left, p.value)


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


def _separators(block: bytes, width: int) -> np.ndarray | None:
    """The offset of every comma and newline of `block`, whole lines ending
    in a newline, if splitting there reads it as csv.reader does, else None.
    It does if the block has no quote, CR or NUL byte, no blank line, and
    width - 1 commas on every line: with width separators per newline, if
    every width-th one is a newline, as then no other is."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    data = np.frombuffer(block, np.uint8)
    separator = data == _NEWLINE
    rows = np.count_nonzero(separator)
    separator |= data == _COMMA
    separators = np.flatnonzero(separator)
    if len(separators) != rows * width:
        return None
    if width == 1:  # all are newlines: a blank line is one first or after another
        plain = not (separator[0] or (separator[1:] & separator[:-1]).any())
    else:  # a blank line has too few commas
        plain = (data[separators[width - 1 :: width]] == _NEWLINE).all()
    return separators if plain else None


class _PlainBlock:
    """A plain block's columns, read by numpy kernels from the block's bytes
    through one separator index, or split into str cells for a column that
    a kernel declines."""

    def __init__(self, block: bytes, width: int, separators: np.ndarray):
        self.text = block.decode("utf-8")  # checks every block is UTF-8
        self.block = block
        self.width = width
        self.rows = len(separators) // width
        self._cells: list[str] | None = None
        self._data = np.frombuffer(block, np.uint8)
        # The separator before each cell; the first cell's is at -1.
        self._ends = np.concatenate(([-1], separators))

    def split(self) -> list[str]:
        if self._cells is None:
            self._cells = self.text.replace("\n", ",").split(",")
            self._cells.pop()  # the empty text after the final newline
        return self._cells

    def cells(self, at: int) -> list[str]:
        return self.split()[at :: self.width]

    def check_cell_length(self) -> None:
        """Raise csv.reader's error for a cell longer than csv.field_size_limit(),
        so that both tokenizers accept the same cells.  A cell has no fewer
        bytes than characters, so only a block with a longer cell in bytes,
        read from the separators, is split."""
        limit = csv.field_size_limit()
        if (len(self.block) > limit and int(np.diff(self._ends).max()) - 1 > limit
                and max(map(len, self.split())) > limit):
            raise csv.Error(f"field larger than field limit ({limit})")

    def _bounds(self, at: int) -> tuple[np.ndarray, np.ndarray]:
        """Offsets of the first byte of each cell of column `at`, and of the
        separator after it."""
        return self._ends[at : -1 : self.width] + 1, self._ends[at + 1 :: self.width]

    def items(self, at: int, col_type: str) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Column `at` as `canonicalize` gives its items, and which cells are
        not empty (None if all are), or None if the kernel of `col_type`
        declines the column."""
        return self.hashes(at) if col_type == "str" else self.ints(at)

    def ints(self, at: int) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Column `at` as uint64 items, an empty cell as 0, and which cells
        are not empty (None if all are); or None unless every cell is empty
        or 1 to 18 ASCII digits after an optional '-'.

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
        if longest > _KERNEL_DIGITS:
            return None
        present = None
        if shortest < 1:
            present = digits > 0
            if (negative & ~present).any():  # a lone '-'
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
        return items, present

    def hashes(self, at: int) -> tuple[np.ndarray, np.ndarray]:
        """FNV-1a of the UTF-8 bytes of each cell of column `at`, and which
        cells are not empty.

        The cells are hashed in rounds, each through one window of the
        bytes that end at every cell's separator.  A round's window is the
        shortest that fewer than _FEW_CELLS of its cells overrun, but at
        most _WINDOW_SPAN times their mean length, so that a few long cells
        cannot make every short one pay for their length.  The cells that
        overrun it are the next round's; once fewer than _FEW_CELLS are
        left, they are hashed whole in Python.
        """
        start, end = self._bounds(at)
        length = end - start
        hashes = np.empty(self.rows, np.uint64)
        left, ends, lengths = slice(None), end, length  # the cells no round has hashed
        while len(lengths) >= _FEW_CELLS:
            kth = len(lengths) - _FEW_CELLS
            mean = -(-int(lengths.sum()) // len(lengths))
            window = min(int(np.partition(lengths, kth)[kth]), _WINDOW_SPAN * mean)
            hashes[left] = self._window_hashes(ends, lengths, window)
            # Windows only grow, so the cells left are all that this one overruns.
            left = np.flatnonzero(length > window)
            ends, lengths = end[left], length[left]
        spans = zip(start[left].tolist(), ends.tolist())
        hashes[left] = [fnv1a64(self.block[a:b]) for a, b in spans]
        return hashes, length > 0

    def _window_hashes(self, end: np.ndarray, length: np.ndarray, window: int) -> np.ndarray:
        """FNV-1a of the `window` bytes before each separator `end`, with
        the bytes before a cell of `length` bytes read as 0: the cell's hash
        if it is at most `window` bytes long.

        FNV-1a on a 0 byte only multiplies by the prime, which is odd and so
        has an inverse modulo 2^64; a cell of n bytes therefore starts at
        FNV_OFFSET * FNV_PRIME^-(window - n), and its window - n zero bytes
        bring it to FNV_OFFSET at its first byte.  Each window position is
        then one XOR and one multiply of every cell: no sort, slice or
        scatter.
        """
        # The start states: FNV_OFFSET * FNV_PRIME^-j for j zero bytes.
        states = np.full(window + 1, _FNV_PRIME_INVERSE, np.uint64)
        states[0] = FNV_OFFSET
        np.multiply.accumulate(states, out=states)  # wraps modulo 2^64
        hashes = states[window - np.minimum(length, window)]
        # One position at a time, so that no temporary outgrows the cells'
        # own arrays.  A byte before the block reads from its end, and is
        # masked to 0 like any byte before a cell.
        for back in range(window, 0, -1):
            row = self._data[end - back]
            row *= length >= back
            hashes ^= row
            hashes *= FNV_PRIME  # wraps modulo 2^64
        return hashes

    def matches(self, at: int, p: FilterPredicate) -> np.ndarray | None:
        """Which cells of column `at` pass a str `=` or `!=` predicate, or
        None for an int predicate.  A cell equals the value when its bytes
        are the value's UTF-8 encoding; an empty cell passes none."""
        if p.col_type != "str":
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
    if (separators := _separators(head + b"\n", width)) is None:
        yield from _csv_tokenize(fh, 0, with_header=True)
        return
    header = _PlainBlock(head + b"\n", width, separators)
    header.check_cell_length()
    yield header.text[:-1].split(",")
    for offset, block in chain([(len(head) + len(newline), rest)], blocks):
        if not block:
            continue
        if block[-1] != _NEWLINE:  # the last line of a file without a final newline
            block += b"\n"
        if (separators := _separators(block, width)) is None:
            yield from _csv_tokenize(fh, offset, with_header=False)
            return
        plain = _PlainBlock(block, width, separators)
        plain.check_cell_length()
        yield plain


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
# parsed once per read into a block-length array, as the kernels return.

# A join cell on the str path: its item, and whether it is present (not NULL).
_ITEM = np.dtype([("item", np.uint64), ("present", bool)])


def _item(col_type: str, cell: str | None) -> np.void:
    """A join cell as an _ITEM scalar, which `np.fromiter` copies about
    1.5 times faster than a tuple; an empty or missing cell is NULL."""
    return np.void((canonicalize(cell, col_type), True) if cell else (0, False), _ITEM)


def _parsed_cells(batch: _Batch, at: int, keep: np.ndarray, parse: Callable,
                  cache: dict, dtype) -> np.ndarray:
    """`parse` of column `at`'s cell in each row in `keep`, zero in the
    other rows.  `cache` holds the column's parsed cell texts across
    blocks, so `parse` sees each distinct text once."""
    rows = np.flatnonzero(keep)
    cells = batch.cells(at)
    if len(rows) < len(cells):
        cells = list(map(cells.__getitem__, rows.tolist()))
    for cell in dict.fromkeys(cells):
        if cell not in cache:
            cache[cell] = parse(cell)
    values = np.zeros(batch.rows, dtype)
    values[rows] = np.fromiter(map(cache.__getitem__, cells), dtype, len(cells))
    return values


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
        delta_of: dict[str | None, float] = {}
        delta_sum = 0.0

        def parse_delta(cell: str | None) -> float:
            try:
                return float(_parse_int(cell.strip()))
            except (ValueError, AttributeError) as exc:
                column = batch.cells(delta_at)
                row = next(i for i in np.flatnonzero(keep).tolist() if column[i] == cell)
                raise DataError(
                    f"{path}: bad {DELTA_COLUMN} value {cell!r} at data row {first_row + 1 + row}"
                ) from exc

        for batch in tokens:
            first_row = self.rows_read  # data rows before this block
            self.rows_read += batch.rows
            keep = np.ones(batch.rows, bool)  # the rows still passing
            for p, at, verdict in filters:
                passed = batch.matches(at, p)
                if passed is None:
                    passed = _parsed_cells(batch, at, keep, partial(_passes, p), verdict, bool)
                keep &= passed
            passing = int(np.count_nonzero(keep))
            self.rows_filtered += batch.rows - passing

            # Join columns in declared order: a row leaves at its first NULL
            # cell, so the str path never reads its later cells.
            joined = []
            for at, col_type, cache in joins:
                got = batch.items(at, col_type)
                if got is None:
                    cells = _parsed_cells(batch, at, keep, partial(_item, col_type), cache, _ITEM)
                    got = cells["item"], cells["present"]
                values, present = got
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
                # An empty cell is an error in a kept row only, with its row
                # number: the str path finds both.
                got = batch.items(delta_at, "int")
                if got is None or got[1] is not None:
                    values = _parsed_cells(batch, delta_at, keep, parse_delta, delta_of,
                                           np.float64)[kept]
                else:
                    values = got[0][kept].view(np.int64).astype(np.float64)
                # A magnitude below 2^53 is exact in float64 and one of 2^53 or
                # more rounds to 2^53 or more.  Rounding is monotone and every
                # term is non-negative, so any float64 summation order reaches
                # 2^53 exactly when the integer sum does.
                delta_sum += float(np.abs(values).sum())
                if delta_sum >= COUNTER_LIMIT:
                    raise DataError(
                        f"{path}: |{DELTA_COLUMN}| values sum to 2^53 or more in the first "
                        f"{self.rows_read} data rows; counters are exact only below that"
                    )
                deltas.append(values)
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
