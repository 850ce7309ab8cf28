"""Binary sketch file format JSK2 (little-endian, exact round trip).

Layout: magic "JSK2"; method u8 (0=conv, 1=ams), m u64, l u32, master
seed u64, the 32-byte query fingerprint and the relation count u32; then
per relation a u32 name length, the UTF-8 name, a u8 encoding tag, zero
padding to the next multiple of GRID_ALIGN bytes, and the l*m counter
grid in repetition-major order, in the dtype its tag names.

Each grid is stored as the narrowest of int16, int32 and int64 (tags 1,
2 and 3) that holds it exactly: every |counter| below 2^15, 2^31 or 2^53
(COUNTER_LIMIT), and every counter an integer, which a cast and its
round trip check rather than assume.  Any other grid, with a fractional,
NaN or infinite counter or a -0.0, is stored as float64 (tag 0).  Built
counters are integers, so a built grid takes 2 bytes per counter until
a counter reaches 2^15.  `load_sketch_file` returns each grid in its
stored dtype; the estimators read its rows as float64 where they use
them, never a whole grid, so an estimate equals the one from float64
grids bit for bit.

The fingerprint is a sha256 over what the counters depend on besides
the rows and m (`_digest`), computed once per query per process.
`load_sketch_file` given the query's join graph raises QueryError for a
file sketched for another query before it reads any grid.  m is a plain
header value, so a sketch folded to a divisor of its m can keep its
fingerprint.  A JSK1 file (float64 grids, no fingerprint) is a DataError
that asks for a new `sketch`.

A file whose encoded grids total at least MAP_BYTES is mapped
copy-on-write and its grids are views of the mapping: a load shares the
page-cache pages that `sketch` wrote instead of copying them into fresh
memory, and a write into a grid stays in the process.

A file is written through a `Replacement`: a temporary file beside the
destination, renamed onto it when complete.  `sketch` and `bench` make
theirs before reading any input, so an unwritable destination fails
first and a failed run leaves the old file whole.  `save_sketch_file`
takes the relations as any iterable of (name, grid) pairs and writes
each grid before it asks for the next, so a producer may build every
relation into one reused grid; the relation count goes into the header
once the last grid is written.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import struct
from typing import BinaryIO, Callable, Iterable

import numpy as np

from .errors import DataError, QueryError
from .joingraph import JoinGraph
from .sketch import COUNTER_LIMIT, METHOD_AMS, METHOD_CONV, SketchConfig

MAGIC = b"JSK2"

_METHOD_TAGS = {METHOD_CONV: 0, METHOD_AMS: 1}
_TAG_METHODS = {v: k for k, v in _METHOD_TAGS.items()}

# After the magic: method, m, l, seed and fingerprint; the relation count
# follows on its own, as it is written last.
_HEADER = struct.Struct("<BQIQ32s")
_U64 = 0xFFFFFFFFFFFFFFFF  # the seed is stored as its low 64 bits

# Each grid starts at a multiple of this many bytes from the file start.
GRID_ALIGN = 64

# The dtype of each grid encoding tag.
_ENCODINGS = {0: np.dtype("<f8"), 1: np.dtype("<i2"), 2: np.dtype("<i4"), 3: np.dtype("<i8")}
# The integer tags, narrowest first, with the bound every |counter| of a
# grid stays below to take the tag.
_INT_BOUNDS = ((1, 1 << 15), (2, 1 << 31), (3, COUNTER_LIMIT))
# The int64 view of -0.0, and of no other float64.
_NEG_ZERO_BITS = np.iinfo(np.int64).min

# Encoded grids totalling at least this many bytes are mapped, smaller
# ones read.  A mapping costs a fixed ~0.1 ms more per load (mmap,
# munmap, the fd dup); a read faults in every fresh 4 KiB page of its
# grid buffers once glibc serves them by mmap, so what counts is the
# bytes the grids take in the file, not their float64 size.  In-process
# `estimate` loops on a 4-relation star, l=4 (2 CPUs, numpy 2.4.6,
# float64 grids, medians of 6 fresh processes), mapped minus read:
# +0.10, +0.10, 0.0, -0.5, -1.2, -3.5, -7.0 ms at 0.125, 0.25, 0.5, 1,
# 2, 4, 8 MiB of grids; the crossover lies between 0.5 and 1 MiB.
MAP_BYTES = 1 << 20


class Replacement:
    """A temporary file beside `path` that `commit` writes and renames onto
    `path`.

    Made before the work that fills it, so an unwritable `path` fails
    before any input is read.  Leaving a `with` block without a commit
    removes the temporary file, so a failure at any point leaves neither
    it nor a truncated `path`.  `open(tmp, "xb")` gives the file the mode
    a plain `open` gives (`tempfile.mkstemp` would make it 0600).  An
    OSError of the open, the writes or the rename is a DataError that
    names `what` and `path`.
    """

    def __init__(self, path: str, what: str) -> None:
        self.path = path
        self.what = what
        self.tmp = f"{path}.{os.urandom(6).hex()}.tmp"
        try:
            self.fh = open(self.tmp, "xb")
        except OSError as exc:
            raise self._error(exc) from exc
        self.pending = True

    def _error(self, exc: OSError) -> DataError:
        return DataError(f"cannot write {self.what} {self.path!r}: {exc}")

    def __enter__(self) -> Replacement:
        return self

    def __exit__(self, *exc_info) -> None:
        self.fh.close()
        if self.pending:
            self.pending = False
            os.unlink(self.tmp)

    def commit(self, write: Callable[[BinaryIO], object]) -> None:
        """Write the file by `write(fh)`, close it and rename it onto `path`."""
        try:
            with self.fh:
                write(self.fh)
            os.replace(self.tmp, self.path)
        except OSError as exc:
            raise self._error(exc) from exc
        self.pending = False


def save_sketch_file(
    path: str,
    graph: JoinGraph,
    config: SketchConfig,
    relations: Iterable[tuple[str, np.ndarray]],
    out: Replacement | None = None,
) -> None:
    """Write the sketch file of `graph`'s relations under `config` through
    `out`, a Replacement of `path` made before the sketches were built, or
    through a new one.

    `relations` is any iterable of (name, grid) pairs in relation order;
    each grid is encoded (`_encode`) and written before the next pair is
    asked for.  An error the iterable raises leaves `path` as it was.

    Grids a process already mapped from the old file keep their values:
    rewriting the mapped file in place would change them, and truncating
    it would kill the process with SIGBUS.
    """
    with out or Replacement(path, "sketch file") as target:
        target.commit(lambda fh: _write(fh, graph, config, relations))


def _fingerprint(graph: JoinGraph, config: SketchConfig) -> bytes:
    """sha256 of a canonical JSON encoding of what a query's counters
    depend on besides the rows and m (`_digest`).

    Every load checks it, and right after other work the encoding and
    the hash cost an `estimate` about 50 us, so a process computes it
    once per query: the arguments of `_digest` are its cache key.  They
    need not be canonical, only determine the digest.
    """
    relations = graph.spec.relations
    return _digest(
        config.method, config.l, config.seed & _U64, tuple(graph.attrs), tuple(graph.edges),
        tuple(graph.psi),
        tuple([(tuple(d.column_types.items()), tuple(d.filters)) for d in relations]),
    )


@functools.lru_cache(maxsize=64)
def _digest(method, l, seed, attrs, edges, psi, relations) -> bytes:
    """sha256 of the method, l and seed; each join attribute's relation,
    column and type, in attribute id order; the join edges between
    attribute ids and the component ids, which choose the hash
    functions; and each relation's filters, as a sorted set, since they
    are ANDed.  `relations` holds each relation's (column, type) pairs
    and filters.  Source paths and relation names are left out, so a
    moved data directory keeps its sketches."""
    # Imported here: hashlib loads OpenSSL, about 5 ms in a fresh process,
    # which `exact`, `bench` and `throughput` need not pay.
    import hashlib

    types = [dict(relations[k][0])[col] for k, col in attrs]
    # The type before the value: values of one type compare.
    filters = [sorted({(f.column, f.op, f.col_type, f.value) for f in fs}) for _, fs in relations]
    doc = [method, l, seed, attrs, types, sorted(edges), psi, filters]
    return hashlib.sha256(json.dumps(doc).encode()).digest()


def _encode(counters: np.ndarray) -> tuple[int, np.ndarray]:
    """`(tag, grid)`: `counters` in the narrowest encoding that holds every
    value exactly.

    That is the first integer tag whose bound every |counter| stays below,
    if the cast to its dtype compares equal to `counters` and no counter
    is -0.0, whose sign a cast would drop; else float64.  A NaN or inf
    fails every bound, and a fractional value the comparison.
    """
    grid = np.ascontiguousarray(counters, dtype="<f8")  # its buffer, not a copy
    lo, hi = float(grid.min()), float(grid.max())
    for tag, bound in _INT_BOUNDS:
        if -bound < lo and hi < bound:
            narrow = grid.astype(_ENCODINGS[tag])
            if np.array_equal(narrow, grid) and grid.view("<i8").min() != _NEG_ZERO_BITS:
                return tag, narrow
            break
    return 0, grid


def _write(
    fh: BinaryIO,
    graph: JoinGraph,
    config: SketchConfig,
    relations: Iterable[tuple[str, np.ndarray]],
) -> None:
    fh.write(MAGIC)
    fh.write(_HEADER.pack(
        _METHOD_TAGS[config.method], config.m, config.l, config.seed & _U64,
        _fingerprint(graph, config),
    ))
    count_at = fh.tell()
    fh.write(struct.pack("<I", 0))  # the relation count, known after the last grid
    count = 0
    for count, (name, counters) in enumerate(relations, 1):
        if counters.shape != (config.l, config.m):
            raise DataError(
                f"counter grid for {name!r} has shape {counters.shape}, "
                f"expected {(config.l, config.m)}"
            )
        tag, grid = _encode(counters)
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)) + encoded + struct.pack("<B", tag))
        fh.write(bytes(-fh.tell() % GRID_ALIGN))
        fh.write(grid)
    fh.seek(count_at)
    fh.write(struct.pack("<I", count))


def load_sketch_file(
    path: str, graph: JoinGraph | None = None
) -> tuple[SketchConfig, list[tuple[str, np.ndarray]]]:
    """The config and the (name, grid) pairs of a sketch file, each grid in
    its stored dtype.

    Given `graph`, raise QueryError unless the file's relation names and
    fingerprint are `graph`'s, before any grid is read or mapped.
    """
    try:
        with open(path, "rb") as fh:
            return _read(fh, path, graph)
    except OSError as exc:
        raise DataError(f"cannot open sketch file {path!r}: {exc}") from exc


def _read(
    fh: BinaryIO, path: str, graph: JoinGraph | None
) -> tuple[SketchConfig, list[tuple[str, np.ndarray]]]:
    def truncated(what: str) -> DataError:
        return DataError(f"{path}: truncated sketch file while reading {what}")

    def take(n: int, what: str) -> bytes:
        data = fh.read(n)
        if len(data) != n:
            raise truncated(what)
        return data

    magic = take(4, "magic")
    if magic == b"JSK1":
        raise DataError(
            f"{path}: a JSK1 sketch file, which this version no longer reads; "
            "re-run `joinsketch sketch` to write it as JSK2"
        )
    if magic != MAGIC:
        raise DataError(f"{path}: not a sketch file (bad magic)")
    tag, m, l, seed, fingerprint = _HEADER.unpack(take(_HEADER.size, "header"))
    if tag not in _TAG_METHODS:
        raise DataError(f"{path}: unknown method tag {tag}")
    (count,) = struct.unpack("<I", take(4, "relation count"))

    try:
        config = SketchConfig(m=m, l=l, seed=seed, method=_TAG_METHODS[tag])
    except QueryError as exc:
        raise DataError(f"{path}: bad sketch file header: {exc}") from exc
    size = os.fstat(fh.fileno()).st_size
    grids: list[tuple[str, np.dtype, int]] = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: relation name is not UTF-8: {exc}") from exc
        encoding = take(1, f"encoding tag of {name!r}")[0]
        if encoding not in _ENCODINGS:
            raise DataError(f"{path}: unknown grid encoding tag {encoding} for {name!r}")
        dtype = _ENCODINGS[encoding]
        offset = fh.tell() + -fh.tell() % GRID_ALIGN
        # A corrupt header or tag can claim a grid far larger than memory;
        # check the file holds it before allocating or mapping.
        if size - offset < l * m * dtype.itemsize:
            raise truncated(f"counters for {name!r}")
        grids.append((name, dtype, offset))
        fh.seek(offset + l * m * dtype.itemsize)
    if fh.read(1):
        raise DataError(f"{path}: trailing bytes after sketch data")
    if graph is not None:
        _check_binding(path, graph, config, [name for name, _, _ in grids], fingerprint)
    if sum(l * m * dtype.itemsize for _, dtype, _ in grids) >= MAP_BYTES:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        return config, [
            (name, np.frombuffer(mapped, dtype, l * m, offset).reshape(l, m))
            for name, dtype, offset in grids
        ]
    relations = []
    for name, dtype, offset in grids:
        counters = np.empty((l, m), dtype=dtype)
        fh.seek(offset)
        if fh.readinto(counters) != counters.nbytes:
            raise truncated(f"counters for {name!r}")
        relations.append((name, counters))
    return config, relations


def _check_binding(
    path: str, graph: JoinGraph, config: SketchConfig, names: list[str], fingerprint: bytes
) -> None:
    """Raise QueryError unless a file of relations `names` and `fingerprint`
    was sketched for `graph`."""
    expected = [decl.name for decl in graph.spec.relations]
    if names != expected:
        raise QueryError(f"sketch file relations {names} do not match query relations {expected}")
    if fingerprint != _fingerprint(graph, config):
        raise QueryError(
            f"{path} was sketched for another query: the joins, the join column "
            "types or the filters differ"
        )
