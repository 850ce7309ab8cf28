"""Binary sketch file format (little-endian, bit-exact round trip).

Layout: magic "JSK1", version u32, method u8 (0=conv, 1=ams), m u64,
l u32, master seed u64, relation count u32, then per relation a u32
name length, the UTF-8 name, and the l*m float64 counter grid in
repetition-major order.

A file whose grids total at least MAP_BYTES is mapped copy-on-write and
its grids are views of the mapping: a load shares the page-cache pages
that `sketch` wrote instead of copying them into fresh memory, and a
write into a grid stays in the process.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import DataError, QueryError
from .sketch import METHOD_AMS, METHOD_CONV, SketchConfig

MAGIC = b"JSK1"
VERSION = 1

_METHOD_TAGS = {METHOD_CONV: 0, METHOD_AMS: 1}
_TAG_METHODS = {v: k for k, v in _METHOD_TAGS.items()}

# Grids totalling at least this many bytes are mapped, smaller ones read.
# A mapping costs a fixed ~0.1 ms more per load (mmap, munmap, the fd
# dup); a read faults in every fresh 4 KiB page of its grid buffers once
# glibc serves them by mmap.  In-process `estimate` loops on a 4-relation
# star, l=4 (2 CPUs, numpy 2.4.6, medians of 6 fresh processes), mapped
# minus read: +0.10, +0.10, 0.0, -0.5, -1.2, -3.5, -7.0 ms at 0.125, 0.25,
# 0.5, 1, 2, 4, 8 MiB of grids; the crossover lies between 0.5 and 1 MiB.
MAP_BYTES = 1 << 20


def save_sketch_file(
    path: str, config: SketchConfig, relations: list[tuple[str, np.ndarray]]
) -> None:
    """Write a temporary file beside `path` and rename it onto `path`.

    Grids a process already mapped from the old file keep their values:
    rewriting the mapped file in place would change them, and truncating
    it would kill the process with SIGBUS.  `open(tmp, "xb")` gives the
    file the mode a plain `open` gives (`tempfile.mkstemp` would make it
    0600).  An OSError of the open, the writes or the rename is a
    DataError that names `path`, and leaves no temporary file behind.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                _write(fh, config, relations)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write sketch file {path!r}: {exc}") from exc


def _write(fh: BinaryIO, config: SketchConfig, relations: list[tuple[str, np.ndarray]]) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    fh.write(struct.pack("<B", _METHOD_TAGS[config.method]))
    fh.write(struct.pack("<Q", config.m))
    fh.write(struct.pack("<I", config.l))
    fh.write(struct.pack("<Q", config.seed & 0xFFFFFFFFFFFFFFFF))
    fh.write(struct.pack("<I", len(relations)))
    for name, counters in relations:
        if counters.shape != (config.l, config.m):
            raise DataError(
                f"counter grid for {name!r} has shape {counters.shape}, "
                f"expected {(config.l, config.m)}"
            )
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(np.ascontiguousarray(counters, dtype="<f8"))  # its buffer, not a copy


def load_sketch_file(path: str) -> tuple[SketchConfig, list[tuple[str, np.ndarray]]]:
    try:
        with open(path, "rb") as fh:
            return _read(fh, path)
    except OSError as exc:
        raise DataError(f"cannot open sketch file {path!r}: {exc}") from exc


def _read(fh: BinaryIO, path: str) -> tuple[SketchConfig, list[tuple[str, np.ndarray]]]:
    def truncated(what: str) -> DataError:
        return DataError(f"{path}: truncated sketch file while reading {what}")

    def take(n: int, what: str) -> bytes:
        data = fh.read(n)
        if len(data) != n:
            raise truncated(what)
        return data

    if take(4, "magic") != MAGIC:
        raise DataError(f"{path}: not a sketch file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported sketch file version {version}")
    (tag,) = struct.unpack("<B", take(1, "method"))
    if tag not in _TAG_METHODS:
        raise DataError(f"{path}: unknown method tag {tag}")
    (m,) = struct.unpack("<Q", take(8, "m"))
    (l,) = struct.unpack("<I", take(4, "l"))
    (seed,) = struct.unpack("<Q", take(8, "seed"))
    (count,) = struct.unpack("<I", take(4, "relation count"))

    try:
        config = SketchConfig(m=m, l=l, seed=seed, method=_TAG_METHODS[tag])
    except QueryError as exc:
        raise DataError(f"{path}: bad sketch file header: {exc}") from exc
    grid_bytes = l * m * 8
    offsets: list[tuple[str, int]] = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: relation name is not UTF-8: {exc}") from exc
        # A corrupt header can claim a grid far larger than memory; check
        # the file holds it before allocating or mapping.
        if os.fstat(fh.fileno()).st_size - fh.tell() < grid_bytes:
            raise truncated(f"counters for {name!r}")
        offsets.append((name, fh.tell()))
        fh.seek(grid_bytes, os.SEEK_CUR)
    if fh.read(1):
        raise DataError(f"{path}: trailing bytes after sketch data")
    if count * grid_bytes >= MAP_BYTES:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        return config, [
            (name, np.frombuffer(mapped, "<f8", l * m, offset).reshape(l, m))
            for name, offset in offsets
        ]
    relations = []
    for name, offset in offsets:
        counters = np.empty((l, m), dtype="<f8")
        fh.seek(offset)
        if fh.readinto(counters) != grid_bytes:
            raise truncated(f"counters for {name!r}")
        relations.append((name, counters))
    return config, relations
