"""Binary sketch file format (little-endian, bit-exact round trip).

Layout: magic "JSK1", version u32, method u8 (0=conv, 1=ams), m u64,
l u32, master seed u64, relation count u32, then per relation a u32
name length, the UTF-8 name, and the l*m float64 counter grid in
repetition-major order.
"""

from __future__ import annotations

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


def save_sketch_file(
    path: str, config: SketchConfig, relations: list[tuple[str, np.ndarray]]
) -> None:
    with open(path, "wb") as fh:
        _write(fh, config, relations)


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
    relations: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: relation name is not UTF-8: {exc}") from exc
        what = f"counters for {name!r}"
        # A corrupt header can claim a grid far larger than memory; check
        # the file holds it before allocating.
        if os.fstat(fh.fileno()).st_size - fh.tell() < grid_bytes:
            raise truncated(what)
        counters = np.empty((l, m), dtype="<f8")
        if fh.readinto(counters) != grid_bytes:
            raise truncated(what)
        relations.append((name, counters))
    if fh.read(1):
        raise DataError(f"{path}: trailing bytes after sketch data")
    return config, relations
