"""Shared builders for tests: canonical query shapes, random acyclic
join graphs, and desk-scale synthetic workloads."""

import struct
from collections import Counter
from pathlib import Path

import numpy as np

from joinsketch.ams import ams_bulk_update, ams_sketch
from joinsketch.joingraph import JoinGraph, build_join_graph, parse_query
from joinsketch.sketch import RelationSketch, SketchConfig, TupleUpdate, updates_to_columns


def multiway_query_doc(sources: dict[str, str] | None = None) -> dict:
    """Four relations, three joins, two graph components.

    Attribute ids land as: R0.a0 -> 0, R1.a1 -> 1, R1.a2 -> 2,
    R2.a3 -> 3, R3.a4 -> 4; edges {0,1}, {1,3}, {2,4}.
    """
    sources = sources or {}
    return {
        "relations": [
            {"name": "R0", "source": sources.get("R0", "r0.csv"), "join_columns": ["a0:int"]},
            {"name": "R1", "source": sources.get("R1", "r1.csv"), "join_columns": ["a1:int", "a2:int"]},
            {"name": "R2", "source": sources.get("R2", "r2.csv"), "join_columns": ["a3:int"]},
            {"name": "R3", "source": sources.get("R3", "r3.csv"), "join_columns": ["a4:int"]},
        ],
        "joins": [["R0.a0", "R1.a1"], ["R2.a3", "R1.a1"], ["R3.a4", "R1.a2"]],
    }


def multiway_graph() -> JoinGraph:
    return build_join_graph(parse_query(multiway_query_doc()))


def chain3_query_doc(sources: dict[str, str] | None = None) -> dict:
    """Three relations in a chain: R0.x = R1.y, R1.z = R2.w."""
    sources = sources or {}
    return {
        "relations": [
            {"name": "R0", "source": sources.get("R0", "r0.csv"), "join_columns": ["x:int"]},
            {"name": "R1", "source": sources.get("R1", "r1.csv"), "join_columns": ["y:int", "z:int"]},
            {"name": "R2", "source": sources.get("R2", "r2.csv"), "join_columns": ["w:int"]},
        ],
        "joins": [["R0.x", "R1.y"], ["R1.z", "R2.w"]],
    }


def chain3_graph() -> JoinGraph:
    return build_join_graph(parse_query(chain3_query_doc()))


def two_rel_query_doc() -> dict:
    return {
        "relations": [
            {"name": "A", "source": "a.csv", "join_columns": ["x:int"]},
            {"name": "B", "source": "b.csv", "join_columns": ["y:int"]},
        ],
        "joins": [["A.x", "B.y"]],
    }


def two_rel_graph() -> JoinGraph:
    return build_join_graph(parse_query(two_rel_query_doc()))


def random_graph(rng: np.random.Generator, max_attrs: int = 6, max_components: int = 3) -> JoinGraph:
    """Random acyclic connected multi-join query within the given shape.

    Builds a random relation tree; each tree edge joins either a fresh
    attribute or (sometimes) an existing attribute of the parent, which
    produces attributes joined more than once.
    """
    while True:
        r = int(rng.integers(2, 6))
        relations = [{"name": f"T{k}", "source": f"t{k}.csv", "join_columns": []} for k in range(r)]
        joins = []
        for child in range(1, r):
            parent = int(rng.integers(0, child))
            parent_cols = relations[parent]["join_columns"]
            if parent_cols and rng.random() < 0.45:
                pcol = parent_cols[int(rng.integers(0, len(parent_cols)))]
            else:
                pcol = f"c{len(parent_cols)}"
                parent_cols.append(pcol)
            ccols = relations[child]["join_columns"]
            ccol = f"c{len(ccols)}"
            ccols.append(ccol)
            joins.append([f"T{parent}.{pcol.split(':')[0]}", f"T{child}.{ccol}"])
        doc = {
            "relations": [
                {
                    "name": rel["name"],
                    "source": rel["source"],
                    "join_columns": [c + ":int" for c in rel["join_columns"]],
                }
                for rel in relations
            ],
            "joins": joins,
        }
        graph = build_join_graph(parse_query(doc))
        if graph.w <= max_attrs and graph.n_components <= max_components:
            return graph


def zipf_values(rng: np.random.Generator, n: int, domain: int, s: float) -> np.ndarray:
    """Bounded Zipf(s) sample over {0, ..., domain-1}."""
    ranks = np.arange(1, domain + 1, dtype=np.float64)
    weights = ranks**-s
    weights /= weights.sum()
    return rng.choice(domain, size=n, p=weights).astype(np.uint64)


def turnstile_stream(
    rng: np.random.Generator,
    graph: JoinGraph,
    relation: int,
    n: int,
    domain: int = 64,
    s: float = 1.2,
) -> list[TupleUpdate]:
    """Shuffled Zipf inserts of one relation plus -1 deletions.

    Inserted tuples repeat.  Every fourth distinct tuple is deleted as
    often as it was inserted, so its net frequency is zero; the next one
    loses a single occurrence.
    """
    omega = graph.omega[relation]
    cols = [zipf_values(rng, n, domain, s) for _ in omega]
    keys = [tuple(int(c[i]) for c in cols) for i in range(n)]
    stream = [TupleUpdate(relation, dict(zip(omega, key)), 1.0) for key in keys]
    for k, (key, count) in enumerate(Counter(keys).items()):
        deletions = {0: count, 1: 1}.get(k % 4, 0)
        stream += [TupleUpdate(relation, dict(zip(omega, key)), -1.0)] * deletions
    return [stream[i] for i in rng.permutation(len(stream))]


def random_sketch_grids(rng: np.random.Generator, graph: JoinGraph, m: int, l: int):
    """Random small-integer counter grids standing in for built sketches."""
    return [
        rng.integers(-4, 5, size=(l, m)).astype(np.float64) for _ in range(graph.r)
    ]


def write_chain3_workload(
    tmp_path,
    rng: np.random.Generator,
    sizes: tuple[int, int, int] = (40, 50, 40),
    domain: int = 16,
    s: float = 1.2,
) -> JoinGraph:
    """Write a Zipf-skewed 3-relation chain workload to CSV files."""
    r0 = zipf_values(rng, sizes[0], domain, s)
    r1y = zipf_values(rng, sizes[1], domain, s)
    r1z = zipf_values(rng, sizes[1], domain, s)
    r2 = zipf_values(rng, sizes[2], domain, s)
    (tmp_path / "r0.csv").write_text("x\n" + "\n".join(str(int(v)) for v in r0) + "\n")
    (tmp_path / "r1.csv").write_text(
        "y,z\n" + "\n".join(f"{int(a)},{int(b)}" for a, b in zip(r1y, r1z)) + "\n"
    )
    (tmp_path / "r2.csv").write_text("w\n" + "\n".join(str(int(v)) for v in r2) + "\n")
    doc = chain3_query_doc(
        {
            "R0": str(tmp_path / "r0.csv"),
            "R1": str(tmp_path / "r1.csv"),
            "R2": str(tmp_path / "r2.csv"),
        }
    )
    return build_join_graph(parse_query(doc))


# Byte offset and struct format of the JSK2 fields tests corrupt: magic
# (4), method u8, then m u64 and l u32; "name0" is the first byte of the
# first relation's name, after seed u64, the 32-byte fingerprint,
# relation count u32 and its name length u32.  "tag0" is the encoding tag
# that follows that name, at an offset `patch_sketch_header` reads.
_JSK2_HEADER_FIELDS = {"m": (5, "<Q"), "l": (13, "<I"), "name0": (65, "<B")}
_JSK2_NAME0_LENGTH = 61


def patch_sketch_header(path, field: str, value: int) -> None:
    """Overwrite one header field of a JSK2 sketch file in place."""
    data = bytearray(Path(path).read_bytes())
    if field == "tag0":
        (name_len,) = struct.unpack_from("<I", data, _JSK2_NAME0_LENGTH)
        offset, fmt = _JSK2_NAME0_LENGTH + 4 + name_len, "<B"
    else:
        offset, fmt = _JSK2_HEADER_FIELDS[field]
    struct.pack_into(fmt, data, offset, value)
    Path(path).write_bytes(bytes(data))


def circ_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Circular convolution by real FFT: out[j] = sum_i x[i] * y[(j - i) mod m].

    The estimator only cross-correlates; the tests convolve to check a
    sketch's counters and the FFT kernel against direct sums.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    spec = np.fft.rfft(x)
    spec *= np.fft.rfft(y)
    return np.fft.irfft(spec, n=len(x))


def ams_build(
    updates, graph: JoinGraph, config: SketchConfig, relation: int
) -> RelationSketch:
    """An AMS sketch of a relation from tuple updates or a `read_stream`
    reader, by the bulk update that `joinsketch sketch --method ams` runs."""
    sk = ams_sketch(relation, config, graph)
    ams_bulk_update([sk], [updates_to_columns(updates, graph, relation)])
    return sk
