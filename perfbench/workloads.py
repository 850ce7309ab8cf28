"""Seeded workloads for the joinsketch benchmark, and their generator.

Run as its own process, once per benchmark run:

    PYTHONPATH=src python3 perfbench/workloads.py --workload chain3-int --seed 7 --out DIR

It writes one CSV per relation, ``query.json`` and ``truth.json`` into
DIR; the same workload and seed give byte-identical files.  Keys are
drawn with ``zipf_values`` and queries built with the query-document
builders of ``tests/conftest.py``.  ``truth.json`` holds the join size
computed with numpy alone (bincount products over the generated integer
keys, never through joinsketch's parser, canonicalizer or oracle), the
per-relation F2 norms that size the Chebyshev band, and the row counts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Integer join sizes and F2 norms stay exact in float64 below 2**53, which
# the oracle's float accumulation needs for an exact comparison.
EXACT_LIMIT = 2**53


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the sketch settings it runs with."""

    name: str
    shape: str  # "chain3" or "star4"
    rows: int  # data rows per relation
    domain: int
    skew: float
    m: int
    l: int
    method: str
    strings: bool = False  # str keys, status filters, __delta rows, NULL cells


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain3-int", "chain3", 40_000, 10_000, 1.1, 4096, 5, "conv"),
        Workload("star4-wide", "star4", 20_000, 5_000, 1.1, 65536, 5, "conv"),
        Workload("chain3-str-turnstile", "chain3", 30_000, 20_000, 1.3, 4096, 5, "conv", True),
        Workload("chain3-ams", "chain3", 3_000, 200, 1.1, 1024, 5, "ams"),
    )
}

DELETE_SHARE = 0.10
NULL_SHARE = 0.01
STATUS_VALUES = ("active", "pending", "closed")
STATUS_WEIGHTS = (0.8, 0.15, 0.05)
# Filters of the string workload: R1 keeps "active" rows, R2 drops "closed".
STATUS_FILTERS = {
    "R1": {"column": "status", "op": "=", "value": "active"},
    "R2": {"column": "status", "op": "!=", "value": "closed"},
}


def conftest_builders():
    """tests/conftest.py, loaded under its own name so pytest's copy is untouched."""
    path = os.path.join(REPO_ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("joinsketch_test_builders", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Relation:
    """Generated rows of one relation: integer key ids per join column."""

    name: str
    keys: dict[str, np.ndarray]
    delta: np.ndarray  # int64, +1 or -1
    status: np.ndarray | None = None  # index into STATUS_VALUES
    null: np.ndarray | None = None  # rows whose join cells are empty

    def passes(self) -> np.ndarray:
        """Rows that survive the query's filters and NULL dropping."""
        ok = np.ones(len(self.delta), dtype=bool)
        if self.null is not None:
            ok &= ~self.null
        rule = STATUS_FILTERS.get(self.name) if self.status is not None else None
        if rule is not None:
            code = STATUS_VALUES.index(rule["value"])
            ok &= (self.status == code) if rule["op"] == "=" else (self.status != code)
        return ok


_COLUMNS = {
    "chain3": {"R0": ["x"], "R1": ["y", "z"], "R2": ["w"]},
    "star4": {"R0": ["a0"], "R1": ["a1", "a2"], "R2": ["a3"], "R3": ["a4"]},
}


def _relations(w: Workload, seed: int, zipf_values) -> list[Relation]:
    rng = np.random.default_rng(seed)
    out = []
    for name, cols in _COLUMNS[w.shape].items():
        keys = {c: zipf_values(rng, w.rows, w.domain, w.skew).astype(np.int64) for c in cols}
        rel = Relation(name, keys, np.ones(w.rows, dtype=np.int64))
        if w.strings:
            _add_turnstile(rel, rng, with_status=name in STATUS_FILTERS)
        out.append(rel)
    return out


def _add_turnstile(rel: Relation, rng: np.random.Generator, with_status: bool) -> None:
    """Turn ~10% of rows into deletions of distinct inserted rows, add NULLs."""
    n = len(rel.delta)
    if with_status:
        rel.status = rng.choice(len(STATUS_VALUES), size=n, p=STATUS_WEIGHTS)
    deleting = rng.random(n) < DELETE_SHARE
    inserts = np.flatnonzero(~deleting)
    sources = rng.choice(inserts, size=int(deleting.sum()), replace=False)
    for col in rel.keys.values():
        col[deleting] = col[sources]
    if rel.status is not None:
        rel.status[deleting] = rel.status[sources]
    rel.delta[deleting] = -1
    # NULL cells only on inserts that no deletion copies, so every deletion
    # cancels a tuple that is really there.
    candidates = np.ones(n, dtype=bool)
    candidates[deleting] = False
    candidates[sources] = False
    rel.null = candidates & (rng.random(n) < NULL_SHARE)


def _freq(rel: Relation, col: str, domain: int) -> np.ndarray:
    ok = rel.passes()
    counts = np.bincount(rel.keys[col][ok], weights=rel.delta[ok], minlength=domain)
    return np.rint(counts).astype(np.int64)


def join_size(w: Workload, rels: list[Relation]) -> int:
    """Exact join size: each R1 row weighted by its partners' frequencies."""
    by = {r.name: r for r in rels}
    r1 = by["R1"]
    ok = r1.passes()
    weight = r1.delta[ok]
    if w.shape == "chain3":
        a, b = r1.keys["y"][ok], r1.keys["z"][ok]
        terms = weight * _freq(by["R0"], "x", w.domain)[a] * _freq(by["R2"], "w", w.domain)[b]
    else:
        a, b = r1.keys["a1"][ok], r1.keys["a2"][ok]
        terms = (
            weight
            * _freq(by["R0"], "a0", w.domain)[a]
            * _freq(by["R2"], "a3", w.domain)[a]
            * _freq(by["R3"], "a4", w.domain)[b]
        )
    total = sum(int(t) for t in terms)  # Python ints: no int64 wrap
    if not all(abs(int(t)) < EXACT_LIMIT for t in terms) or abs(total) >= EXACT_LIMIT:
        raise ValueError(f"{w.name}: join size {total} is not exact in float64")
    return total


def f2_norm(rel: Relation, domain: int, frequency_norms) -> float:
    """Squared 2-norm of the relation's joint key frequencies after filters."""
    ok = rel.passes()
    joint = np.zeros(int(ok.sum()), dtype=np.int64)
    for col in rel.keys.values():
        joint = joint * domain + col[ok]
    _, inverse = np.unique(joint, return_inverse=True)
    freq = np.bincount(inverse, weights=rel.delta[ok])
    return frequency_norms(float(f) for f in freq if f != 0.0)


def _cell(w: Workload, key) -> str:
    return f"cust-{key}" if w.strings else str(key)


def write_csv(path: str, w: Workload, rel: Relation) -> None:
    cols = list(rel.keys)
    header = list(cols)
    columns = [[_cell(w, k) for k in rel.keys[c].tolist()] for c in cols]
    if rel.null is not None:
        nulls = np.flatnonzero(rel.null).tolist()
        for c in columns:
            for i in nulls:
                c[i] = ""
    if rel.status is not None:
        header.append("status")
        columns.append([STATUS_VALUES[s] for s in rel.status.tolist()])
    if w.strings:
        header.append("__delta")
        columns.append([str(d) for d in rel.delta.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(",".join(row) for row in zip(*columns)))
        fh.write("\n")


def query_doc(w: Workload, sources: dict[str, str], builders) -> dict:
    if w.shape == "star4":
        return builders.multiway_query_doc(sources)
    doc = builders.chain3_query_doc(sources)
    if w.strings:
        for rel in doc["relations"]:
            rel["join_columns"] = [c.replace(":int", ":str") for c in rel["join_columns"]]
            if rel["name"] in STATUS_FILTERS:
                rel["filters"] = [STATUS_FILTERS[rel["name"]]]
    return doc


def generate(name: str, seed: int, out_dir: str) -> dict:
    """Write the workload's CSVs, query.json and truth.json; return the truth."""
    from joinsketch.oracle import frequency_norms

    w = WORKLOADS[name]
    builders = conftest_builders()
    rels = _relations(w, seed, builders.zipf_values)
    os.makedirs(out_dir, exist_ok=True)
    sources = {r.name: os.path.join(out_dir, f"{r.name.lower()}.csv") for r in rels}
    for rel in rels:
        write_csv(sources[rel.name], w, rel)
    with open(os.path.join(out_dir, "query.json"), "w", encoding="utf-8") as fh:
        json.dump(query_doc(w, sources, builders), fh, indent=1, sort_keys=True)
    truth = {
        "workload": name,
        "seed": seed,
        "join_size": join_size(w, rels),
        "f2": [f2_norm(r, w.domain, frequency_norms) for r in rels],
        "rows": [len(r.delta) for r in rels],
    }
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
    return truth


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
