"""Seeded k-wise independent hash families for sketching.

Sign functions are degree-3 polynomials over the Mersenne prime field
(4-wise independent, output in {-1, +1} via the parity bit); bin
functions are degree-1 polynomials (2-wise independent, output in
[0, m)).  One sign function is shared by both endpoints of a join edge
and one bin function is shared by all attributes of a join-graph
component, so equal values land in equal bins across relations.

`derive_hash_set` is the one place hash functions come from, for both
methods.  Under an ams config it also draws each (edge, repetition)'s
m-member sign family for the dense AMS sketch, continuing the stream
that yields the edge's conv sign hash.  All coefficients derive
deterministically from the master seed, keyed by (kind, identity,
repetition); two engines given the same seed and query produce
bit-identical hash sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import QueryError
from .mersenne import (
    derive_state,
    field_elements_vec,
    mod_p,
    poly_eval,
    poly_table,
)

if TYPE_CHECKING:  # pragma: no cover
    from .joingraph import JoinGraph
    from .sketch import SketchConfig

METHOD_CONV = "conv"
METHOD_AMS = "ams"

KIND_SIGN = 1
KIND_BIN = 2


@dataclass(frozen=True)
class SignHash:
    """Degree-3 polynomial hash mapping items to {-1, +1}."""

    coefficients: tuple[int, int, int, int]


@dataclass(frozen=True)
class BinHash:
    """Degree-1 polynomial hash mapping items to [0, m)."""

    coefficients: tuple[int, int]
    m: int


@dataclass(frozen=True)
class HashSet:
    """All hash functions for one (query, config) pair.

    Holds one SignHash per (join edge, repetition) and one BinHash per
    (graph component, repetition).  An ams hash set also holds, per
    (join edge, repetition), the (m, 4) uint64 coefficients of the AMS
    sign family, one cubic per counter; a conv hash set holds none.
    """

    signs: dict[tuple[int, int, int], SignHash]
    bins: dict[tuple[int, int], BinHash]
    families: dict[tuple[int, int, int], np.ndarray] = field(default_factory=dict)

    def sign_for(self, u: int, v: int, rep: int) -> SignHash:
        lo, hi = (u, v) if u < v else (v, u)
        return self.signs[(lo, hi, rep)]

    def coefficients(self, u: int, v: int, rep: int) -> np.ndarray:
        """The AMS sign family of edge (u, v) in repetition `rep`."""
        lo, hi = (u, v) if u < v else (v, u)
        return self.families[(lo, hi, rep)]

    def bin_for(self, component: int, rep: int) -> BinHash:
        return self.bins[(component, rep)]


def derive_hash_set(config: "SketchConfig", graph: "JoinGraph") -> HashSet:
    """Derive the full hash set for a query from the master seed.

    Coefficients come from counter-mode expansion of the seed keyed on
    (kind, edge or component id, repetition), so the result is a pure
    function of (seed, graph, m, l, method).  Each (edge, repetition)
    draws one 4 x members block from its sign stream: members is 1 for
    conv and m for ams, whose family is the whole (m, 4) array.  The
    sign hash is row 0 of the block, so the two methods agree exactly
    at m=1.
    """
    if not graph.edges:
        raise QueryError("query has no join edges")

    signs: dict[tuple[int, int, int], SignHash] = {}
    bins: dict[tuple[int, int], BinHash] = {}
    families: dict[tuple[int, int, int], np.ndarray] = {}
    members = config.m if config.method == METHOD_AMS else 1
    for rep in range(config.l):
        for u, v in graph.edges:
            state = derive_state(config.seed, KIND_SIGN, u, v, rep)
            family = field_elements_vec(state, 4 * members).reshape(members, 4)
            signs[(u, v, rep)] = SignHash(tuple(family[0].tolist()))
            if config.method == METHOD_AMS:
                families[(u, v, rep)] = family
        for comp in range(graph.n_components):
            state = derive_state(config.seed, KIND_BIN, comp, 0, rep)
            bins[(comp, rep)] = BinHash(tuple(field_elements_vec(state, 2).tolist()), config.m)
    return HashSet(signs=signs, bins=bins, families=families)


_MASK64 = (1 << 64) - 1


def sign_eval(h: SignHash, x: int) -> int:
    """Evaluate a sign hash at a 64-bit item; returns -1 or +1."""
    return 1 - 2 * (poly_eval(h.coefficients, mod_p(x & _MASK64)) & 1)


def bin_eval(h: BinHash, x: int) -> int:
    """Evaluate a bin hash at a 64-bit item; returns an index in [0, m)."""
    return poly_eval(h.coefficients, mod_p(x & _MASK64)) % h.m


def sign_eval_vec(hs: Sequence[SignHash], xs: np.ndarray) -> np.ndarray:
    """Vectorized sign_eval: a float64 row of -1.0 and +1.0 per hash of `hs`."""
    coefficients = np.array([h.coefficients for h in hs], dtype=np.uint64)
    return 1.0 - 2.0 * poly_table(coefficients, xs, parity=True)


def bin_eval_vec(hs: Sequence[BinHash], xs: np.ndarray) -> np.ndarray:
    """Vectorized bin_eval: a uint64 row of indices in [0, m) per hash of `hs`."""
    coefficients = np.array([h.coefficients for h in hs], dtype=np.uint64)
    return poly_table(coefficients, xs) % np.array([[h.m] for h in hs], dtype=np.uint64)
