"""Seeded k-wise independent hash families for sketching.

Sign functions are degree-3 polynomials over the Mersenne prime field
(4-wise independent, output in {-1, +1} via the parity bit); bin
functions are degree-1 polynomials (2-wise independent, output a residue
mod p that the sketch reduces mod its m).  One sign function is shared by
both endpoints of a join edge and one bin function is shared by all
attributes of a join-graph component, so equal values land in equal bins
across relations.

`derive_hash_set` is the one place hash functions come from, for both
methods, and this module alone knows how a HashSet lays out their uint64
coefficients.  Under an ams config each (edge, repetition) also draws the
m-member sign family of the dense AMS sketch, continuing the stream that
yields the edge's conv sign hash.  All coefficients derive
deterministically from the master seed, keyed by (kind, identity,
repetition); no coefficient depends on m, and two engines given the same
seed and query produce bit-identical hash sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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
class HashSet:
    """All hash functions for one (query, config) pair, as uint64 residues.

    `signs` maps each join edge (u, v), u < v, to an (l, members, 4)
    array: per repetition, the cubics of its sign stream, highest degree
    first.  Member 0 is the conv sign hash; members is 1 for conv and m
    for ams, whose per-counter family is the whole (m, 4) slice.  `bins` is
    the (n_components, l, 2) array of the component bin hashes.
    """

    signs: dict[tuple[int, int], np.ndarray]
    bins: np.ndarray

    def sign_for(self, u: int, v: int) -> np.ndarray:
        """The (l, 4) conv sign hashes of edge (u, v), one per repetition."""
        return self.signs[(min(u, v), max(u, v))][:, 0]

    def coefficients(self, u: int, v: int, rep: int) -> np.ndarray:
        """The (members, 4) sign family of edge (u, v) in repetition `rep`."""
        return self.signs[(min(u, v), max(u, v))][rep]

    def bin_for(self, component: int) -> np.ndarray:
        """The (l, 2) bin hashes of a component, one per repetition."""
        return self.bins[component]


def derive_hash_set(config: "SketchConfig", graph: "JoinGraph") -> HashSet:
    """Derive the full hash set for a query from the master seed.

    Coefficients come from counter-mode expansion of the seed keyed on
    (kind, edge or component id, repetition), so the result is a pure
    function of (seed, graph, l, method), and of m only through the
    members of an ams family.  Each (edge, repetition) draws one
    members x 4 block from its sign stream: members is 1 for conv and m
    for ams.  The conv sign hash is member 0 of the block, so the two
    methods agree exactly at m=1.
    """
    if not graph.edges:
        raise QueryError("query has no join edges")
    members = config.m if config.method == METHOD_AMS else 1
    reps = range(config.l)
    signs = {
        (u, v): np.stack([
            field_elements_vec(derive_state(config.seed, KIND_SIGN, u, v, rep), 4 * members)
            .reshape(members, 4)
            for rep in reps
        ])
        for u, v in graph.edges
    }
    bins = np.array([
        [field_elements_vec(derive_state(config.seed, KIND_BIN, comp, 0, rep), 2) for rep in reps]
        for comp in range(graph.n_components)
    ], dtype=np.uint64)
    return HashSet(signs=signs, bins=bins)


_MASK64 = (1 << 64) - 1


def sign_eval(h: np.ndarray, x: int) -> int:
    """Evaluate the sign hash with the 4 coefficients `h` at a 64-bit item;
    returns -1 or +1."""
    return 1 - 2 * (poly_eval(h.tolist(), mod_p(x & _MASK64)) & 1)


def bin_eval(h: np.ndarray, x: int) -> int:
    """Evaluate the bin hash with the 2 coefficients `h` at a 64-bit item;
    returns a residue in [0, p)."""
    return poly_eval(h.tolist(), mod_p(x & _MASK64))


def sign_eval_vec(hs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Vectorized sign_eval: a float64 row of -1.0 and +1.0 per row of the
    (n, 4) coefficient array `hs`."""
    return 1.0 - 2.0 * poly_table(hs, xs, parity=True)


def bin_eval_vec(hs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Vectorized bin_eval: a uint64 row of residues per row of the (n, 2)
    coefficient array `hs`."""
    return poly_table(hs, xs)
