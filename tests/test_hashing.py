"""Hash family behavior: fixed evaluation rules, derivation counts,
determinism, and the statistical quality the estimators rely on."""

import numpy as np
import pytest

from joinsketch.errors import QueryError
from joinsketch.hashing import (
    BinHash,
    SignHash,
    bin_eval,
    bin_eval_vec,
    derive_hash_set,
    sign_eval,
    sign_eval_vec,
)
from joinsketch.joingraph import build_join_graph, parse_query
from joinsketch.mersenne import PRIME
from joinsketch.sketch import SketchConfig

from conftest import multiway_query_doc


def _sign(coeffs):
    return SignHash(tuple(coeffs))


def _bin(coeffs, m):
    return BinHash(tuple(coeffs), m)


class TestSignEval:
    def test_zero_polynomial_is_plus_one(self):
        h = _sign((0, 0, 0, 0))
        for x in (0, 1, 17, PRIME - 1, (1 << 64) - 1):
            assert sign_eval(h, x) == 1

    def test_identity_polynomial_parity(self):
        # h(x) = x mod p: odd value -> -1, even -> +1
        h = _sign((0, 0, 1, 0))
        assert sign_eval(h, 3) == -1
        assert sign_eval(h, 4) == 1

    def test_identity_plus_one(self):
        h = _sign((0, 0, 1, 1))
        assert sign_eval(h, 3) == 1  # 3 + 1 = 4, even

    def test_output_domain(self):
        rng = np.random.default_rng(0)
        coeffs = tuple(int(c) for c in rng.integers(0, PRIME, size=4))
        h = _sign(coeffs)
        values = {sign_eval(h, int(x)) for x in rng.integers(0, 1 << 63, size=200)}
        assert values <= {-1, 1}

    def test_vec_matches_scalar(self):
        rng = np.random.default_rng(1)
        coeffs = tuple(int(c) for c in rng.integers(0, PRIME, size=4))
        h = _sign(coeffs)
        xs = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
        vec = sign_eval_vec([h], xs)[0]
        assert vec.dtype == np.float64
        assert all(int(v) == sign_eval(h, int(x)) for v, x in zip(vec, xs))


class TestBinEval:
    def test_identity_mod_m(self):
        h = _bin((1, 0), m=5)
        assert bin_eval(h, 26) == 1  # 26 mod 5

    def test_single_bin(self):
        h = _bin((123456, 654321), m=1)
        for x in (0, 5, 999999):
            assert bin_eval(h, x) == 0

    def test_constant_polynomial(self):
        for c in (0, 7, 123):
            h = _bin((0, c), m=5)
            for x in (0, 1, 1 << 40):
                assert bin_eval(h, x) == c % 5

    def test_vec_matches_scalar(self):
        rng = np.random.default_rng(2)
        coeffs = tuple(int(c) for c in rng.integers(0, PRIME, size=2))
        h = _bin(coeffs, m=13)
        xs = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
        vec = bin_eval_vec([h], xs)[0]
        assert all(int(v) == bin_eval(h, int(x)) for v, x in zip(vec, xs))


class TestDeriveHashSet:
    def test_multiway_counts_single_repetition(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        config = SketchConfig(m=8, l=1, seed=1)
        hs = derive_hash_set(config, graph)
        assert len(hs.signs) == 3
        assert len(hs.bins) == 2
        assert set(hs.signs) == {(0, 1, 0), (1, 3, 0), (2, 4, 0)}

    def test_counts_scale_with_repetitions(self):
        doc = {
            "relations": [
                {"name": "A", "source": "a.csv", "join_columns": ["x"]},
                {"name": "B", "source": "b.csv", "join_columns": ["y"]},
            ],
            "joins": [["A.x", "B.y"]],
        }
        graph = build_join_graph(parse_query(doc))
        hs = derive_hash_set(SketchConfig(m=4, l=5, seed=0), graph)
        assert len(hs.signs) == 5
        assert len(hs.bins) == 5

    def test_deterministic(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        config = SketchConfig(m=16, l=3, seed=99)
        a = derive_hash_set(config, graph)
        b = derive_hash_set(config, graph)
        assert a == b

    def test_seed_changes_coefficients(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        a = derive_hash_set(SketchConfig(m=16, l=1, seed=1), graph)
        b = derive_hash_set(SketchConfig(m=16, l=1, seed=2), graph)
        assert a != b

    def test_edge_endpoint_order_is_canonical(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=8, l=1, seed=5), graph)
        assert hs.sign_for(1, 0, 0) is hs.sign_for(0, 1, 0)

    def test_bin_hash_carries_m(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=32, l=1, seed=5), graph)
        assert all(h.m == 32 for h in hs.bins.values())

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**64 - 1])
    def test_ams_families_extend_the_conv_sign_stream(self, seed):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        conv = derive_hash_set(SketchConfig(m=8, l=3, seed=seed), graph)
        ams = derive_hash_set(SketchConfig(m=8, l=3, seed=seed, method="ams"), graph)
        assert conv.families == {}
        assert ams.signs == conv.signs
        assert set(ams.families) == set(conv.signs)
        for (u, v, rep), sign in conv.signs.items():
            family = ams.coefficients(v, u, rep)
            assert family.shape == (8, 4) and family.dtype == np.uint64
            assert tuple(int(c) for c in family[0]) == sign.coefficients


class TestStatisticalQuality:
    """Empirical checks of the advertised independence properties."""

    N = 100_000

    def test_bin_uniformity(self):
        # Each of 16 bins should get 5%..7.5% of distinct inputs, and the
        # chi-square statistic must stay below the 1 - 1e-6 quantile of
        # chi2(df=15), which is 56.49 (computed once via scipy.stats.chi2.ppf).
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=16, l=1, seed=20240817), graph)
        h = hs.bin_for(0, 0)
        xs = np.arange(self.N, dtype=np.uint64)
        bins = bin_eval_vec([h], xs)[0]
        counts = np.bincount(bins.astype(np.int64), minlength=16)
        fractions = counts / self.N
        assert fractions.min() >= 0.05
        assert fractions.max() <= 0.075
        expected = self.N / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 56.49

    def test_sign_balance(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=16, l=1, seed=20240817), graph)
        h = hs.sign_for(0, 1, 0)
        xs = np.arange(self.N, dtype=np.uint64)
        mean = float(sign_eval_vec([h], xs)[0].mean())
        assert -0.02 <= mean <= 0.02

    def test_pairwise_collision_rate(self):
        # Collision rate of bin values over random distinct input pairs
        # should sit within 3 standard errors of 1/m.  (Pairs must have
        # varying differences: an affine hash collides on a constant
        # difference either always or never.)
        m = 16
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=m, l=1, seed=77), graph)
        h = hs.bin_for(0, 0)
        n_pairs = 50_000
        rng = np.random.default_rng(4242)
        xs = rng.integers(0, 1 << 63, size=n_pairs, dtype=np.uint64)
        ys = rng.integers(0, 1 << 63, size=n_pairs, dtype=np.uint64)
        distinct = xs != ys
        collide = bin_eval_vec([h], xs[distinct])[0] == bin_eval_vec([h], ys[distinct])[0]
        rate = float(collide.mean())
        q = 1.0 / m
        se = (q * (1 - q) / distinct.sum()) ** 0.5
        assert abs(rate - q) <= 3 * se


class TestErrors:
    def test_rejects_graph_without_edges(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        graph.edges = []
        with pytest.raises(QueryError):
            derive_hash_set(SketchConfig(m=8, l=1, seed=0), graph)
