"""Hash family behavior: fixed evaluation rules, derivation counts,
determinism, and the statistical quality the estimators rely on."""

import numpy as np
import pytest

from joinsketch.errors import QueryError
from joinsketch.hashing import (
    PRIME,
    bin_eval,
    bin_eval_vec,
    derive_hash_set,
    sign_eval,
    sign_eval_vec,
)
from joinsketch.joingraph import build_join_graph, parse_query
from joinsketch.sketch import SketchConfig

from conftest import multiway_query_doc


def _coefficients(*coeffs):
    return np.array(coeffs, dtype=np.uint64)


def _same(a, b) -> bool:
    """Whether two hash sets hold equal coefficient arrays."""
    return (
        a.signs.keys() == b.signs.keys()
        and all(np.array_equal(a.signs[edge], b.signs[edge]) for edge in a.signs)
        and np.array_equal(a.bins, b.bins)
    )


class TestSignEval:
    def test_zero_polynomial_is_plus_one(self):
        h = _coefficients(0, 0, 0, 0)
        for x in (0, 1, 17, PRIME - 1, (1 << 64) - 1):
            assert sign_eval(h, x) == 1

    def test_identity_polynomial_parity(self):
        # h(x) = x mod p: odd value -> -1, even -> +1
        h = _coefficients(0, 0, 1, 0)
        assert sign_eval(h, 3) == -1
        assert sign_eval(h, 4) == 1

    def test_identity_plus_one(self):
        h = _coefficients(0, 0, 1, 1)
        assert sign_eval(h, 3) == 1  # 3 + 1 = 4, even

    def test_output_domain(self):
        rng = np.random.default_rng(0)
        h = rng.integers(0, PRIME, size=4, dtype=np.uint64)
        values = {sign_eval(h, int(x)) for x in rng.integers(0, 1 << 63, size=200)}
        assert values <= {-1, 1}

    def test_vec_matches_scalar(self):
        rng = np.random.default_rng(1)
        h = rng.integers(0, PRIME, size=4, dtype=np.uint64)
        xs = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
        vec = sign_eval_vec(h[None], xs)[0]
        assert vec.dtype == np.float64
        assert all(int(v) == sign_eval(h, int(x)) for v, x in zip(vec, xs))


class TestBinEval:
    def test_identity_is_the_residue(self):
        h = _coefficients(1, 0)
        assert bin_eval(h, 26) == 26
        assert bin_eval(h, PRIME + 26) == 26

    def test_output_is_a_residue_mod_p(self):
        rng = np.random.default_rng(3)
        h = rng.integers(0, PRIME, size=2, dtype=np.uint64)
        xs = rng.integers(0, 1 << 64, size=200, dtype=np.uint64)
        assert all(0 <= bin_eval(h, int(x)) < PRIME for x in xs)
        assert int(bin_eval_vec(h[None], xs).max()) < PRIME

    def test_constant_polynomial(self):
        for c in (0, 7, 123, PRIME - 1):
            h = _coefficients(0, c)
            for x in (0, 1, 1 << 40):
                assert bin_eval(h, x) == c

    def test_vec_matches_scalar(self):
        rng = np.random.default_rng(2)
        hs = rng.integers(0, PRIME, size=(3, 2), dtype=np.uint64)
        xs = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
        vec = bin_eval_vec(hs, xs)
        assert vec.shape == (3, 500) and vec.dtype == np.uint64
        for h, row in zip(hs, vec):
            assert all(int(v) == bin_eval(h, int(x)) for v, x in zip(row, xs))


class TestDeriveHashSet:
    def test_multiway_counts_single_repetition(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        config = SketchConfig(m=8, l=1, seed=1)
        hs = derive_hash_set(config, graph)
        assert set(hs.signs) == {(0, 1), (1, 3), (2, 4)}
        assert all(a.shape == (1, 1, 4) and a.dtype == np.uint64 for a in hs.signs.values())
        assert hs.bins.shape == (2, 1, 2) and hs.bins.dtype == np.uint64

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
        assert hs.signs[(0, 1)].shape == (5, 1, 4)
        assert hs.sign_for(0, 1).shape == (5, 4)
        assert hs.bins.shape == (1, 5, 2)
        assert hs.bin_for(0).shape == (5, 2)

    def test_deterministic(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        config = SketchConfig(m=16, l=3, seed=99)
        assert _same(derive_hash_set(config, graph), derive_hash_set(config, graph))

    def test_seed_changes_coefficients(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        a = derive_hash_set(SketchConfig(m=16, l=1, seed=1), graph)
        b = derive_hash_set(SketchConfig(m=16, l=1, seed=2), graph)
        assert not np.array_equal(a.bins, b.bins)
        assert not any(np.array_equal(a.signs[edge], b.signs[edge]) for edge in a.signs)

    def test_edge_endpoint_order_is_canonical(self):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=8, l=2, seed=5, method="ams"), graph)
        np.testing.assert_array_equal(hs.sign_for(1, 0), hs.sign_for(0, 1))
        np.testing.assert_array_equal(hs.coefficients(1, 0, 1), hs.coefficients(0, 1, 1))

    def test_conv_hash_set_does_not_depend_on_m(self):
        # A bin hash yields a residue mod p that the sketch reduces mod its
        # own m, so one conv hash set serves every m.
        graph = build_join_graph(parse_query(multiway_query_doc()))
        base = derive_hash_set(SketchConfig(m=1, l=3, seed=41), graph)
        for m in (7, 64, 4096):
            assert _same(derive_hash_set(SketchConfig(m=m, l=3, seed=41), graph), base)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**64 - 1])
    def test_ams_families_extend_the_conv_sign_stream(self, seed):
        graph = build_join_graph(parse_query(multiway_query_doc()))
        conv = derive_hash_set(SketchConfig(m=8, l=3, seed=seed), graph)
        ams = derive_hash_set(SketchConfig(m=8, l=3, seed=seed, method="ams"), graph)
        assert np.array_equal(ams.bins, conv.bins)
        assert set(ams.signs) == set(conv.signs)
        for u, v in conv.signs:
            np.testing.assert_array_equal(ams.sign_for(v, u), conv.sign_for(u, v))
            for rep in range(3):
                family = ams.coefficients(v, u, rep)
                assert family.shape == (8, 4) and family.dtype == np.uint64
                np.testing.assert_array_equal(family[0], conv.coefficients(u, v, rep)[0])


class TestStatisticalQuality:
    """Empirical checks of the advertised independence properties."""

    N = 100_000

    def test_bin_uniformity(self):
        # Each of 16 bins should get 5%..7.5% of distinct inputs, and the
        # chi-square statistic must stay below the 1 - 1e-6 quantile of
        # chi2(df=15), which is 56.49 (computed once via scipy.stats.chi2.ppf).
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=16, l=1, seed=20240817), graph)
        xs = np.arange(self.N, dtype=np.uint64)
        bins = bin_eval_vec(hs.bin_for(0)[:1], xs)[0] % np.uint64(16)
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
        xs = np.arange(self.N, dtype=np.uint64)
        mean = float(sign_eval_vec(hs.sign_for(0, 1)[:1], xs)[0].mean())
        assert -0.02 <= mean <= 0.02

    def test_pairwise_collision_rate(self):
        # Collision rate of bin values over random distinct input pairs
        # should sit within 3 standard errors of 1/m.  (Pairs must have
        # varying differences: an affine hash collides on a constant
        # difference either always or never.)
        m = 16
        graph = build_join_graph(parse_query(multiway_query_doc()))
        hs = derive_hash_set(SketchConfig(m=m, l=1, seed=77), graph)
        h = hs.bin_for(0)[:1]
        n_pairs = 50_000
        rng = np.random.default_rng(4242)
        xs = rng.integers(0, 1 << 63, size=n_pairs, dtype=np.uint64)
        ys = rng.integers(0, 1 << 63, size=n_pairs, dtype=np.uint64)
        distinct = xs != ys
        collide = (
            bin_eval_vec(h, xs[distinct])[0] % np.uint64(m)
            == bin_eval_vec(h, ys[distinct])[0] % np.uint64(m)
        )
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
