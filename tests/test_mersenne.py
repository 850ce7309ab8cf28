"""Field arithmetic: vectorized paths must match exact Python-int results."""

import numpy as np
import pytest

from joinsketch.hashing import (
    BLOCK_ELEMENTS,
    PRIME,
    derive_state,
    field_elements_vec,
    mix64,
    mod_p,
    mod_p_vec,
    mulmod_vec,
    poly_eval,
    poly_table,
    sign_parity_table,
)

EDGE_VALUES = [
    0, 1, 2, (1 << 31) - 1, 1 << 31, (1 << 31) + 1,
    PRIME - 2, PRIME - 1, PRIME, PRIME + 1,
    (1 << 62) + 12345, (1 << 64) - 1,
]


def poly_eval_vec(coefficients: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """Reference: one polynomial (ints, highest degree first) at each
    element of x, by a Horner loop of mulmod_vec."""
    x = mod_p_vec(np.asarray(x, dtype=np.uint64))
    acc = np.broadcast_to(np.uint64(coefficients[0]), x.shape).copy()
    for c in coefficients[1:]:
        acc = mulmod_vec(acc, x) + np.uint64(c)
        acc = (acc >> np.uint64(61)) + (acc & np.uint64(PRIME))
        acc = np.where(acc >= PRIME, acc - np.uint64(PRIME), acc)
    return acc


def field_elements(state: int, count: int) -> tuple[int, ...]:
    """Reference draw of uniform elements of [0, p) from a stream state
    (counter mode), one Python int at a time: a rejected value is
    replaced by the next counter's."""
    golden = 0x9E3779B97F4A7C15
    out: list[int] = []
    t = 0
    while len(out) < count:
        t += 1
        v = mix64((state + t * golden) & ((1 << 64) - 1)) & PRIME
        if v != PRIME:
            out.append(v)
    return tuple(out)


class TestModP:
    def test_matches_python_mod(self):
        rng = np.random.default_rng(7)
        xs = rng.integers(0, 1 << 64, size=5000, dtype=np.uint64)
        got = mod_p_vec(xs)
        expected = np.array([int(x) % PRIME for x in xs], dtype=np.uint64)
        assert np.array_equal(got, expected)

    def test_edge_values(self):
        xs = np.array(EDGE_VALUES, dtype=np.uint64)
        got = mod_p_vec(xs)
        expected = np.array([v % PRIME for v in EDGE_VALUES], dtype=np.uint64)
        assert np.array_equal(got, expected)


class TestMulMod:
    def test_random_pairs_match_bigint(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, PRIME, size=20000, dtype=np.uint64)
        b = rng.integers(0, PRIME, size=20000, dtype=np.uint64)
        got = mulmod_vec(a, b)
        expected = np.array(
            [(int(x) * int(y)) % PRIME for x, y in zip(a, b)], dtype=np.uint64
        )
        assert np.array_equal(got, expected)

    def test_edge_pairs(self):
        residues = [v % PRIME for v in EDGE_VALUES]
        a = np.array([x for x in residues for _ in residues], dtype=np.uint64)
        b = np.array([y for _ in residues for y in residues], dtype=np.uint64)
        got = mulmod_vec(a, b)
        expected = np.array(
            [(int(x) * int(y)) % PRIME for x, y in zip(a, b)], dtype=np.uint64
        )
        assert np.array_equal(got, expected)

    def test_broadcast_scalar(self):
        a = np.array([3, PRIME - 1, 12345], dtype=np.uint64)
        got = mulmod_vec(a, np.uint64(PRIME - 2))
        expected = np.array([(int(x) * (PRIME - 2)) % PRIME for x in a], dtype=np.uint64)
        assert np.array_equal(got, expected)


class TestPolyEval:
    def test_scalar_horner(self):
        # (2x^3 + 5x^2 + 7x + 11) at x=13, against direct evaluation
        coeffs = (2, 5, 7, 11)
        x = 13
        direct = (2 * x**3 + 5 * x**2 + 7 * x + 11) % PRIME
        assert poly_eval(coeffs, x) == direct

    def test_vec_matches_scalar(self):
        rng = np.random.default_rng(3)
        coeffs = tuple(int(c) for c in rng.integers(0, PRIME, size=4))
        xs = rng.integers(0, 1 << 64, size=4096, dtype=np.uint64)
        got = poly_eval_vec(coeffs, xs)
        expected = np.array([poly_eval(coeffs, int(x) % PRIME) for x in xs], dtype=np.uint64)
        assert np.array_equal(got, expected)

    def test_vec_with_coefficient_arrays(self):
        # one polynomial per coefficient row, evaluated at a shared point
        rng = np.random.default_rng(5)
        m = 257
        coeffs = rng.integers(0, PRIME, size=(m, 4), dtype=np.uint64)
        x = 987654321
        got = sign_parity_table(coeffs, np.array([x], dtype=np.uint64))
        expected = np.array(
            [[poly_eval(tuple(int(c) for c in coeffs[j]), x) & 1 for j in range(m)]],
            dtype=np.uint8,
        )
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)


# Items at the edges of the field and of uint64.
TABLE_ITEMS = [0, 1, PRIME - 1, PRIME, PRIME + 1, 1 << 61, (1 << 64) - 1]


class TestPolyTable:
    """The one limb-product body, both layouts, against scalar poly_eval."""

    @pytest.mark.parametrize("degree", [1, 3])
    @pytest.mark.parametrize("n", [1, 5, 10, 1024])
    @pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
    def test_matches_scalar_across_a_block_boundary(self, degree, n, step):
        # At k = BLOCK_ELEMENTS // n items one block holds the whole table
        # in either layout; one item more splits it in two (function-major
        # only once there are two rows to split).
        k = BLOCK_ELEMENTS // n + step
        rng = np.random.default_rng(1000 * n + 10 * degree + step + 1)
        coeffs = rng.integers(0, PRIME, size=(n, degree + 1), dtype=np.uint64)
        coeffs[0] = 0
        coeffs[-1] = PRIME - 1
        xs = np.concatenate([
            np.array(TABLE_ITEMS, dtype=np.uint64),
            rng.integers(0, 1 << 64, size=k - len(TABLE_ITEMS), dtype=np.uint64),
        ])
        rows = [tuple(int(c) for c in row) for row in coeffs]
        items = [int(x) % PRIME for x in xs]
        expected = np.array([[poly_eval(row, x) for x in items] for row in rows], np.uint64)

        residues = poly_table(coeffs, xs)
        assert residues.shape == (n, k) and residues.dtype == np.uint64
        assert np.array_equal(residues, expected)
        assert np.array_equal(poly_table(coeffs, xs, item_major=True), expected.T)
        parities = poly_table(coeffs, xs, parity=True)
        assert parities.dtype == np.uint8
        assert np.array_equal(parities, expected & np.uint64(1))
        assert np.array_equal(poly_table(coeffs, xs, parity=True, item_major=True), parities.T)

    def test_matches_the_horner_reference(self):
        rng = np.random.default_rng(21)
        coeffs = rng.integers(0, PRIME, size=(7, 4), dtype=np.uint64)
        xs = rng.integers(0, 1 << 64, size=20000, dtype=np.uint64)
        expected = np.stack([poly_eval_vec(tuple(int(c) for c in row), xs) for row in coeffs])
        assert np.array_equal(poly_table(coeffs, xs), expected)

    def test_no_items(self):
        coeffs = np.ones((3, 2), dtype=np.uint64)
        assert poly_table(coeffs, np.array([], dtype=np.uint64)).shape == (3, 0)
        assert sign_parity_table(coeffs, np.array([], dtype=np.uint64)).shape == (0, 3)


class TestSignParityTable:
    def test_matches_scalar_on_edge_and_random_inputs(self):
        # m = 5000 evaluates the 30 items in blocks of 6 rows.
        rng = np.random.default_rng(9)
        m = 5000
        coeffs = rng.integers(0, PRIME, size=(m, 4), dtype=np.uint64)
        coeffs[:4] = [[0, 0, 0, 0], [PRIME - 1] * 4, [0, 0, 0, PRIME - 1], [PRIME - 1, 0, 0, 0]]
        edge = [0, 1, PRIME - 1, PRIME, PRIME + 1, 1 << 61, 1 << 63, (1 << 64) - 1]
        xs = np.array(edge, dtype=np.uint64)
        xs = np.concatenate([xs, rng.integers(0, 1 << 64, size=22, dtype=np.uint64)])
        got = sign_parity_table(coeffs, xs)
        rows = [tuple(int(c) for c in row) for row in coeffs]
        expected = np.array(
            [[poly_eval(row, int(x) % PRIME) & 1 for row in rows] for x in xs], dtype=np.uint8
        )
        assert got.shape == (30, m)
        assert np.array_equal(got, expected)


class TestSeedExpansion:
    def test_mix64_known_values(self):
        # splitmix64 reference outputs for state seeded with 1234567:
        # the generator adds the golden-ratio constant then finalizes.
        golden = 0x9E3779B97F4A7C15
        state = 1234567
        expected_first = 6457827717110365317
        expected_second = 3203168211198807973
        assert mix64((state + golden) & ((1 << 64) - 1)) == expected_first
        assert mix64((state + 2 * golden) & ((1 << 64) - 1)) == expected_second

    def test_field_elements_in_range_and_deterministic(self):
        state = derive_state(42, 1, 2, 3, 4)
        a = field_elements(state, 100)
        b = field_elements(state, 100)
        assert a == b
        assert all(0 <= v < PRIME for v in a)

    def test_distinct_states_give_distinct_streams(self):
        s1 = derive_state(42, 1, 0, 0, 0)
        s2 = derive_state(42, 1, 0, 0, 1)
        s3 = derive_state(43, 1, 0, 0, 0)
        assert field_elements(s1, 4) != field_elements(s2, 4)
        assert field_elements(s1, 4) != field_elements(s3, 4)

    def test_vec_matches_scalar_stream(self):
        state = derive_state(7, 3, 1, 2, 0)
        scalar = field_elements(state, 1000)
        vec = field_elements_vec(state, 1000)
        assert tuple(int(v) for v in vec) == scalar

    def test_mod_p_of_negative_free_domain(self):
        assert mod_p(0) == 0
        assert mod_p(PRIME) == 0
        assert mod_p(PRIME + 5) == 5
