"""Arithmetic over the Mersenne prime field p = 2^61 - 1 and seed expansion.

Scalar helpers work on plain Python ints, which are exact at any width.
The ``*_vec`` variants operate on uint64 numpy arrays; products of two
61-bit residues do not fit in 64 bits, so multiplication splits each
operand into 31-bit limbs and reduces with shifts (2^61 = 1 mod p),
keeping every intermediate below 2^64.  `poly_table` evaluates many
polynomials at many items at once, for the hash functions of both sketches.

Seed expansion uses the splitmix64 finalizer in counter mode.  A stream
state is derived by absorbing identifying words (kind, ids, repetition)
into the master seed; field elements are then drawn by rejection on the
low 61 bits (only the single value p itself is ever rejected).
"""

from __future__ import annotations

import numpy as np

PRIME = (1 << 61) - 1

_MASK64 = (1 << 64) - 1
_MASK31 = (1 << 31) - 1
_MASK30 = (1 << 30) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mod_p(x: int) -> int:
    """Reduce a non-negative Python int into [0, p)."""
    return x % PRIME


def poly_eval(coefficients: tuple[int, ...], x: int) -> int:
    """Evaluate a polynomial over the field at x, highest degree first."""
    acc = 0
    for c in coefficients:
        acc = (acc * x + c) % PRIME
    return acc


def mix64(z: int) -> int:
    """splitmix64 finalizer for a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_state(master_seed: int, *words: int) -> int:
    """Absorb identifying words into a 64-bit stream state.

    The mapping is fixed so that sketches are reproducible across
    machines: callers always pass the same arity of words for a given
    kind of hash function.
    """
    state = mix64((master_seed & _MASK64) ^ _GOLDEN)
    for w in words:
        state = mix64(state ^ (w & _MASK64))
    return state


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def field_elements_vec(state: int, count: int) -> np.ndarray:
    """Vectorized counter-mode draw of `count` elements of [0, p)."""
    counters = np.arange(1, count + 1, dtype=np.uint64)
    values = _mix64_vec(np.uint64(state) + counters * np.uint64(_GOLDEN))
    values &= np.uint64(PRIME)
    offset = np.uint64(count)
    bad = values == PRIME
    while bad.any():
        values[bad] = _mix64_vec(
            np.uint64(state) + (counters[bad] + offset) * np.uint64(_GOLDEN)
        ) & np.uint64(PRIME)
        offset += np.uint64(count)
        bad = values == PRIME
    return values


def mod_p_vec(x: np.ndarray) -> np.ndarray:
    """Reduce a uint64 array into [0, p)."""
    r = (x >> np.uint64(61)) + (x & np.uint64(PRIME))
    # r <= p + 7, one conditional subtract suffices
    return np.where(r >= PRIME, r - np.uint64(PRIME), r)


def mulmod_vec(a: np.ndarray | np.uint64, b: np.ndarray | np.uint64) -> np.ndarray:
    """Multiply residues (< 2^61) mod p without leaving uint64, with
    31-bit limbs: a*b = (a1*b1)*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0."""
    a1, a0 = a >> np.uint64(31), a & np.uint64(_MASK31)
    b1, b0 = b >> np.uint64(31), b & np.uint64(_MASK31)
    hi = a1 * b1
    _fold(hi, a1 * b0 + a0 * b1, a0 * b0, np.empty_like(hi), out=hi)
    return hi


def _fold(hi: np.ndarray, mid: np.ndarray, lo: np.ndarray, t: np.ndarray, out: np.ndarray,
          parity: bool = False) -> None:
    """Write hi*2^62 + mid*2^31 + lo mod p, or its parity, into `out`.

    Works in place on the uint64 limb-product sums and the scratch `t`,
    for hi < 2^62: 2^62 = 2 and 2^61 = 1 mod p fold them to a total below
    2^64 and then to an r in [0, 2p).  r >= p exactly when (r + 1) >> 61
    is 1, and as p is odd, the parity of r mod p is (r & 1) ^ that bit.
    """
    # mid*2^31 = (mid >> 30)*2^61 + (mid & (2^30 - 1))*2^31
    np.right_shift(mid, np.uint64(30), out=t)
    mid &= np.uint64(_MASK30)
    mid <<= np.uint64(31)
    mid += t
    np.right_shift(lo, np.uint64(61), out=t)
    lo &= np.uint64(PRIME)
    lo += t
    hi <<= np.uint64(1)
    hi += mid
    hi += lo
    np.right_shift(hi, np.uint64(61), out=t)
    hi &= np.uint64(PRIME)
    hi += t
    np.add(hi, np.uint64(1), out=t)
    t >>= np.uint64(61)
    if parity:
        hi ^= t
        np.bitwise_and(hi, np.uint64(1), out=out, casting="unsafe")
    else:
        t *= np.uint64(PRIME)
        np.subtract(hi, t, out=out)


# Elements of uint64 scratch per block of table rows (256 KiB per array).
BLOCK_ELEMENTS = 1 << 15


def poly_table(
    coefficients: np.ndarray, x: np.ndarray, parity: bool = False, item_major: bool = False
) -> np.ndarray:
    """Each of n polynomials at each of k items: residues mod p, or parities.

    `coefficients` is an (n, d + 1) uint64 array of residues, a polynomial
    of degree d <= 3 per row, highest degree first; `x` holds k uint64
    items.  Returns the (n, k) table, or its (k, n) transpose with
    `item_major`: uint64 residues, or uint8 0/1 with `parity`.

    With 31-bit limbs (a = a1*2^31 + a0, a1 < 2^30), the hi (a1*b1), mid
    (a1*b0 + a0*b1) and lo (a0*b0) products of the d terms, each power of
    x reduced once per item, are summed before one `_fold`: HI < 3*2^60,
    MID and LO < 3*2^62.  MID is sum((a1 + a0)*(b1 + b0)) - HI - LO, exact
    though the sum may wrap, as the true MID fits in uint64.  The products
    are symmetric, so either operand may form the rows, evaluated in
    blocks of about BLOCK_ELEMENTS entries: the caller picks the layout
    with long inner loops (m AMS counters at a few items run item-major).
    """
    d = coefficients.shape[1] - 1
    powers = [mod_p_vec(np.asarray(x, dtype=np.uint64))]
    while len(powers) < d:
        powers.append(mulmod_vec(powers[-1], powers[0]))
    powers = np.stack(powers[::-1])  # (d, k), x^d first
    coeffs = np.ascontiguousarray(coefficients.T)  # (d + 1, n)
    rows, cols, const = powers, coeffs[:d], coeffs[d]
    if not item_major:
        rows, cols, const = cols, rows, const[:, None]
    shape = (rows.shape[1], cols.shape[1])
    rows, const = rows[:, :, None], np.broadcast_to(const, shape)
    r_hi, r_lo = rows >> np.uint64(31), rows & np.uint64(_MASK31)
    c_hi, c_lo = cols >> np.uint64(31), cols & np.uint64(_MASK31)
    r_sum, c_sum = r_hi + r_lo, c_hi + c_lo
    out = np.empty(shape, dtype=np.uint8 if parity else np.uint64)
    block = max(1, BLOCK_ELEMENTS // max(shape[1], 1))
    hi, mid, lo, tmp = (np.empty((min(block, shape[0]), shape[1]), np.uint64) for _ in range(4))
    for start in range(0, shape[0], block):
        stop = min(shape[0], start + block)
        h, md, lw, t = (a[: stop - start] for a in (hi, mid, lo, tmp))
        np.multiply(r_hi[0, start:stop], c_hi[0], out=h)
        np.multiply(r_sum[0, start:stop], c_sum[0], out=md)
        np.multiply(r_lo[0, start:stop], c_lo[0], out=lw)
        for i in range(1, d):
            h += np.multiply(r_hi[i, start:stop], c_hi[i], out=t)
            md += np.multiply(r_sum[i, start:stop], c_sum[i], out=t)
            lw += np.multiply(r_lo[i, start:stop], c_lo[i], out=t)
        md -= h
        md -= lw
        lw += const[start:stop]  # LO + c < 2^64
        _fold(h, md, lw, t, out[start:stop], parity)
    return out


def sign_parity_table(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(k, m) parities of the m cubics of an AMS sign family at k items."""
    return poly_table(coefficients, x, parity=True, item_major=True)
