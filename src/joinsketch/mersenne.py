"""Arithmetic over the Mersenne prime field p = 2^61 - 1 and seed expansion.

Scalar helpers work on plain Python ints, which are exact at any width.
The ``*_vec`` variants operate on uint64 numpy arrays; products of two
61-bit residues do not fit in 64 bits, so multiplication splits each
operand into 31-bit limbs and reduces with shifts (2^61 = 1 mod p),
keeping every intermediate below 2^64.  `sign_parity_table` evaluates a
whole family of cubics at many items at once, for the dense AMS sketch.

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
    """Multiply residues (< 2^61) mod p without leaving uint64.

    a*b = (a1*b1)*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0 with 31-bit limbs;
    2^62 = 2 and 2^61 = 1 mod p collapse the high parts.
    """
    a1 = a >> np.uint64(31)
    a0 = a & np.uint64(_MASK31)
    b1 = b >> np.uint64(31)
    b0 = b & np.uint64(_MASK31)

    hi = a1 * b1  # < 2^60
    mid = a1 * b0 + a0 * b1  # < 2^62
    lo = a0 * b0  # < 2^62

    mid = (mid >> np.uint64(61)) + (mid & np.uint64(PRIME))  # <= 2^61
    mid_term = (mid >> np.uint64(30)) + ((mid & np.uint64(_MASK30)) << np.uint64(31))
    lo_term = (lo >> np.uint64(61)) + (lo & np.uint64(PRIME))

    t = (hi << np.uint64(1)) + mid_term + lo_term  # < 2^63
    t = (t >> np.uint64(61)) + (t & np.uint64(PRIME))  # <= p + 3
    return np.where(t >= PRIME, t - np.uint64(PRIME), t)


def poly_eval_vec(coefficients: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """Evaluate one polynomial (ints, highest degree first) at each element of x."""
    x = mod_p_vec(np.asarray(x, dtype=np.uint64))
    acc = np.broadcast_to(np.uint64(coefficients[0]), x.shape).copy()
    for c in coefficients[1:]:
        acc = mulmod_vec(acc, x) + np.uint64(c)
        acc = (acc >> np.uint64(61)) + (acc & np.uint64(PRIME))
        acc = np.where(acc >= PRIME, acc - np.uint64(PRIME), acc)
    return acc


# Elements of uint64 scratch per block of table rows (256 KiB per array).
BLOCK_ELEMENTS = 1 << 15


def sign_parity_table(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Parity of c0*x^3 + c1*x^2 + c2*x + c3 mod p for every (item, polynomial).

    `coefficients` is an (m, 4) uint64 array of residues, one cubic per
    row, highest degree first; `x` holds k uint64 items.  Returns a
    (k, m) uint8 table of 0/1.

    x, x^2 and x^3 are reduced once per item.  With 31-bit limbs
    (a = a1*2^31 + a0, a1 < 2^30), the hi (a1*b1), mid (a1*b0 + a0*b1)
    and lo (a0*b0) limb products of the three terms are summed before
    one reduction: HI < 3*2^60, MID < 3*2^62, LO < 3*2^62.  MID is taken
    as sum((a1 + a0)*(b1 + b0)) - HI - LO; each product fits in uint64,
    their sum may wrap, but as the true MID fits, the wrapped difference
    is exact.  Folding 2^62 = 2 and 2^61 = 1 mod p leaves a total below
    2^64 and then a residue r in [0, 2p); as p is odd, the parity of
    r mod p is (r & 1) ^ (r >= p), and r >= p exactly when (r + 1) >> 61
    is 1.  Rows are evaluated in blocks of about BLOCK_ELEMENTS entries.
    """
    x1 = mod_p_vec(np.asarray(x, dtype=np.uint64))
    x2 = mulmod_vec(x1, x1)
    powers = np.stack([mulmod_vec(x2, x1), x2, x1])[:, :, None]  # (3, k, 1)
    p_hi, p_lo = powers >> np.uint64(31), powers & np.uint64(_MASK31)
    p_sum = p_hi + p_lo
    coeffs = np.ascontiguousarray(coefficients.T)  # (4, m)
    c_hi, c_lo, c3 = coeffs[:3] >> np.uint64(31), coeffs[:3] & np.uint64(_MASK31), coeffs[3]
    c_sum = c_hi + c_lo
    k, m = len(x1), len(c3)
    out = np.empty((k, m), dtype=np.uint8)
    rows = max(1, BLOCK_ELEMENTS // m)
    hi, mid, lo, tmp = (np.empty((min(rows, k), m), dtype=np.uint64) for _ in range(4))
    for start in range(0, k, rows):
        stop = min(k, start + rows)
        b = stop - start
        h, md, lw, t = hi[:b], mid[:b], lo[:b], tmp[:b]
        np.multiply(p_hi[0, start:stop], c_hi[0], out=h)
        np.multiply(p_sum[0, start:stop], c_sum[0], out=md)
        np.multiply(p_lo[0, start:stop], c_lo[0], out=lw)
        for i in (1, 2):
            h += np.multiply(p_hi[i, start:stop], c_hi[i], out=t)
            md += np.multiply(p_sum[i, start:stop], c_sum[i], out=t)
            lw += np.multiply(p_lo[i, start:stop], c_lo[i], out=t)
        md -= h
        md -= lw
        # MID*2^31 = (MID >> 30)*2^61 + (MID & (2^30 - 1))*2^31
        np.right_shift(md, np.uint64(30), out=t)
        md &= np.uint64(_MASK30)
        md <<= np.uint64(31)
        md += t
        np.right_shift(lw, np.uint64(61), out=t)
        lw &= np.uint64(PRIME)
        lw += t
        h <<= np.uint64(1)
        h += md
        h += lw
        h += c3
        np.right_shift(h, np.uint64(61), out=t)
        h &= np.uint64(PRIME)
        h += t
        np.add(h, np.uint64(1), out=t)
        t >>= np.uint64(61)
        h ^= t
        np.bitwise_and(h, np.uint64(1), out=out[start:stop], casting="unsafe")
    return out
