"""Vectorized evaluation of quadratic exponential sums with exact phases.

Every sum lies on exactangle's 2**-256 grid: the phase numerator
N_k = (A*k^2 + B*k + C) mod 2**256 is computed block-wise, block
boundaries exactly with Python integers, and inside a block as
N_k0 + j*D + j*(j-1)*A' on the top 96 bits of each operand in two uint64
words: bits 160-191, whose sum (< 2**62 for blen <= CHUNK = 2**15) only
carries, and bits 192-255, summed mod 2**64 as the phase wraps.  That is
the phase word w, phase = w * 2**-64: the dropped low bits sum to under
2**160 (1 + j + j(j-1)) < 2**190 grid units, 2**-66 of a turn, so w is
the exact top word or one below it (a one-sided slack).

e(w 2**-64) is e_phase(w) = T1[w >> 48] * T2[(w >> 32) & 0xFFFF] *
(1 + 2 pi i r), r = (w & 0xFFFFFFFF) * 2**-64, with T1[i] = e(i 2**-16) and
T2[i] = e(i 2**-32).  Per-term error model: each table component is within
1 ulp (long-double cos/sin of exact turns); the products and the add round
each component by about 2**-52 in all; the dropped (2 pi r)**2 / 2 < 2**-59;
and no float phase is rounded, since the table indices and r come from the
exact integer word (its slack adds < 2**-61).  Measured against mpmath the
worst is 0.57 * 2**-51 per term, and a test holds it to 2**-51; cos/sin of
a float64 phase, the earlier kernel, reached 2.3 * 2**-51.

Reduction: each block of a sum is reduced by np.sum (never np.dot, whose
order follows the BLAS thread count) in the calling thread, as the engine
starts no thread; then one pairwise pass runs over the block partials laid
out contiguously, in the order of one contiguous 1-D array (_block_total).
qsum_moments reduces each order's block partials the same way, so its S_0
is qsum bit for bit.  qsums is qsum_blocks over many sums with C = 0,
each at its own A, B and n, as E1's direct sums and the sums of the E5
and E7 sweeps are.  It writes the _phase_block words of each direct sum
(n < BLOCKS_FROM) into a pass of at most CHUNK words, makes one e_phase
call per pass and reduces each sum by np.sum over its own contiguous
slice, unpadded, so each is qsum's sum bit for bit at every n (e_phase
rounds a one-word array otherwise, but a one-term sum at C = 0 is
e(0) = 1 exactly under either rounding); each longer sum goes through
qsum_blocks alone.  A pass spreads e_phase's fixed cost over its sums:
at n = 1, 11 us per sum against 30 us per qsum call (best of 7 on a
2-core Xeon VM).

Sums at many points: poly_eval_unit_circle gives sum_{k<n} c_k e(k u) at
many u by a type-2 non-uniform FFT (Dutt-Rokhlin), with the exponential-
of-semicircle kernel psi(s) = exp(beta (sqrt(1 - (2s/w)^2) - 1)) of
Barnett, Magland and af Klinteberg: w = 18 taps, beta = 2.30 w (w = 16
left an aliasing error near 0.8 n 2**-51, against exact sums).  The
frequencies, centred at h = n // 2, are divided by the kernel's transform
straight into a fine grid of L >= 2n complex values (L 5-smooth, and at
least 2w); one np.fft pass makes the grid values, and each point sums
its w nearest nodes weighted by psi, in blocks of points.  A point's node
and offset come from L u in exact uint64 words (the top 128 bits of u)
and its centring turn e(h u) from the top word of h u, so x never enters
as a float.  Its reductions are np.sum and the FFT, never BLAS.  Points
with u = 0, and sums of fewer than two terms, are exact.  Cost:
O(L log L) per call and w taps per point, against n per point for a
direct sum; the error bound is stated at weylsum.weyl_sums_over_x.
The kernel's transform depends on the row's length alone, and rows of up
to 2**10 terms keep theirs (the last 128, at most 4 KB each): a sweep's
block sums meet the same few lengths again and again.

Long sums by blocks: block_sums gives the sums of consecutive blocks of
B terms, k = q B + j, from one row:
    sum_{j<B} e(phi_{qB+j}) = e(phi_{qB}) P(u_q),
    P(u) = sum_{j<B} e(A j^2 2**-256) e(j u),  u_q = (2 A B q + B') 2**-256,
where B' is the linear coefficient.  The row of B coefficients comes from
phase_chunks and e_phase, once, and poly_eval_unit_circle evaluates P at
the block points, each point's top 128 bits exact uint64 words from
block_points (theta and x never become floats).  The block prefactors
e(phi_{qB}) are the quadratic phase (A B^2, B' B, C) in q, from the same
kernel.  The blocks go in chunks of a multiple of CHUNK blocks, at least
B: each chunk's prefactors, at coefficients shifted to its first block,
meet the phase blocks of one pass over all blocks, so the bits are that
pass's, and the row's FFT, once per chunk, costs no more than the chunk.
Cost: O(B log B) per chunk for the FFT over a fine grid of about 2B
points, then 18 taps and one kernel term per block; memory, _blocks_bytes.
qsum_blocks takes every n: a direct qsum below BLOCKS_FROM = 2**14 terms,
where the two meet (best of 7 on a 2-core Xeon VM: 0.25 against 0.28 ms
at n = 2**14, 0.58 against 0.34 ms at 2**15, 17 against 0.64 ms at 10**6;
2**30 terms take 19 ms), and from there B = 2 floor(sqrt(n)): the n // B
block sums, one chunk, then the tail, the last m = n mod B terms, as one
direct qsum at the shifted coefficients (A, 2 A K + B', A K^2 + B' K + C),
K = n - m; O(sqrt(n) log n) in all.  weylsum.trajectory takes B = stride,
and its points are the cumulative sums of the blocks.  Partial sums
(qsum_partials) and moments (qsum_moments) stay direct at every n.
The error bounds are stated at weylsum.weyl_sum and weylsum.trajectory.

Walks near 0: near_partials yields only the partial sums that can come
within reach R of 0.  Its block starts z_q, blocks of s = NEAR_SIZE terms,
are the cumulative sum of block_sums, NEAR_CHUNK blocks at a time.  Step j
of block q is within j of z_q and s - j of z_q+1, so block q is skipped
when |z_q| + |z_q+1| > 2 R + s + pad, pad = 2**-50 (s + 5) (K + A) with
K = (q + 1) s, A = |z_1| + ... + |z_q+1|: over three times twice a start's
error (weylsum.trajectory's j (3.25 s + 4) 2**-51 + 2**-53 A, j = q + 1)
plus twice the stream's rounding to term K (K 2**-51 + 2**-53 s (A + K)).
Kept runs are walked directly from their start at shifted coefficients,
the tail always; memory is one chunk of blocks and CHUNK terms at any n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from ._rng import _check_fits
from .exactangle import MODULUS

CHUNK = 1 << 15
_SH32 = np.uint64(32)
_SH48 = np.uint64(48)
_TWO_PI_ULP = 2.0 * np.pi * 2.0 ** -64  # radians of the word's last bit
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi less its nearest double

# the evaluator's kernel: w taps and its shape beta; points (and
# frequencies) per block, which bounds the evaluator's temporaries
_TAPS = 18
_HALF_TAPS = _TAPS // 2
_BETA = 2.30 * _TAPS
_POINT_BLOCK = 1 << 12
_LOW32 = np.uint64(0xFFFFFFFF)
# a point's nodes j0 + 1 - w/2 .. j0 + w/2, as a column
_NODES = np.arange(1 - _HALF_TAPS, _HALF_TAPS + 1)[:, None]


@functools.cache
def _steps() -> tuple[np.ndarray, np.ndarray]:
    """(j, j (j - 1)) for j < CHUNK, as uint64: 512 KB, built on first use,
    not at import."""
    j = np.arange(CHUNK, dtype=np.uint64)
    return j, j * (j - np.uint64(1))


def _words(value: int) -> tuple:
    """(bits 0-31, bits 32-95) of a 96-bit int, as uint64."""
    return np.uint64(value & 0xFFFFFFFF), np.uint64(value >> 32)


def _phase_block(a: int, b: int, c: int, k0: int, blen: int) -> np.ndarray:
    """Phase words of k = k0 .. k0+blen-1 (blen <= CHUNK), the one phase
    kernel."""
    a %= MODULUS
    # N_k0 and the first difference N_k0+1 - N_k0
    n_lo, n_hi = _words((a * k0 * k0 + b * k0 + c) % MODULUS >> 160)
    d_lo, d_hi = _words((a * (2 * k0 + 1) + b) % MODULUS >> 160)
    a_lo, a_hi = _words(a >> 160)
    j_full, jj_full = _steps()
    j = j_full[:blen]
    carry = j * d_lo
    carry += n_lo
    words = j * d_hi
    words += n_hi
    if a >> 160:
        # the jj a products are all 0 at A = 0 (E1's sums): skipped, the
        # same words, since the sums are exact mod 2**64
        jj = jj_full[:blen]
        carry += jj * a_lo
        words += jj * a_hi
    carry >>= _SH32
    words += carry
    return words


def phase_chunks(a: int, b: int, c: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, words) uint64 arrays covering k = 0 .. n-1 in blocks of
    CHUNK, the one block loop: the phase of term k is words[k - k0] *
    2**-64, its word (see the module doc)."""
    for k0 in range(0, n, CHUNK):
        yield k0, _phase_block(a, b, c, k0, min(CHUNK, n - k0))


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """(T1, T2), T1[i] = e(i 2**-16) and T2[i] = e(i 2**-32) for i < 2**16:
    2 MB, built on first use.  cos and sin run in long double on exact turns
    in the first octant; e(1/4 - t) = i conj(e(t)) fills T1's first quadrant
    and e(t + 1/4) = i e(t) the rest."""
    pi = np.longdouble("3.14159265358979323846264338327950288")
    t = np.arange(2**13 + 1, dtype=np.longdouble) * (pi / 2**15)
    c, s = np.cos(t).astype(np.float64), np.sin(t).astype(np.float64)
    quadrant = np.concatenate([c + 1j * s, s[-2:0:-1] + 1j * c[-2:0:-1]])
    t1 = np.concatenate([quadrant, 1j * quadrant, -quadrant, -1j * quadrant])
    t = np.arange(2**16, dtype=np.longdouble) * (pi / 2**31)
    return t1, np.cos(t).astype(np.float64) + 1j * np.sin(t).astype(np.float64)


def e_phase(words: np.ndarray) -> np.ndarray:
    """e(w 2**-64) per phase word w, the one e(phi) routine (see the module
    doc), its temporaries reused in place: one index and one float array.

    A one-word array rounds its table product differently: numpy's in-place
    z *= T2[...] on one element rounds each component's re re' - im im'
    twice, as Python's complex product does, where longer arrays fold one
    of the two products into a fused multiply-add.  In 2000 random table
    products 524 came out 1 ulp apart (numpy 2.4.6 on an AVX-512 Xeon);
    the out-of-place product at any length, the in-place one at any length
    from 2, and the rotation step round alike.  A one-term sum, or a
    constant taken alone, is thus in its last bit not the same word inside
    a pass, but for the word 0, whose e is exactly 1 either way.  Rounding
    both alike would move psi's constants and the pinned E5 and E7
    reports, so it stays.
    """
    t1, t2 = _tables()
    idx = (words >> _SH48).view(np.int64)
    # .take, not np.take, whose wrapper makes a keyword dict per call
    z = t1.take(idx)
    np.right_shift(words, _SH32, out=idx.view(np.uint64))
    idx &= 0xFFFF
    z *= t2.take(idx)
    x = np.bitwise_and(words, 0xFFFFFFFF, out=idx.view(np.uint64)).astype(np.float64)
    x *= _TWO_PI_ULP  # 2 pi r
    # z (1 + i x) = (re - x im) + i (im + x re)
    im_x = z.imag * x
    x *= z.real
    z.real -= im_x
    z.imag += x
    return z


def _block_total(partials: list) -> np.ndarray:
    # one pairwise pass over the block partials (over each order's, for
    # moments) laid out contiguously: a strided reduction would add them
    # in another order
    return np.sum(np.ascontiguousarray(np.asarray(partials).T), axis=-1)


def qsum(a: int, b: int, c: int, n: int) -> complex:
    """sum_{k<n} e((A k^2 + B k + C)/2**256), reduced block by block (see
    the module doc)."""
    return complex(_block_total([np.sum(e_phase(words)) for _, words in phase_chunks(a, b, c, n)]))


# qsum_blocks is faster than qsum from about this many terms (see the module doc)
BLOCKS_FROM = 1 << 14


def qsums(requests) -> np.ndarray:
    """[qsum_blocks(a, b, 0, n) for each (a, b, n) of requests], bit for
    bit: the direct sums in packed passes (see the module doc), each with
    qsum's bits, and the rest by qsum_blocks."""
    out: list = []
    words = np.empty(CHUNK, dtype=np.uint64)
    ends: list[int] = []  # the end of each sum's words in the pass
    slots: list[int] = []  # the index in out of each sum in the pass
    for a, b, n in requests:
        if n < 0:
            raise ValueError(f"qsums takes n >= 0, not {n}")
        if not _direct(n):
            out.append(qsum_blocks(a, b, 0, n))
            continue
        start = ends[-1] if ends else 0
        if start + n > CHUNK:
            _reduce_pass(words, ends, slots, out)
            ends, slots, start = [], [], 0
        words[start : start + n] = _phase_block(a, b, 0, 0, n)
        ends.append(start + n)
        slots.append(len(out))
        out.append(None)
    _reduce_pass(words, ends, slots, out)
    return np.array(out, dtype=np.complex128)


def _reduce_pass(words: np.ndarray, ends: list, slots: list, out: list) -> None:
    # one e_phase call over the pass, then each sum's np.sum over its slice
    if ends:
        z = e_phase(words[: ends[-1]])
        for i, start, end in zip(slots, [0, *ends], ends):
            out[i] = np.sum(z[start:end])


def _terms(a: int, b: int, c: int, n: int) -> np.ndarray:
    """e((A k^2 + B k + C)/2**256) for k < n, as one complex array."""
    out = np.empty(n, dtype=np.complex128)
    for k0, words in phase_chunks(a, b, c, n):
        out[k0 : k0 + words.size] = e_phase(words)
    return out


def _chunk_blocks(size: int) -> int:
    # block_sums' blocks per chunk, a multiple of CHUNK, at least size and
    # at most 2**32, block_points' bound on q
    return min(CHUNK * -(-size // CHUNK), 1 << 32)


def _blocks_bytes(size: int, blocks: int) -> int:
    """block_sums' peak bytes beside its output, and poly_eval_unit_circle's
    for a row of size terms at blocks = 0: 16 per row term, 50 per fine-grid
    point (the grid, its transform and numpy's FFT work space) and 72 per
    block of one chunk (block points and prefactors), by peak RSS in a
    child process, since the FFT's work space escapes tracemalloc: at
    size = blocks = 2**19, 70 per block beside the row and grid (the
    evaluator's temporaries per block of points, about 4 MB, left out)."""
    return 16 * size + 50 * _fine_len(size) + 72 * min(blocks, _chunk_blocks(size))


def shifted(a: int, b: int, c: int, k: int) -> tuple[int, int, int]:
    """The coefficients of the phase of term k + j as a quadratic in j."""
    return a, 2 * a * k + b, a * k * k + b * k + c


def block_points(step: int, base: int, q: np.ndarray) -> np.ndarray:
    """The top 128 bits of (step q + base) mod 2**256 per uint64 q < 2**32,
    as rows (bits 192-255, bits 128-191): eight multiply-add passes over the
    32-bit limbs s_i, b_i of step and base, each q s_i + b_i + carry <= 2**64 - 1."""
    limbs, carry = [], np.zeros_like(q)
    for i in range(8):
        t = q * np.uint64(step >> 32 * i & 0xFFFFFFFF) + np.uint64(base >> 32 * i & 0xFFFFFFFF) + carry
        carry = t >> _SH32
        limbs.append(t & _LOW32)
    return np.stack([limbs[7] << _SH32 | limbs[6], limbs[5] << _SH32 | limbs[4]], axis=1)


def block_sums(a: int, b: int, c: int, size: int, out: np.ndarray) -> None:
    """Write into out[q] the sum of the terms k = q size .. (q + 1) size - 1,
    for q < out.size: one row of size coefficients through
    poly_eval_unit_circle, taken on chunks of blocks (see the module doc)."""
    row = _terms(a, 0, 0, size)
    step = 2 * a * size
    per = _chunk_blocks(size)
    for q0 in range(0, out.size, per):
        q1 = min(q0 + per, out.size)
        # block q starts at k = q size; its point u = (2 A q size + B) 2**-256
        rho = block_points(step, step * q0 + b, np.arange(q1 - q0, dtype=np.uint64))
        body = out[q0:q1]
        body[:] = poly_eval_unit_circle(row, rho)
        # each block's prefactor, the quadratic phase (A size^2) q^2 +
        # (B size) q + C, at the chunk's shifted coefficients
        body *= _terms(*shifted(a * size * size, b * size, c, q0), q1 - q0)


def _direct(n: int) -> bool:
    # qsum_blocks' crossover: a sum of fewer than BLOCKS_FROM terms is direct
    return n < BLOCKS_FROM


def qsum_blocks(a: int, b: int, c: int, n: int) -> complex:
    """qsum(a, b, c, n): a direct qsum below BLOCKS_FROM terms, and from
    there block_sums over blocks of 2 floor(sqrt(n)) terms, then a direct
    tail (see the module doc)."""
    if _direct(n):
        return qsum(a, b, c, n)
    size = 2 * math.isqrt(n)
    blocks = n // size
    _check_fits(_blocks_bytes(size, blocks) + 16 * blocks, 1, f"the sum of n = {n}")
    sums = np.empty(blocks, dtype=np.complex128)
    block_sums(a, b, c, size, sums)
    k = blocks * size
    return complex(np.sum(sums) + qsum(*shifted(a, b, c, k), n - k))


def _walk(a: int, b: int, c: int, k: int, n: int, carry: complex) -> Iterator[tuple[int, np.ndarray]]:
    # the partial sums of terms k .. k+n-1 on top of carry
    for k0, words in phase_chunks(*shifted(a, b, c, k), n):
        z = np.cumsum(e_phase(words))
        z += carry
        carry = complex(z[-1])
        yield k + k0, z


def qsum_partials(a: int, b: int, c: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, z) with z[j] = partial sum through term k0+j (inclusive)."""
    yield from _walk(a, b, c, 0, n, 0j)


NEAR_SIZE, NEAR_CHUNK = 128, 1 << 11  # near_partials' block size and blocks per pass


def near_partials(a: int, b: int, c: int, n: int, reach: float) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, z) as qsum_partials does, but only over the runs of blocks
    whose partial sums can come within reach of 0, and the tail."""
    s, blocks = NEAR_SIZE, n // NEAR_SIZE
    start, mass = 0j, 0.0
    for q0 in range(0, blocks, NEAR_CHUNK):
        # z[r] is the start of block q0 + r, and z[-1] the end of the last
        z = np.empty(min(NEAR_CHUNK, blocks - q0) + 1, dtype=np.complex128)
        z[0] = start
        block_sums(*shifted(a, b, c, q0 * s), s, z[1:])
        np.cumsum(z, out=z)
        mag = np.abs(z)
        total = np.cumsum(mag[1:]) + mass  # A per block
        mass, start = float(total[-1]), complex(z[-1])
        pad = (total + np.arange(q0 + 1, q0 + z.size) * s) * ((s + 5) * 2.0**-50)
        keep = np.concatenate(([False], mag[:-1] + mag[1:] <= 2 * reach + s + pad, [False]))
        edges = np.flatnonzero(keep[1:] != keep[:-1]).tolist()
        for r0, r1 in zip(edges[::2], edges[1::2]):
            yield from _walk(a, b, c, (q0 + r0) * s, (r1 - r0) * s, complex(z[r0]))
    yield from _walk(a, b, c, blocks * s, n - blocks * s, start)


def _moment_row(k0: int, words: np.ndarray, inv_n: float, pmax: int) -> np.ndarray:
    # the moments of the block's phase words
    z = e_phase(words)
    w = (k0 + np.arange(z.size, dtype=np.float64)) * inv_n
    row = [np.sum(z)]
    for _ in range(pmax):
        z *= w
        row.append(np.sum(z))
    return row


def qsum_moments(a: int, b: int, c: int, n: int, pmax: int) -> np.ndarray:
    """Weighted sums S_p = sum_{k<n} (k/n)^p e(phase_k) for p = 0..pmax.

    Used to evaluate the sum at nearby x via a Taylor expansion in the
    linear-phase offset; the normalized weight keeps every S_p O(n).
    """
    if n <= 0:
        return np.zeros(pmax + 1, dtype=np.complex128)
    rows = [_moment_row(k0, words, 1.0 / n, pmax) for k0, words in phase_chunks(a, b, c, n)]
    return _block_total(rows)


def _mulhi(x: np.ndarray, m: int) -> np.ndarray:
    """floor(x * m / 2**64) per uint64 x, exactly, for 0 <= m < 2**32."""
    m = np.uint64(m)
    return (m * (x >> _SH32) + (m * (x & _LOW32) >> _SH32)) >> _SH32


def _fine_len(n: int) -> int:
    """The fine grid's size L: the least 2**a 3**b 5**c >= 2n, so
    sigma = L/n >= 2."""
    best = 1 << (2 * n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << (-(-2 * n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _kernel(s: np.ndarray) -> np.ndarray:
    """psi(s) = exp(beta (sqrt(1 - z^2) - 1)), z = s / (w/2), for |s| <= w/2,
    as -beta z^2 / (1 + sqrt(1 - z^2)) with 1 - z^2 from its factors, so
    no cancellation and no negative root at |s| = w/2."""
    root = np.sqrt((_HALF_TAPS - s) * (_HALF_TAPS + s)) * (1.0 / _HALF_TAPS)
    root += 1.0
    z2 = s * s
    z2 *= -_BETA / _HALF_TAPS**2
    z2 /= root
    return np.exp(z2, out=z2)


def _kernel_hat(m: np.ndarray, size: int) -> np.ndarray:
    """Psi(m / L) = sum_{|j| <= w/2} psi(j) e(-m j / L) per frequency m, the
    kernel's transform on the grid it is sampled on: exact to about 1e-20
    of Psi(0), since psi's transform falls below that beyond |xi| = 0.74
    and the aliases of |m / L| <= 1/4 sit at 3/4 and beyond.  The cosines
    are T_j(cos(2 pi m / L)), by the Chebyshev recurrence; 2 pi / L is
    carried as hi + lo, since hi's own rounding, the same for every m,
    would err coherently over a row whose sum is large."""
    weights = 2.0 * _kernel(np.arange(1.0, _HALF_TAPS + 1))
    step = (Fraction(2.0 * np.pi) + Fraction(_TWO_PI_LO)) / size
    hi = float(step)
    lo = float(step - Fraction(hi))
    out = np.empty(m.size)
    for b0 in range(0, m.size, _POINT_BLOCK):
        block = m[b0 : b0 + _POINT_BLOCK]
        c = np.cos(block * hi)
        c -= np.sin(block * hi) * (block * lo)
        prev, cur = np.ones_like(c), c
        acc = weights[0] * c + 1.0
        for weight in weights[1:]:
            prev, cur = cur, 2.0 * c * cur - prev
            acc += weight * cur
        out[b0 : b0 + _POINT_BLOCK] = acc
    return out


def _row_hat(n: int) -> tuple[int, np.ndarray]:
    """(L, Psi(m / L) for m = 0 .. n - n // 2): the fine grid's size for a
    row of n terms and the kernel's transform at the row's frequencies
    (|m| <= n // 2 by symmetry), read-only."""
    size = _fine_len(max(n, _TAPS))
    hat = _kernel_hat(np.arange(n - n // 2 + 1), size)
    hat.flags.writeable = False
    return size, hat


# rows of up to _HAT_KEPT_N terms keep their transforms, the last
# _HAT_KEPT_ROWS of them: at most 128 of 4 KB (the evaluator of a sweep's
# blocks meets the same few row lengths again and again)
_HAT_KEPT_N, _HAT_KEPT_ROWS = 1 << 10, 128
_kept_row_hat = functools.lru_cache(maxsize=_HAT_KEPT_ROWS)(_row_hat)


def poly_eval_unit_circle(coeffs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] e(k u) per point u, u = rho[:, 0] 2**-64 +
    rho[:, 1] 2**-128 (the top 128 bits of its exact turn), by one type-2
    non-uniform FFT (see the module doc).  Points with u = 0 take the plain
    sum of the coefficients."""
    n = coeffs.size
    if n < 2:
        # no term or one: the sum is the same at every u, and exact
        return np.full(rho.shape[0], np.sum(coeffs))
    half = n // 2
    # sigma = L/n >= 2, and more below n = w, where it costs nothing;
    # frequency m = k - half sits at m mod L, divided by the kernel's transform
    size, hat = (_kept_row_hat if n <= _HAT_KEPT_N else _row_hat)(n)
    grid = np.zeros(size, dtype=np.complex128)
    np.divide(coeffs[half:], hat[: n - half], out=grid[: n - half])
    np.divide(coeffs[:half], hat[half:0:-1], out=grid[size - half :])
    np.fft.ifft(grid, norm="forward", out=grid)
    out = np.empty(rho.shape[0], dtype=np.complex128)
    for p0 in range(0, out.size, _POINT_BLOCK):
        top, low = rho[p0 : p0 + _POINT_BLOCK].T
        # L u = j0 + t from L (top 2**64 + low) / 2**128, in exact words:
        # t's word is the low word of L top plus the carry out of L low
        low_word = np.uint64(size) * top
        frac = low_word + _mulhi(low, size)
        j0 = _mulhi(top, size) + (frac < low_word)
        nodes = grid.take(j0.astype(np.int64) + _NODES, mode="wrap")
        nodes *= _kernel(frac.astype(np.float64) * 2.0**-64 - _NODES)
        # the centring turn h u from its top word
        turn = e_phase(np.uint64(half) * top + _mulhi(low, half))
        out[p0 : p0 + _POINT_BLOCK] = np.sum(nodes, axis=0) * turn
        # the block's arrays go before the next block's are made, so that
        # every block holds the same arrays at its peak, the first one too
        del top, low, low_word, frac, j0, nodes, turn
    out[~(rho[:, 0] | rho[:, 1]).astype(bool)] = np.sum(coeffs)
    return out
