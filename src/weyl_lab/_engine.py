"""Vectorized evaluation of quadratic exponential sums with exact phases.

The phase numerator N_k = (A*k^2 + B*k + C) mod 2**mod_bits is computed
block-wise: block boundaries exactly with Python integers, and inside a
block as N_k0 + j*D + j*(j-1)*A' on the top 128 bits of each operand,
each split into three uint64 words: bits 0-31, 32-63 and 64-127.  Bits
64-127 of that sum become the float phase; the low bits dropped from each
operand leave a one-sided slack below 2**-97, far under the 2**-53 of the
double conversion.  The two low words only carry into bit 64, and with
blen <= CHUNK = 2**15 each of their sums stays below 2**63.  The top word
is summed in uint64, which wraps mod 2**64, exactly the modulus the phase
keeps, so the wrap loses nothing.

Rows: qsum_rows evaluates one sum per linear coefficient B of a list, at
shared A, C and n; a single sum (qsum, phase_chunks, qsum_partials,
qsum_moments) is the one-row case.  The phase kernel takes the list, its
words as (rows, 1) columns, and gives a (rows, blen) block of phases.
Each row is reduced on its own: np.sum along the row per block, then one
pairwise pass over that row's block partials laid out contiguously.
np.sum along the last axis of a C-contiguous array takes the order it
takes for one contiguous 1-D array, so a row does not depend on the rows
beside it.  Rows go through in batches of at most 2**20 phases, which
bounds the temporaries.

Threads: qsum_rows, and so qsum, and qsum_moments split a sum of more than
one block into runs = min(W, blocks) contiguous runs of whole blocks, W
being the number of cores in the process's affinity mask.  The calling
thread runs the first run itself and an executor of runs - 1 threads,
opened for that one call and joined before it returns, runs the others;
the time goes into numpy ufuncs, which release the GIL.  No engine thread
outlives the call that started it, so importing starts none and a forked
child starts its own.  A run is contiguous because handing off one block
at a time gained nothing on two cores.  Each block's phases and sums
depend on its own k0 alone, and the per-block results are reduced in
block order exactly as on one thread, so results do not depend on W.
Single-block calls start no thread.  qsum_partials stays sequential: its
callers stream block by block, and a contiguous run would buffer 16 bytes
per term.  Worker threads call only private helpers and e_phase, never an
entry point such as qsum or phase_chunks, so a wrapper on one of those
runs in the caller.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

CHUNK = 1 << 15
_SH32 = np.uint64(32)
_TWO_PI = 2.0 * np.pi
_INV_2_64 = 2.0 ** -64

# phases per block of rows in qsum_rows, which bounds its temporaries
_ROW_PHASES = 1 << 20

_J_FULL = np.arange(CHUNK, dtype=np.uint64)
_JJ_FULL = _J_FULL * (_J_FULL - np.uint64(1))


def _words(values: list[int]) -> tuple:
    """(bits 0-31, bits 32-63, bits 64-127) of each 128-bit int of a list,
    as (len, 1) uint64 columns."""
    split = [(v & 0xFFFFFFFF, v >> 32 & 0xFFFFFFFF, v >> 64) for v in values]
    w = np.array(split, dtype=np.uint64)
    return w[:, 0:1], w[:, 1:2], w[:, 2:3]


def _phase_block(
    a: int, bs: list[int], c: int, k0: int, blen: int, mod_bits: int
) -> np.ndarray:
    """Phases of k = k0 .. k0+blen-1 (blen <= CHUNK), the one phase kernel:
    one row of blen phases per linear coefficient of bs."""
    mod = 1 << mod_bits
    shift = mod_bits - 128
    a %= mod
    # N_k0 and the first difference N_k0+1 - N_k0, less their B terms
    n_ac = a * k0 * k0 + c
    d_a = a * (2 * k0 + 1)
    n_lo, n_mid, n_hi = _words([(n_ac + b * k0) % mod >> shift for b in bs])
    d_lo, d_mid, d_hi = _words([(d_a + b) % mod >> shift for b in bs])
    a_lo, a_mid, a_hi = _words([a >> shift])
    j = _J_FULL[:blen]
    jj = _JJ_FULL[:blen]
    carry = n_lo + j * d_lo + jj * a_lo
    carry >>= _SH32
    carry += n_mid + j * d_mid + jj * a_mid
    carry >>= _SH32
    top = n_hi + j * d_hi + jj * a_hi + carry
    return top.astype(np.float64) * _INV_2_64


def _blocks(
    a: int, bs: list[int], c: int, lo: int, hi: int, mod_bits: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(k0, phases) for each block of k = lo .. hi-1, the one block loop."""
    for k0 in range(lo, hi, CHUNK):
        yield k0, _phase_block(a, bs, c, k0, min(CHUNK, hi - k0), mod_bits)


def phase_chunks(
    a: int, b: int, c: int, n: int, mod_bits: int = 256
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, phases) arrays covering k = 0 .. n-1.

    Phases are float64 in [0, 1], accurate to 2**-64 * (1 + 2**-34) of the
    exact grid value of (A*k^2 + B*k + C) / 2**mod_bits mod 1.
    """
    for k0, ph in _blocks(a, [b], c, 0, n, mod_bits):
        yield k0, ph[0]


def phase_at(a: int, b: int, c: int, k: int, mod_bits: int = 256) -> int:
    """Direct big-integer phase numerator, the reference for the block kernel."""
    return (a * k * k + b * k + c) % (1 << mod_bits)


def e_phase(ph: np.ndarray) -> np.ndarray:
    """e(phi) = exp(2 pi i phi) per phase, the one complex e(phi) routine:
    the cos and sin of 2 pi phi that qsum sums, into one complex array."""
    t = ph * _TWO_PI
    z = np.empty(ph.shape, dtype=np.complex128)
    np.cos(t, out=z.real)
    np.sin(t, out=z.imag)
    return z


try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1


def _run(
    block: Callable, a: int, bs: list[int], c: int, lo: int, hi: int, mod_bits: int,
    args: tuple,
) -> list:
    return [block(k0, ph, *args) for k0, ph in _blocks(a, bs, c, lo, hi, mod_bits)]


def _blockwise(
    block: Callable, a: int, bs: list[int], c: int, n: int, mod_bits: int, *args
) -> list:
    """[block(k0, phases, *args) for each block of k < n], in block order,
    over at most _WORKERS contiguous runs of blocks (see the module doc)."""
    blocks = -(-n // CHUNK)
    runs = min(_WORKERS, blocks)
    if runs <= 1:
        return _run(block, a, bs, c, 0, n, mod_bits, args)
    cuts = [i * blocks // runs * CHUNK for i in range(runs)] + [n]
    with ThreadPoolExecutor(runs - 1) as pool:
        rest = [
            pool.submit(_run, block, a, bs, c, lo, hi, mod_bits, args)
            for lo, hi in zip(cuts[1:-1], cuts[2:])
        ]
        out = _run(block, a, bs, c, cuts[0], cuts[1], mod_bits, args)
        for fut in rest:
            out += fut.result()
    return out


def _cos_sin_sums(k0: int, ph: np.ndarray) -> tuple:
    # one cos and one sin sum per row of phases
    t = ph * _TWO_PI
    return np.sum(np.cos(t), axis=-1), np.sum(np.sin(t), axis=-1)


def _block_total(partials: tuple) -> np.ndarray:
    # one pairwise pass over each row's block partials, laid out
    # contiguously: a strided reduction would add them in another order
    return np.sum(np.ascontiguousarray(np.asarray(partials).T), axis=-1)


def qsum(a: int, b: int, c: int, n: int, mod_bits: int = 256) -> complex:
    """sum_{k<n} e((A k^2 + B k + C)/2**mod_bits), the one-row case of
    qsum_rows."""
    return complex(qsum_rows(a, [b], c, n, mod_bits)[0])


def qsum_rows(a: int, bs: Sequence[int], c: int, n: int, mod_bits: int = 256) -> np.ndarray:
    """sum_{k<n} e((A k^2 + b k + C)/2**mod_bits) for each b of bs, as one
    array; a single sum (qsum) is the one-row case.

    Each block's phases form one (len(bs), blen) array.  Each row is
    reduced in ascending k, np.sum along the row per block and then one
    pairwise pass over that row's block sums, which keeps the rounding
    O(log n); a row's bits do not depend on the rows beside it.
    """
    bs = list(bs)
    out = np.zeros(len(bs), dtype=np.complex128)
    if n <= 0:
        return out
    rows = max(1, _ROW_PHASES // min(n, CHUNK))
    for r0 in range(0, len(bs), rows):
        sums = _blockwise(_cos_sin_sums, a, bs[r0 : r0 + rows], c, n, mod_bits)
        partials_r, partials_i = zip(*sums)
        out.real[r0 : r0 + rows] = _block_total(partials_r)
        out.imag[r0 : r0 + rows] = _block_total(partials_i)
    return out


def qsum_partials(
    a: int, b: int, c: int, n: int, mod_bits: int = 256
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, z) with z[j] = partial sum through term k0+j (inclusive)."""
    carry = 0.0 + 0.0j
    for k0, ph in phase_chunks(a, b, c, n, mod_bits):
        z = np.cumsum(e_phase(ph))
        z += carry
        carry = complex(z[-1])
        yield k0, z


def _moment_row(k0: int, ph: np.ndarray, inv_n: float, pmax: int) -> np.ndarray:
    # the moments of the block's one row of phases
    z = e_phase(ph[0])
    w = (k0 + np.arange(z.size, dtype=np.float64)) * inv_n
    row = np.empty(pmax + 1, dtype=np.complex128)
    wp = np.ones_like(w)
    row[0] = np.sum(z)
    for p in range(1, pmax + 1):
        wp = wp * w
        row[p] = np.sum(wp * z)
    return row


def qsum_moments(
    a: int, b: int, c: int, n: int, pmax: int, mod_bits: int = 256
) -> np.ndarray:
    """Weighted sums S_p = sum_{k<n} (k/n)^p e(phase_k) for p = 0..pmax.

    Used to evaluate the sum at nearby x via a Taylor expansion in the
    linear-phase offset; the normalized weight keeps every S_p O(n).
    """
    # with n <= 0 there is no block, so the weight scale is never used
    rows = _blockwise(_moment_row, a, [b], c, n, mod_bits, 1.0 / max(n, 1), pmax)
    if not rows:
        return np.zeros(pmax + 1, dtype=np.complex128)
    return np.sum(np.asarray(rows), axis=0)


def poly_eval_unit_circle(
    coeffs: np.ndarray, rho: np.ndarray, rho_big: np.ndarray, step: int
) -> np.ndarray:
    """Evaluate sum_k coeffs[k] * rho_s**k per sample by baby-step/giant-step.

    rho_big must equal rho**step computed to full accuracy by the caller
    (from an exactly reduced phase, not by repeated multiplication).
    """
    q = coeffs.shape[0]
    n_big = -(-q // step)
    table = np.zeros((n_big, step), dtype=np.complex128)
    table.reshape(-1)[:q] = coeffs
    powers = np.empty((rho.shape[0], step), dtype=np.complex128)
    powers[:, 0] = 1.0
    for i in range(1, step):
        powers[:, i] = powers[:, i - 1] * rho
    giant = powers @ table.T
    acc = giant[:, n_big - 1].copy()
    for jb in range(n_big - 2, -1, -1):
        acc *= rho_big
        acc += giant[:, jb]
    return acc
