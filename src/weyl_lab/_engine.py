"""Vectorized evaluation of quadratic exponential sums with exact phases.

The phase numerator N_k = (A*k^2 + B*k + C) mod 2**mod_bits is computed
block-wise: block boundaries exactly with Python integers, and inside a
block with 32-bit limb arithmetic on uint64 numpy arrays.  Only the top
64 bits of N_k survive into the float phase, and the limb path keeps
those bits exact up to a one-sided slack below bit 97, far under the
2**-53 needed by the double conversion.

Block size is capped at 2**15 so that j*(j-1) times a 32-bit limb stays
inside uint64.

Rows: qsum_rows evaluates one sum per linear coefficient B of a list, at
shared A, C and n.  The same phase kernel takes the list, its limbs as
(rows, 1) columns, and gives a (rows, blen) block of phases.  Each row is
reduced in qsum's order: np.sum along the row per block, then one pairwise
pass over that row's block partials laid out contiguously.  np.sum along
the last axis of a C-contiguous array takes the order it takes for one
contiguous 1-D array, so every row equals its qsum bit for bit.  Rows go
through in batches of at most 2**20 phases, which bounds the temporaries.

Threads: qsum and qsum_moments split a sum of more than one block into
runs = min(W, blocks) contiguous runs of whole blocks, W being the number
of cores in the process's affinity mask.  The calling thread runs the
first run itself and an executor of runs - 1 threads, opened for that one
call and joined before it returns, runs the others; the time goes into
numpy ufuncs, which release the GIL.  No engine thread outlives the call
that started it, so importing starts none and a forked child starts its
own.  A run is contiguous because handing off one block at a time gained
nothing on two cores.  Each block's phases and sums depend on its own k0
alone, and the per-block results are reduced in block order exactly as on
one thread, so results do not depend on W.  Single-block calls start no
thread.  qsum_partials stays sequential: its callers stream block by
block, and a contiguous run would buffer 16 bytes per term.  Worker
threads call only private helpers and e_phase, never an entry point such
as qsum or phase_chunks, so a wrapper on one of those runs in the caller.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

CHUNK = 1 << 15
_M32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_TWO_PI = 2.0 * np.pi
_INV_2_64 = 2.0 ** -64

# phases per block of rows in qsum_rows, which bounds its temporaries
_ROW_PHASES = 1 << 20

_J_FULL = np.arange(CHUNK, dtype=np.uint64)
_JJ_FULL = _J_FULL * (_J_FULL - np.uint64(1))


def _limbs(value: int | list[int]) -> list:
    """The four low 32-bit limbs of an int as uint64 scalars, or of each
    int of a list as (len, 1) uint64 columns."""
    if isinstance(value, list):
        return [
            np.array([(v >> (32 * i)) & 0xFFFFFFFF for v in value], dtype=np.uint64)[:, None]
            for i in range(4)
        ]
    return [np.uint64((value >> (32 * i)) & 0xFFFFFFFF) for i in range(4)]


def _phase_block(
    a: int, b: int | list[int], c: int, k0: int, blen: int, mod_bits: int
) -> np.ndarray:
    """Phases of k = k0 .. k0+blen-1 (blen <= CHUNK), the one phase kernel.

    For a list b the result has one row of blen phases per entry of b.
    """
    mod = 1 << mod_bits
    shift = mod_bits - 128
    a %= mod
    # N_k0 and the first difference N_k0+1 - N_k0, less their B terms
    n_ac = a * k0 * k0 + c
    d_a = a * (2 * k0 + 1)
    if isinstance(b, list):
        n0 = [(n_ac + bi * k0) % mod >> shift for bi in b]
        d0 = [(d_a + bi) % mod >> shift for bi in b]
    else:
        n0 = (n_ac + b * k0) % mod >> shift
        d0 = (d_a + b) % mod >> shift
    nl = _limbs(n0)
    dl = _limbs(d0)
    al = _limbs(a >> shift)
    j = _J_FULL[:blen]
    jj = _JJ_FULL[:blen]
    acc0 = nl[0] + j * dl[0] + jj * al[0]
    acc1 = nl[1] + j * dl[1] + jj * al[1]
    acc2 = nl[2] + j * dl[2] + jj * al[2]
    acc3 = nl[3] + j * dl[3] + jj * al[3]
    acc1 += acc0 >> _SH32
    acc2 += acc1 >> _SH32
    acc3 += acc2 >> _SH32
    top64 = ((acc3 & _M32) << _SH32) | (acc2 & _M32)
    return top64.astype(np.float64) * _INV_2_64


def _blocks(
    a: int, b: int | list[int], c: int, lo: int, hi: int, mod_bits: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(k0, phases) for each block of k = lo .. hi-1, the one block loop."""
    for k0 in range(lo, hi, CHUNK):
        yield k0, _phase_block(a, b, c, k0, min(CHUNK, hi - k0), mod_bits)


def phase_chunks(
    a: int, b: int, c: int, n: int, mod_bits: int = 256
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, phases) arrays covering k = 0 .. n-1.

    Phases are float64 in [0, 1], accurate to 2**-64 * (1 + 2**-34) of the
    exact grid value of (A*k^2 + B*k + C) / 2**mod_bits mod 1.
    """
    yield from _blocks(a, b, c, 0, n, mod_bits)


def phase_at(a: int, b: int, c: int, k: int, mod_bits: int = 256) -> int:
    """Direct big-integer phase numerator, the reference for the limb path."""
    return (a * k * k + b * k + c) % (1 << mod_bits)


def e_phase(ph: np.ndarray) -> np.ndarray:
    """e(phi) = exp(2 pi i phi) per phase, the one complex e(phi) routine."""
    return np.exp(2j * np.pi * ph)


try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1


def _run(
    block: Callable, a: int, b: int | list[int], c: int, lo: int, hi: int, mod_bits: int,
    args: tuple,
) -> list:
    return [block(k0, ph, *args) for k0, ph in _blocks(a, b, c, lo, hi, mod_bits)]


def _blockwise(
    block: Callable, a: int, b: int | list[int], c: int, n: int, mod_bits: int, *args
) -> list:
    """[block(k0, phases, *args) for each block of k < n], in block order,
    over at most _WORKERS contiguous runs of blocks (see the module doc)."""
    blocks = -(-n // CHUNK)
    runs = min(_WORKERS, blocks)
    if runs <= 1:
        return _run(block, a, b, c, 0, n, mod_bits, args)
    cuts = [i * blocks // runs * CHUNK for i in range(runs)] + [n]
    with ThreadPoolExecutor(runs - 1) as pool:
        rest = [
            pool.submit(_run, block, a, b, c, lo, hi, mod_bits, args)
            for lo, hi in zip(cuts[1:-1], cuts[2:])
        ]
        out = _run(block, a, b, c, cuts[0], cuts[1], mod_bits, args)
        for fut in rest:
            out += fut.result()
    return out


def _cos_sin_sums(k0: int, ph: np.ndarray) -> tuple:
    # per row of phases, so one value for a 1-D block
    t = ph * _TWO_PI
    return np.sum(np.cos(t), axis=-1), np.sum(np.sin(t), axis=-1)


def _block_total(partials: tuple) -> np.ndarray:
    # one pairwise pass over each row's block partials, laid out
    # contiguously: a strided reduction would add them in another order
    return np.sum(np.ascontiguousarray(np.asarray(partials).T), axis=-1)


def qsum(a: int, b: int, c: int, n: int, mod_bits: int = 256) -> complex:
    """sum_{k<n} e((A k^2 + B k + C)/2**mod_bits).

    Ascending k; numpy's pairwise reduction inside each block and one
    more pairwise pass over the block sums keep the rounding O(log n).
    """
    sums = _blockwise(_cos_sin_sums, a, b, c, n, mod_bits)
    if not sums:
        return 0j
    partials_r, partials_i = zip(*sums)
    return complex(_block_total(partials_r), _block_total(partials_i))


def qsum_rows(a: int, bs: Sequence[int], c: int, n: int, mod_bits: int = 256) -> np.ndarray:
    """[qsum(a, b, c, n, mod_bits) for b in bs] as one array, bit for bit.

    Each block's phases form one (len(bs), blen) array; each row is
    reduced in qsum's order, np.sum along the row per block and then one
    pairwise pass over that row's block partials.
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
    z = e_phase(ph)
    w = (k0 + np.arange(len(ph), dtype=np.float64)) * inv_n
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
    rows = _blockwise(_moment_row, a, b, c, n, mod_bits, 1.0 / max(n, 1), pmax)
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
