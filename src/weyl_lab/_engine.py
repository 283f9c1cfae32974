"""Vectorized evaluation of quadratic exponential sums with exact phases.

The phase numerator N_k = (A*k^2 + B*k + C) mod 2**mod_bits is computed
block-wise: block boundaries exactly with Python integers, and inside a
block with 32-bit limb arithmetic on uint64 numpy arrays.  Only the top
64 bits of N_k survive into the float phase, and the limb path keeps
those bits exact up to a one-sided slack below bit 97, far under the
2**-53 needed by the double conversion.

Block size is capped at 2**15 so that j*(j-1) times a 32-bit limb stays
inside uint64.

Threads: qsum and qsum_moments split a sum of more than one block into W
contiguous runs of whole blocks, W being the number of cores in the
process's affinity mask.  The calling thread runs the first run itself
and a module-level pool of W - 1 threads, made on first use, runs the
others, so at most W threads do engine work; the time goes into numpy
ufuncs, which release the GIL.  A run is contiguous because handing off
one block at a time gained nothing on two cores.  Each block's phases
and sums depend on its own k0 alone, and the per-block results are
reduced in block order exactly as on one thread, so results do not
depend on W.  Single-block calls never touch the pool.  qsum_partials
stays sequential: its callers stream block by block, and a contiguous
run would buffer 16 bytes per term.  Pool threads call only private
helpers, never a public function of this module.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

CHUNK = 1 << 15
_M32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_TWO_PI = 2.0 * np.pi
_INV_2_64 = 2.0 ** -64

_J_FULL = np.arange(CHUNK, dtype=np.uint64)
_JJ_FULL = _J_FULL * (_J_FULL - np.uint64(1))


def _limbs(value: int) -> list[np.uint64]:
    return [np.uint64((value >> (32 * i)) & 0xFFFFFFFF) for i in range(4)]


def _phase_block(a: int, b: int, c: int, k0: int, blen: int, mod_bits: int) -> np.ndarray:
    """Phases of k = k0 .. k0+blen-1 (blen <= CHUNK), the one phase kernel."""
    mod = 1 << mod_bits
    shift = mod_bits - 128
    a %= mod
    n0 = (a * k0 * k0 + b * k0 + c) % mod
    d0 = (a * (2 * k0 + 1) + b) % mod
    nl = _limbs(n0 >> shift)
    dl = _limbs(d0 >> shift)
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


def phase_chunks(
    a: int, b: int, c: int, n: int, mod_bits: int = 256, start: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, phases) arrays covering k = start .. start+n-1.

    Phases are float64 in [0, 1], accurate to 2**-64 * (1 + 2**-34) of the
    exact grid value of (A*k^2 + B*k + C) / 2**mod_bits mod 1.
    """
    end = start + n
    for k0 in range(start, end, CHUNK):
        yield k0, _phase_block(a, b, c, k0, min(CHUNK, end - k0), mod_bits)


def phase_at(a: int, b: int, c: int, k: int, mod_bits: int = 256) -> int:
    """Direct big-integer phase numerator, the reference for the limb path."""
    return (a * k * k + b * k + c) % (1 << mod_bits)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


class _Pool:
    """The worker threads that run all but the first run of a long sum.

    Threads start on first use.  A forked child inherits this object but
    not the threads, so each process makes its own executor.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._lock = threading.Lock()
        self._pid = 0
        self._executor: ThreadPoolExecutor | None = None

    def submit(self, fn: Callable, *args) -> Future:
        with self._lock:
            if self._pid != os.getpid():
                self._executor = ThreadPoolExecutor(
                    self.workers, thread_name_prefix="weyl_lab._engine"
                )
                self._pid = os.getpid()
        return self._executor.submit(fn, *args)


_POOL = _Pool(_cores() - 1)


def _run(
    block: Callable, a: int, b: int, c: int, lo: int, hi: int, mod_bits: int, args: tuple
) -> list:
    return [
        block(k0, _phase_block(a, b, c, k0, min(CHUNK, hi - k0), mod_bits), *args)
        for k0 in range(lo, hi, CHUNK)
    ]


def _blockwise(
    block: Callable, a: int, b: int, c: int, n: int, mod_bits: int, *args
) -> list:
    """[block(k0, phases, *args) for each block of k < n], in block order,
    over at most _POOL.workers + 1 contiguous runs of blocks (see the module doc)."""
    blocks = -(-n // CHUNK)
    runs = min(_POOL.workers + 1, blocks)
    if runs <= 1:
        return _run(block, a, b, c, 0, n, mod_bits, args)
    cuts = [i * blocks // runs * CHUNK for i in range(runs)] + [n]
    rest = [
        _POOL.submit(_run, block, a, b, c, lo, hi, mod_bits, args)
        for lo, hi in zip(cuts[1:-1], cuts[2:])
    ]
    out = _run(block, a, b, c, cuts[0], cuts[1], mod_bits, args)
    for fut in rest:
        out += fut.result()
    return out


def _cos_sin_sums(k0: int, ph: np.ndarray) -> tuple[float, float]:
    t = ph * _TWO_PI
    return float(np.sum(np.cos(t))), float(np.sum(np.sin(t)))


def qsum(a: int, b: int, c: int, n: int, mod_bits: int = 256) -> complex:
    """sum_{k<n} e((A k^2 + B k + C)/2**mod_bits).

    Ascending k; numpy's pairwise reduction inside each block and one
    more pairwise pass over the block sums keep the rounding O(log n).
    """
    sums = _blockwise(_cos_sin_sums, a, b, c, n, mod_bits)
    if not sums:
        return 0j
    partials_r, partials_i = zip(*sums)
    return complex(np.sum(np.asarray(partials_r)), np.sum(np.asarray(partials_i)))


def qsum_partials(
    a: int, b: int, c: int, n: int, mod_bits: int = 256
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, z) with z[j] = partial sum through term k0+j (inclusive)."""
    carry = 0.0 + 0.0j
    for k0, ph in phase_chunks(a, b, c, n, mod_bits):
        t = ph * _TWO_PI
        z = np.cumsum(np.cos(t) + 1j * np.sin(t))
        z += carry
        carry = complex(z[-1])
        yield k0, z


def _moment_row(k0: int, ph: np.ndarray, inv_n: float, pmax: int) -> np.ndarray:
    t = ph * _TWO_PI
    z = np.cos(t) + 1j * np.sin(t)
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
