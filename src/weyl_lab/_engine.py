"""Vectorized evaluation of quadratic exponential sums with exact phases.

The phase numerator N_k = (A*k^2 + B*k + C) mod 2**mod_bits is computed
block-wise: block boundaries exactly with Python integers, and inside a
block with 32-bit limb arithmetic on uint64 numpy arrays.  Only the top
64 bits of N_k survive into the float phase, and the limb path keeps
those bits exact up to a one-sided slack below bit 97, far under the
2**-53 needed by the double conversion.

Block size is capped at 2**15 so that j*(j-1) times a 32-bit limb stays
inside uint64.
"""

from __future__ import annotations

from typing import Iterator

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


def phase_chunks(
    a: int, b: int, c: int, n: int, mod_bits: int = 256, start: int = 0
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k0, phases) arrays covering k = start .. start+n-1.

    Phases are float64 in [0, 1], accurate to 2**-64 * (1 + 2**-34) of the
    exact grid value of (A*k^2 + B*k + C) / 2**mod_bits mod 1.
    """
    if n <= 0:
        return
    mod = 1 << mod_bits
    shift = mod_bits - 128
    a %= mod
    b %= mod
    c %= mod
    k0 = start
    end = start + n
    while k0 < end:
        blen = min(CHUNK, end - k0)
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
        yield k0, top64.astype(np.float64) * _INV_2_64
        k0 += blen


def phase_at(a: int, b: int, c: int, k: int, mod_bits: int = 256) -> int:
    """Direct big-integer phase numerator, the reference for the limb path."""
    return (a * k * k + b * k + c) % (1 << mod_bits)


def qsum(a: int, b: int, c: int, n: int, mod_bits: int = 256) -> complex:
    """sum_{k<n} e((A k^2 + B k + C)/2**mod_bits).

    Ascending k; numpy's pairwise reduction inside each block and one
    more pairwise pass over the block sums keep the rounding O(log n).
    """
    partials_r: list[float] = []
    partials_i: list[float] = []
    for _, ph in phase_chunks(a, b, c, n, mod_bits):
        t = ph * _TWO_PI
        partials_r.append(float(np.sum(np.cos(t))))
        partials_i.append(float(np.sum(np.sin(t))))
    if not partials_r:
        return 0j
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


def qsum_moments(
    a: int, b: int, c: int, n: int, pmax: int, mod_bits: int = 256
) -> np.ndarray:
    """Weighted sums S_p = sum_{k<n} (k/n)^p e(phase_k) for p = 0..pmax.

    Used to evaluate the sum at nearby x via a Taylor expansion in the
    linear-phase offset; the normalized weight keeps every S_p O(n).
    """
    chunks: list[np.ndarray] = []
    inv_n = 1.0 / n
    for k0, ph in phase_chunks(a, b, c, n, mod_bits):
        t = ph * _TWO_PI
        z = np.cos(t) + 1j * np.sin(t)
        w = (k0 + np.arange(len(ph), dtype=np.float64)) * inv_n
        row = np.empty(pmax + 1, dtype=np.complex128)
        wp = np.ones_like(w)
        row[0] = np.sum(z)
        for p in range(1, pmax + 1):
            wp = wp * w
            row[p] = np.sum(wp * z)
        chunks.append(row)
    if not chunks:
        return np.zeros(pmax + 1, dtype=np.complex128)
    return np.sum(np.asarray(chunks), axis=0)


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
