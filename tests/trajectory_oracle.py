"""The direct stream's partial sums at a trajectory's indices, and the
a-priori error bounds of both trajectory routes, for comparing them.

Each rounding of a complex addition is charged 2**-53 times the modulus of
its result (each component rounds within 2**-53 of itself), to first order.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from weyl_lab import _engine

ULP = 2.0**-51
ROUND = 2.0**-53


def weyl_sum_bound(n: int) -> float:
    """weyl_sum's a-priori bound at n terms: n 2**-51 for a direct sum,
    and from BLOCKS_FROM on that of its blocks of B terms and its tail of
    n mod B terms (see its docstring)."""
    if n < _engine.BLOCKS_FROM:
        return n * ULP
    size = 2 * isqrt(n)
    return ((3.25 * size + 4) * (n // size) + n % size) * ULP


def stream_points(a: int, b: int, c: int, n: int, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z_k, bound_k) at each k of ns: the partial sums of
    _engine.qsum_partials and their bounds, k 2**-51 for the terms plus the
    rounding of every addition so far, the in-block running sum's and the
    add of the carry."""
    zs, charges = [np.zeros(1, dtype=np.complex128)], [np.zeros(1)]
    carry = 0j
    for _, z in _engine.qsum_partials(a, b, c, n):
        charges.append(ROUND * (np.abs(z - carry) + np.abs(z)))
        zs.append(z)
        carry = z[-1]
    rounding = np.cumsum(np.concatenate(charges))
    return np.concatenate(zs)[ns], ns * ULP + rounding[ns]


def block_bounds(points: np.ndarray, n: int, stride: int) -> np.ndarray:
    """The bound trajectory's docstring states for each point of its block
    route: per block (3.25 s + 4) 2**-51, or weyl_sum's bound at s terms for
    a block summed on its own; the cumulative sum's rounding; and at an
    endpoint past the last block, the tail's weyl_sum bound and its add."""
    blocks, tail = divmod(n, stride)
    per_block = max((3.25 * stride + 4) * ULP, weyl_sum_bound(stride))
    rounding = np.cumsum(ROUND * np.abs(points[: blocks + 1]))
    bounds = np.arange(blocks + 1) * per_block + rounding
    if tail:
        end = bounds[-1] + weyl_sum_bound(tail) + ROUND * abs(points[-1])
        bounds = np.append(bounds, end)
    return bounds
