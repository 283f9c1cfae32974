"""Four-limb phase block: the test oracle for the three-word phase kernel
that the vectorized engine evaluates (_engine._phase_block).

Each 128-bit operand is split into four 32-bit limbs, every limb is summed
in its own uint64 accumulator, the carries are propagated limb by limb,
and bits 64-127 are repacked from limbs 2 and 3.
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


def limbs(values: list[int]) -> list:
    """The four low 32-bit limbs of each int of a list as (len, 1) uint64
    columns."""
    return [
        np.array([(v >> (32 * i)) & 0xFFFFFFFF for v in values], dtype=np.uint64)[:, None]
        for i in range(4)
    ]


def phase_block_limbs(a: int, bs: list[int], c: int, k0: int, blen: int) -> np.ndarray:
    """Phases of k = k0 .. k0+blen-1 (blen <= 2**15) mod 2**256 by
    four-limb sums; one row of blen phases per entry of bs."""
    mod = 1 << 256
    a %= mod
    n_ac = a * k0 * k0 + c
    d_a = a * (2 * k0 + 1)
    nl = limbs([(n_ac + b * k0) % mod >> 128 for b in bs])
    dl = limbs([(d_a + b) % mod >> 128 for b in bs])
    al = limbs([a >> 128])
    j = np.arange(blen, dtype=np.uint64)
    jj = j * (j - np.uint64(1))
    acc0 = nl[0] + j * dl[0] + jj * al[0]
    acc1 = nl[1] + j * dl[1] + jj * al[1]
    acc2 = nl[2] + j * dl[2] + jj * al[2]
    acc3 = nl[3] + j * dl[3] + jj * al[3]
    acc1 += acc0 >> _SH32
    acc2 += acc1 >> _SH32
    acc3 += acc2 >> _SH32
    top64 = ((acc3 & _M32) << _SH32) | (acc2 & _M32)
    return top64.astype(np.float64) * 2.0 ** -64
