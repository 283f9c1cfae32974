"""Three-limb phase block: the test oracle for the two-word phase kernel
that the vectorized engine evaluates (_engine._phase_block).

The top 96 bits of each operand are split into three 32-bit limbs, every
limb is summed in its own uint64 accumulator, the carries are propagated
limb by limb, and bits 192-255 are repacked from limbs 1 and 2.
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


def limbs(value: int) -> list:
    """The three low 32-bit limbs of an int, as uint64."""
    return [np.uint64((value >> (32 * i)) & 0xFFFFFFFF) for i in range(3)]


def phase_block_limbs(a: int, b: int, c: int, k0: int, blen: int) -> np.ndarray:
    """Phases of k = k0 .. k0+blen-1 (blen <= 2**15) mod 2**256 by
    three-limb sums."""
    mod = 1 << 256
    a %= mod
    nl = limbs((a * k0 * k0 + b * k0 + c) % mod >> 160)
    dl = limbs((a * (2 * k0 + 1) + b) % mod >> 160)
    al = limbs(a >> 160)
    j = np.arange(blen, dtype=np.uint64)
    jj = j * (j - np.uint64(1))
    acc0 = nl[0] + j * dl[0] + jj * al[0]
    acc1 = nl[1] + j * dl[1] + jj * al[1]
    acc2 = nl[2] + j * dl[2] + jj * al[2]
    acc1 += acc0 >> _SH32
    acc2 += acc1 >> _SH32
    top64 = ((acc2 & _M32) << _SH32) | (acc1 & _M32)
    return top64.astype(np.float64) * 2.0 ** -64
