"""Counter-based deterministic sampling.

Every Monte Carlo draw is SHA-256(stream, seed, index), so a sweep is a
pure function of (seed, index): samples can be generated in any order,
in parallel, and reproduce byte-identically across platforms and library
versions.  One digest yields exactly the 256 bits of an Angle numerator.

Batched draws: counter_units and counter_angles give the draws of indices
0 .. n-1 of one stream, equal index by index to counter_unit and
counter_angle.  They hash (stream, seed) once and copy that hash state
for each index, so a draw costs one copy, one update and one digest.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

from .exactangle import Angle


def _prefix(stream: str, seed: int):
    h = hashlib.sha256()
    h.update(stream.encode())
    h.update(seed.to_bytes(16, "little", signed=True))
    return h


def _digests(seed: int, n: int, stream: str) -> Iterator[bytes]:
    prefix = _prefix(stream, seed)
    for index in range(n):
        h = prefix.copy()
        h.update(index.to_bytes(16, "little", signed=True))
        yield h.digest()


def _digest_int(stream: str, seed: int, index: int) -> int:
    h = _prefix(stream, seed)
    h.update(index.to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "big")


def counter_angle(seed: int, index: int, stream: str = "") -> Angle:
    """Uniform grid point on R/Z for the given (stream, seed, index)."""
    return Angle(_digest_int(stream, seed, index))


def counter_unit(seed: int, index: int, stream: str = "") -> float:
    """Uniform double in [0, 1) from the top 53 bits of the digest."""
    return (_digest_int(stream, seed, index) >> 203) * 2.0 ** -53


def counter_angles(seed: int, n: int, stream: str = "") -> list[Angle]:
    """[counter_angle(seed, i, stream) for i < n]."""
    return [Angle(int.from_bytes(d, "big")) for d in _digests(seed, n, stream)]


def counter_units(seed: int, n: int, stream: str = "") -> np.ndarray:
    """[counter_unit(seed, i, stream) for i < n] as a float64 array.

    The top 53 bits are the first 8 digest bytes read big-endian and
    shifted right by 11; both the int-to-double conversion and the scaling
    by 2**-53 are exact.
    """
    top = bytearray()
    for d in _digests(seed, n, stream):
        top += d[:8]
    return (np.frombuffer(top, dtype=">u8") >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
