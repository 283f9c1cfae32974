"""Counter-based deterministic sampling.

Every Monte Carlo draw is SHA-256(stream, seed, index), so a sweep is a
pure function of (seed, index): samples can be generated in any order,
in parallel, and reproduce byte-identically across platforms and library
versions.  One digest yields exactly the 256 bits of an Angle numerator.
"""

from __future__ import annotations

import hashlib

from .exactangle import Angle


def _digest_int(stream: str, seed: int, index: int) -> int:
    h = hashlib.sha256()
    h.update(stream.encode())
    h.update(seed.to_bytes(16, "little", signed=True))
    h.update(index.to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "big")


def counter_angle(seed: int, index: int, stream: str = "") -> Angle:
    """Uniform grid point on R/Z for the given (stream, seed, index)."""
    return Angle(_digest_int(stream, seed, index))


def counter_unit(seed: int, index: int, stream: str = "") -> float:
    """Uniform double in [0, 1) from the top 53 bits of the digest."""
    return (_digest_int(stream, seed, index) >> 203) * 2.0 ** -53
