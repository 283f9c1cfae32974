"""Counter-based deterministic sampling.

Every Monte Carlo draw is SHA-256(stream, seed, index), so a sweep is a
pure function of (seed, index): samples can be generated in any order,
in parallel, and reproduce byte-identically across platforms and library
versions.  One digest yields exactly the 256 bits of an Angle numerator.

Every gate and sweep draws whole streams, indices 0 .. n-1 at once:
counter_numerators, counter_units and counter_words (the numerators as
rows of four uint64 words).  _digests is the one hash loop; it copies
the hash state of (stream, seed) for each index, so a draw costs one
copy, one update and one digest.  Each draw type is converted in one
place over any index set (_numerators, _units), and the array draws fill
their array _CHUNK draws at a time, so they hold the array and one chunk.
The single draws counter_angle and counter_unit, one-index calls of the
same code, remain only for the perfbench tracer and tests.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exactangle import Angle

_CHUNK = 1 << 12  # draws per chunk of the array draws


def _check_fits(count: float, bytes_each: int, what: str) -> None:
    """Raise ValueError, before anything is allocated, when count items
    at bytes_each bytes, a caller's measured peak per item, exceed
    physical memory."""
    need = count * bytes_each
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(f"{what} would need {need:.3g} bytes, over physical memory ({have} bytes)")


def _prefix(stream: str, seed: int):
    h = hashlib.sha256()
    h.update(stream.encode())
    h.update(seed.to_bytes(16, "little", signed=True))
    return h


def _digests(seed: int, indices: Iterable[int], stream: str) -> Iterator[bytes]:
    prefix = _prefix(stream, seed)
    for index in indices:
        h = prefix.copy()
        h.update(index.to_bytes(16, "little", signed=True))
        yield h.digest()


def _digest_words(seed: int, indices: Sequence[int], stream: str, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, words) for each chunk of _CHUNK positions from lo in indices:
    the first `width` big-endian uint64 words of each digest, in order."""
    digests = _digests(seed, indices, stream)
    for lo in range(0, len(indices), _CHUNK):
        chunk = bytearray()
        for d in itertools.islice(digests, _CHUNK):
            chunk += d[: 8 * width]
        yield lo, np.frombuffer(chunk, dtype=">u8").reshape(-1, width)


def _numerators(seed: int, indices: Iterable[int], stream: str) -> list[int]:
    # each digest read big-endian: all 256 bits of an Angle numerator
    return [int.from_bytes(d, "big") for d in _digests(seed, indices, stream)]


def _units(seed: int, indices: Sequence[int], stream: str) -> np.ndarray:
    # each digest's top 53 bits (its first 8 bytes big-endian, >> 11) times
    # 2**-53; the int-to-double conversion and the scaling are both exact
    units = np.empty(len(indices))
    for lo, top in _digest_words(seed, indices, stream, 1):
        units[lo : lo + len(top)] = top[:, 0] >> np.uint64(11)
    units *= 2.0 ** -53
    return units


def counter_angle(seed: int, index: int, stream: str) -> Angle:
    """Uniform grid point on R/Z for the given (stream, seed, index)."""
    return Angle(_numerators(seed, (index,), stream)[0])


def counter_unit(seed: int, index: int, stream: str) -> float:
    """Uniform double in [0, 1) from the top 53 bits of the digest."""
    return _units(seed, (index,), stream).item()


def counter_numerators(seed: int, n: int, stream: str) -> list[int]:
    """[counter_angle(seed, i, stream).numerator for i < n]."""
    _check_fits(n, 68, f"{n} draws")  # peak bytes per draw, by tracemalloc
    return _numerators(seed, range(n), stream)


def counter_units(seed: int, n: int, stream: str) -> np.ndarray:
    """[counter_unit(seed, i, stream) for i < n] as a float64 array."""
    return _units(seed, range(n), stream)


def counter_words(seed: int, n: int, stream: str) -> np.ndarray:
    """counter_numerators(seed, n, stream) as an (n, 4) uint64 array, one
    numerator per row, most significant word first."""
    words = np.empty((n, 4), dtype=np.uint64)
    for lo, chunk in _digest_words(seed, range(n), stream, 4):
        words[lo : lo + len(chunk)] = chunk
    return words
