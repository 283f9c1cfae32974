"""The cos/sin e(phi) path that the engine took before its table kernel:
the oracle that the table kernel's sums are checked against.

A phase word w becomes the float64 phase w * 2**-64, and e(phi) is
cos(2 pi phi) + i sin(2 pi phi).  A sum takes np.sum of the cos and of the
sin per block of phase_chunks, then one pass over the block sums, which is
the engine's old qsum bit for bit.  Rounding phi, and 2 pi phi, to doubles
costs up to 2**-54 and 2**-51 radians, and fl(2 pi) and cos/sin add to that:
its per-term error against e(w 2**-64) stays below EPS_OLD (2.3 * 2**-51
measured).
"""

from __future__ import annotations

import numpy as np

from weyl_lab import _engine

EPS_OLD = 3.0 * 2.0 ** -51


def _angles(words: np.ndarray) -> np.ndarray:
    return words.astype(np.float64) * 2.0 ** -64 * (2.0 * np.pi)


def e_cos_sin(words: np.ndarray) -> np.ndarray:
    """cos(2 pi phi) + i sin(2 pi phi) of each phi = w * 2**-64 in float64."""
    t = _angles(words)
    return np.cos(t) + 1j * np.sin(t)


def qsum_cos_sin(a: int, b: int, c: int, n: int) -> complex:
    """sum_{k<n} e((A k^2 + B k + C)/2**256) on the cos/sin path, on one
    thread."""
    re, im = [], []
    for _, words in _engine.phase_chunks(a, b, c, n):
        t = _angles(words)
        re.append(np.sum(np.cos(t)))
        im.append(np.sum(np.sin(t)))
    if not re:
        return 0j
    return complex(np.sum(np.asarray(re)), np.sum(np.asarray(im)))
