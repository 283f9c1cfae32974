"""Quadratic exponential sums over the skew shift.

Central objects:

    a(x, y, n) = sum_{k<n} e(k^2*theta + 2kx + y)      (the cocycle)
    b(x, m)    = sum_{k<m} e(kx)                        (geometric sum)
    psi(theta, x, k) = |sum_{j<k} e(j^2*theta/2 + jx)|  (half-quadratic form)

All phases come from the exact grid engine and e(phi) from its table kernel
on the exact top 64 bits of each phase, within 2**-51 per term: a direct
sum's |sum| error stays below n * 2**-51.  Summation is ascending in k
with pairwise accumulation inside each block.  weyl_sum on long sums,
which it takes by blocks through a non-uniform FFT, trajectory, whose
strided points are cumulative sums of such blocks, and weyl_sums_over_x,
which evaluates many x at once by one FFT, state their own bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _engine
from ._rng import _check_fits, counter_words
from .exactangle import (
    MODULUS,
    ZERO,
    Angle,
    scale_mod1,
    wrap_add,
)
from .reporting import Table


@dataclass(frozen=True)
class SkewPoint:
    """A point (x, y) on the 2-torus."""

    x: Angle
    y: Angle


@dataclass(frozen=True)
class Trajectory:
    """Partial sums z_n = a(x, y, n) recorded every `stride` steps.

    ns[i] is the index of points[i]; z_0 = 0 is always included.
    """

    theta: Angle
    start: SkewPoint
    ns: np.ndarray
    points: np.ndarray
    length: int
    stride: int

    def table(self) -> Table:
        """The points as rows (n, re z_n, im z_n)."""
        return Table(self.ns.tolist(), self.points.real.tolist(), self.points.imag.tolist())

    def csv_rows(self):
        return [("n", "re", "im"), self.table()]

    def as_dict(self) -> dict:
        return {
            "experiment": "trajectory",
            "theta": self.theta.to_hex(),
            "x": self.start.x.to_hex(),
            "y": self.start.y.to_hex(),
            "n": self.length,
            "stride": self.stride,
            "points": self.table(),
        }


def weyl_sum(theta: Angle, x: Angle, y: Angle, n: int) -> complex:
    """a(x, y, n) = sum_{k<n} e(k^2*theta + 2kx + y) by _engine.qsum_blocks:
    a direct sum below 2**14 terms, and from there blocks of
    B = 2 floor(sqrt(n)) terms through the non-uniform FFT, one row of B
    coefficients e(j^2 theta) evaluated at the n // B block points, then a
    direct tail of m = n mod B terms.

    Error of the blocks, a priori: each block's row sum is within the
    evaluator's (1.25 B + 4) 2**-51 of the direct row sum (the bound
    weyl_sums_over_x states), which is within B 2**-51 of the exact one;
    its prefactor, one e(phi) within 2**-51, adds at most B 2**-51 more;
    and the tail adds m 2**-51.  In all
    |error| <= ((3.25 B + 4) (n // B) + m) 2**-51 <= (3.25 n + 2 sqrt(n)) 2**-51,
    about 3.25 times a direct sum's n 2**-51.  Measured, the difference
    from the direct sum is far smaller where |a| is small (about 1e-3 n
    2**-51 at random theta, n = 1e5-2e6) and reaches 0.55 n 2**-51 at
    theta = floor(2**256/3) 2**-256, where |a| is near 0.58 n.
    A sum whose row, fine grid and block points would exceed physical
    memory raises ValueError before anything is allocated."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _engine.qsum_blocks(theta.numerator, 2 * x.numerator, y.numerator, n)


def weyl_sum_over_x(theta: Angle, xs: list[Angle], n: int) -> np.ndarray:
    """a(x, 0, n) for many x at once, the one-n case of weyl_sums_over_x."""
    return weyl_sums_over_x(theta, xs, [n])[0]


def _check_sums_fit(ns: list[int]) -> None:
    """Raise ValueError for a negative n of ns, or when weyl_sums_over_x's
    peak at the longest n, the evaluator's for a row of n terms
    (_engine._blocks_bytes), would exceed physical memory."""
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    n = max(ns, default=0)
    _check_fits(_engine._blocks_bytes(n, 0), 1, f"the sums of n = {n}")


def weyl_sums_over_x(theta: Angle, xs: list[Angle], ns: list[int]) -> np.ndarray:
    """a(x, 0, n) for x in xs (columns) and n in ns (rows): each sum is
    sum_k e(k^2*theta) e(k u) at u = 2x mod 1, evaluated at every x by one
    type-2 non-uniform FFT per n (_engine.poly_eval_unit_circle).  One
    coefficient row, for the longest n, serves every n by its prefixes.
    Each point's grid node, offset and centring turn come from the exact
    top 128 bits of u, never from x as a float; u = 0 (x = 0 or 1/2) gives
    the plain sum of the row, and n = 1 the one term.

    Error: within (1.25 n + 4) * 2**-51 of a direct sum in every
    measurement (n <= 2000; theta random and a/2**s, s <= 8; x random, 0,
    1/2, and 2x on or within 2**-64 of a fine-grid node), the worst
    1.08 n * 2**-51.  It scales with max_x |a(x, n)|, at about 2**-51 per
    unit, so it stays near a direct sum's budget where the sums are large
    and far below it elsewhere: against exact dyadic closed forms (theta =
    a/2**s, n = 1e5-1e6) it measured 0.84 n * 2**-51 at s = 2, where |a|
    reaches n/sqrt(2), 0.19 n at s = 8 and 0.004 n at s = 20.
    Cost per n: O(L log L) for the FFT over the fine grid (L, the least
    5-smooth number >= 2n) and 18 taps per x.  Memory: the coefficient row
    (16 bytes per term of the longest n) and, one n at a time, the grid and
    numpy's FFT work space; about 115 bytes per term of the longest n at
    the peak (growth to n = 1e7: 1.2 GB).  Sums whose peak would exceed
    physical memory raise ValueError first (_check_sums_fit)."""
    _check_sums_fit(ns)
    x_bytes = b"".join([x.numerator.to_bytes(32, "big") for x in xs])
    x_words = np.frombuffer(x_bytes, dtype=">u8").reshape(len(xs), 4).astype(np.uint64)
    return _sums_over_words(theta, x_words, ns)


def _sums_over_words(theta: Angle, x_words: np.ndarray, ns: list[int]) -> np.ndarray:
    """weyl_sums_over_x at the x whose numerators are the rows of x_words,
    four uint64 words each, most significant first."""
    n_max = max(ns, default=0)
    out = np.zeros((len(ns), len(x_words)), dtype=np.complex128)
    coeffs = _engine._terms(theta.numerator, 0, 0, n_max)
    # the top 128 bits of u = 2x mod 1 are bits 254..127 of x's numerator
    rho = x_words[:, :2] << np.uint64(1) | x_words[:, 1:3] >> np.uint64(63)
    for row, n in zip(out, ns):
        row[:] = _engine.poly_eval_unit_circle(coeffs[:n], rho)
    return out


def dirichlet_b(x: Angle, m: int) -> complex:
    """b(x, m) = sum_{k<m} e(kx), by direct summation."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _engine.qsum(0, x.numerator, 0, m)


def _sin_pi_frac(num: int) -> float:
    folded = min(num, MODULUS - num)
    return math.sin(math.pi * (folded / MODULUS))


def _e_half_grid(nums) -> np.ndarray:
    # e(num / 2**257) per num of an iterable, from the exact top 64 bits of
    # num mod 2**257, in one e_phase call
    return _engine.e_phase(np.fromiter(((num >> 193) % (1 << 64) for num in nums), dtype=np.uint64))


def _sin_ratios(num: int, ms) -> list[float]:
    # |b(x, m)| at x = num 2**-256 per int m: m at x = 0, and elsewhere
    # sin(pi {m x}) / sin(pi x), {m x} reduced exactly on numerators (sin(pi
    # m x) is this times (-1)^floor(m x), and {m x} folds freely across 1/2)
    if num == 0:
        return [float(m) for m in ms]
    den = _sin_pi_frac(num)
    return [_sin_pi_frac(m * num & (MODULUS - 1)) / den for m in ms]


def dirichlet_b_closed(x: Angle, m: int) -> complex:
    """Closed form e((m-1)x/2) * sin(pi m x) / sin(pi x).

    The removable singularity at x in Z returns m.  Elsewhere both sines
    take arguments reduced exactly on the grid numerators and folded to
    [0, 1/2], so each is accurate relative to its own size at every grid
    x != 0 and the result is within m * 2**-51 of b(x, m).
    """
    return complex(dirichlet_bs_closed([x.numerator], [m])[0])


def dirichlet_bs_closed(nums: list[int], ms: list[int]) -> np.ndarray:
    """dirichlet_b_closed(Angle(num), m) per (num, m), with the half phases
    through one e_phase call: a value can differ from dirichlet_b_closed's
    in its last bit, which e_phase rounds otherwise on one word."""
    if min(ms, default=0) < 0:
        raise ValueError("m must be >= 0")
    # the half phase (m-1)x/2, turned by a half when floor(m x) is odd,
    # which folds in the sign of sin(pi m x); at x = 0 it is 0 and e(0) = 1
    halves = ((m - 1) * num + (m * num >> 256 << 256) for num, m in zip(nums, ms, strict=True))
    out = _e_half_grid(halves) * np.array([_sin_ratios(num, (m,))[0] for num, m in zip(nums, ms)])
    out[[m == 0 for m in ms]] = 0
    return out


def psi(theta: Angle, x: Angle, k: int) -> float:
    """psi(theta, x, k) = |sum_{j<k} e(j^2*theta/2 + jx)|.

    The half-angle theta/2 is off the 2**-256 grid when the numerator is
    odd, so the sum is split exactly by the parity of j into two cocycle
    sums a2 at 2*theta mod 1 and one constant, from its exact 2**-257 word:
        psi = |a2(x, 0, ceil(k/2)) + e(theta/2 + x) * a2(theta + x, 0, floor(k/2))|

    For theta < 1/2, psi(2*theta, 2x, k) = |a(x, y, k)| for every y; the
    doubling must be taken without reduction mod 1 (for theta >= 1/2 the
    wrapped double 2*theta - 1 flips odd-j terms by a half turn).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    twice = scale_mod1(theta, 2)
    even = weyl_sum(twice, x, ZERO, -(-k // 2))
    odd = weyl_sum(twice, wrap_add(theta, x), ZERO, k // 2)
    return float(np.abs(even + complex(_e_half_grid([theta.numerator + 2 * x.numerator])[0]) * odd))


def skew_shift_n(theta: Angle, p: SkewPoint, n: int) -> SkewPoint:
    """n-th iterate of (x, y) -> (x + theta, y + 2x + theta), closed form.

    (x, y) -> (x + n*theta, y + 2nx + n^2*theta), exact on the grid;
    negative n gives the inverse iterate.
    """
    x_n = wrap_add(p.x, scale_mod1(theta, n))
    y_n = wrap_add(p.y, wrap_add(scale_mod1(p.x, 2 * n), scale_mod1(theta, n * n)))
    return SkewPoint(x_n, y_n)


@dataclass(frozen=True)
class ParsevalEstimate:
    experiment = "parseval"

    q: int
    samples: int
    seed: int
    mean: float
    std_error: float

    def csv_rows(self):
        yield self.q, self.samples, self.seed, self.mean, self.std_error


# parseval_estimates' peak bytes per sample beside its rows of sums (16
# per q), by tracemalloc: the words (32) and the temporaries of the
# evaluator's points or of the statistics
PARSEVAL_SAMPLE_BYTES = 64


def parseval_estimate(theta: Angle, q: int, samples: int, seed: int) -> ParsevalEstimate:
    """Monte Carlo mean of |a(x, q)|^2 over uniform x, with standard error;
    the one-q case of parseval_estimates."""
    return parseval_estimates(theta, [q], samples, seed)[0]


def parseval_estimates(
    theta: Angle, qs: list[int], samples: int, seed: int
) -> list[ParsevalEstimate]:
    """parseval_estimate for each q of qs, all on one draw of the samples.

    The exact mean over x is q for every q (the cross terms integrate to
    zero); the estimate is unbiased even on the grid because each grid
    frequency 2(k-l) has full period 2**256.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # the sums, then the samples at their peak bytes each (by tracemalloc:
    # the words and a row of sums per q), before the draws
    _check_sums_fit(qs)
    _check_fits(samples, PARSEVAL_SAMPLE_BYTES + 16 * len(qs), f"{samples} samples")
    words = counter_words(seed, samples, "parseval")
    out = []
    for q, sums in zip(qs, _sums_over_words(theta, words, qs)):
        vals = np.abs(sums) ** 2
        se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        out.append(ParsevalEstimate(q, samples, seed, float(np.mean(vals)), se))
    return out


# trajectory takes the block route from this stride on: at n = 10**7 the
# stream took 0.22-0.29 s at any stride, and the block sums beat it at
# every stride from 17 in four rounds over strides 8-40 (best of 5-9,
# 2-core Xeon VM; 0.20 against 0.22 s at 17, 0.17 against 0.22 at 20,
# 0.10 against 0.29 at 39), while at 15 and 16 each route won a round
STRIDE_BLOCKS_FROM = 17
# a trajectory's peak bytes per recorded point on every route (the points
# and their indices, by tracemalloc), beside block_sums' own (_engine._blocks_bytes)
_POINT_BYTES = 32


def trajectory(theta: Angle, x: Angle, y: Angle, n: int, stride: int = 1) -> Trajectory:
    """Record every stride-th partial sum z_j = a(x, y, j), starting at
    z_0 = 0, and the endpoint z_n.

    Two routes.  Below STRIDE_BLOCKS_FROM (17, from where the blocks ran
    faster at n = 1e7) the points are the direct stream's own partial
    sums (_engine.qsum_partials), every term summed.
    From there z_s, z_2s, ... (s = stride) are the cumulative sums of the
    n // s block sums of s terms each, all from one row of s coefficients
    through the non-uniform FFT (_engine.block_sums, as weyl_sum's blocks):
    O(s log s) for the row per chunk of at least s blocks and 18 taps per
    block, against n terms.  A stride longer than weyl_sum's own blocks of
    2 floor(sqrt(n)) terms takes each block as weyl_sum takes a sum of s
    terms instead, at the block's shifted coefficients, so that no row
    grows past what memory allows (n // s < sqrt(n) / 2 sums).  When s does
    not divide n, the n mod s tail terms are one more, shorter block, summed
    as weyl_sum takes it, and z_n is the cumulative sum's last point.

    Error of the block route, a priori: each block sum is within
    (3.25 s + 4) 2**-51 of the exact one (weyl_sum's bound for one block; a
    block summed on its own is within weyl_sum's bound for s terms, under
    (3.25 s + 2 sqrt(s)) 2**-51); the cumulative sum rounds by at most
    2**-53 |z_is| at each point i; and z_n adds the tail's weyl_sum bound.
    So z_js is within
        j (3.25 s + 4) 2**-51 + 2**-53 (|z_s| + |z_2s| + ... + |z_js|)
    of the exact sum, at most j (3.25 s + 4) 2**-51 + 2**-54 j (j + 1) s.
    The stream's running sum rounds the same way at every term.  Measured
    against the stream: at the depth-4 theta (construct:0.5,4), n = 2.5e7
    and s = 1000 the points differ by at most 4.4e-11 (0.004 n 2**-51) and
    z_n from weyl_sum by 5.2e-12; at golden theta, n = 1e7, by 3.5e-11.
    Where the sums are largest, theta = floor(2**256/3) 2**-256 and x = 0
    (|a| near 0.58 n), the cumulative sum's rounding dominates: at n = 1e7
    and s = 1000 the block points came within 8.9e-7 of weyl_sum's sums at
    the same lengths and the stream's within 1.5e-7, against an a-priori
    bound of 3.2e-6 for the block route.
    A trajectory whose points (_POINT_BYTES each on either route) and, on
    the block route, row, fine grid and one chunk of blocks would exceed
    physical memory raises ValueError before anything is allocated."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = theta.numerator, 2 * x.numerator, y.numerator
    blocks, tail = divmod(n, stride)
    points = blocks + 1 + bool(tail)  # z_0, every stride-th sum and z_n
    # one row of stride terms; past weyl_sum's own blocks, each block is
    # a sum of its own as weyl_sum takes it (its blocks fewer than size)
    on_row = stride <= min(n, 2 * math.isqrt(n))
    if stride < STRIDE_BLOCKS_FROM:
        need = 0
    elif on_row:
        need = _engine._blocks_bytes(stride, blocks)
    else:
        size = 2 * math.isqrt(min(stride, n))
        need = _engine._blocks_bytes(size, size)
    _check_fits(need + _POINT_BYTES * points, 1, f"{points} recorded points of stride {stride}")
    zs = np.zeros(points, dtype=np.complex128)
    if stride < STRIDE_BLOCKS_FROM:
        for k0, z in _engine.qsum_partials(*coeffs, n):
            # z[j] is the partial sum through term k0+j, i.e. z_{k0+j+1}: the
            # points z_is with k0 < is <= k0 + z.size, from i = ceil((k0 + 1) / s)
            i = -(-(k0 + 1) // stride)
            zs[i : (k0 + z.size) // stride + 1] = z[i * stride - k0 - 1 :: stride]
        if tail:
            # always include the endpoint, the stream's own last partial sum
            zs[-1] = z[-1]
    else:
        done = blocks if on_row else 0
        if on_row:
            _engine.block_sums(*coeffs, stride, zs[1 : blocks + 1])
        # the blocks past the row and the tail, one more, shorter block
        zs[done + 1 :] = [
            _engine.qsum_blocks(*_engine.shifted(*coeffs, k), min(stride, n - k))
            for k in range(done * stride, n, stride)
        ]
        np.cumsum(zs, out=zs)
    return Trajectory(
        theta=theta,
        start=SkewPoint(x, y),
        ns=np.append(np.arange(0, n, stride, dtype=np.int64), n),
        points=zs,
        length=n,
        stride=stride,
    )
