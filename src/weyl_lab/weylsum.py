"""Quadratic exponential sums over the skew shift.

Central objects:

    a(x, y, n) = sum_{k<n} e(k^2*theta + 2kx + y)      (the cocycle)
    b(x, m)    = sum_{k<m} e(kx)                        (geometric sum)
    psi(theta, x, k) = |sum_{j<k} e(j^2*theta/2 + jx)|  (half-quadratic form)

All phases come from the exact grid engine; e(phi) is evaluated by one
double conversion per term, so |sum| errors stay below n * 2**-51.
Summation is ascending in k with pairwise accumulation inside each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _engine
from ._rng import counter_angles
from .exactangle import (
    MODULUS,
    Angle,
    dist_to_int,
    scale_mod1,
    wrap_add,
)

_TWO_PI = 2.0 * math.pi

# Below this distance from an integer the sin-ratio closed form for b is
# replaced by the direct series (catastrophic cancellation in sin(pi*x));
# below _B_LONGDOUBLE the ratio is formed in 80-bit floats to keep the
# absolute error under 1e-9 for m up to 1e4.
_B_SERIES_CUTOFF = 2.0 ** -20
_B_LONGDOUBLE_CUTOFF = 2.0 ** -8


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

    def csv_rows(self):
        yield "n", "re", "im"
        for n, z in zip(self.ns, self.points):
            yield int(n), float(z.real), float(z.imag)

    def as_dict(self) -> dict:
        return {
            "experiment": "trajectory",
            "theta": self.theta.to_hex(),
            "x": self.start.x.to_hex(),
            "y": self.start.y.to_hex(),
            "n": self.length,
            "stride": self.stride,
            "points": [[int(n), float(z.real), float(z.imag)] for n, z in zip(self.ns, self.points)],
        }


def weyl_sum(theta: Angle, x: Angle, y: Angle, n: int) -> complex:
    """a(x, y, n) = sum_{k<n} e(k^2*theta + 2kx + y)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _engine.qsum(theta.numerator, 2 * x.numerator, y.numerator, n)


def weyl_sum_over_x(theta: Angle, xs: list[Angle], n: int) -> np.ndarray:
    """a(x, 0, n) for many x at once.

    Writes the sum as the polynomial sum_k e(k^2*theta) * rho^k with
    rho = e(2x) and evaluates by baby-step/giant-step so the bulk of the
    work is one complex matrix product per sample block.  Anchor powers
    rho^L come from exactly reduced phases, not repeated multiplication.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.zeros(len(xs), dtype=np.complex128)
    coeff_phases = np.concatenate(
        [ph for _, ph in _engine.phase_chunks(theta.numerator, 0, 0, n)]
    )
    coeffs = _engine.e_phase(coeff_phases)
    step = math.isqrt(n - 1) + 1 if n > 1 else 1
    out = np.empty(len(xs), dtype=np.complex128)
    block = 8192
    for s0 in range(0, len(xs), block):
        xs_blk = xs[s0 : s0 + block]
        # (2x mod 1) and (2*step*x mod 1) from numerators, as scale_mod1 reduces them
        rho_ph = np.array([(2 * x.numerator) % MODULUS / MODULUS for x in xs_blk])
        big_ph = np.array([(2 * step * x.numerator) % MODULUS / MODULUS for x in xs_blk])
        rho = _engine.e_phase(rho_ph)
        rho_big = _engine.e_phase(big_ph)
        out[s0 : s0 + len(xs_blk)] = _engine.poly_eval_unit_circle(
            coeffs, rho, rho_big, step
        )
    return out


def dirichlet_b(x: Angle, m: int) -> complex:
    """b(x, m) = sum_{k<m} e(kx), by direct summation."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _engine.qsum(0, x.numerator, 0, m)


def dirichlet_b_over_x(xs: list[Angle], m: int) -> np.ndarray:
    """[dirichlet_b(x, m) for x in xs], bit for bit, in one engine call."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _engine.qsum_rows(0, [x.numerator for x in xs], 0, m)


def _longdouble_frac(num: int, bits: int = 256) -> np.longdouble:
    # num / 2**bits in 80-bit floats, built from 32-bit limbs so the int
    # conversion never routes through a 53-bit double
    acc = np.longdouble(0.0)
    for i in range(1, 5):
        limb = (num >> (bits - 32 * i)) & 0xFFFFFFFF
        acc += np.longdouble(limb) * np.longdouble(2.0) ** (-32 * i)
    return acc


def _sin_pi_frac_ld(num: int) -> np.longdouble:
    # sin(pi * num/2**256) with the argument folded exactly to [0, 1/2]
    # (sin(pi v) = sin(pi (1-v))), so pi-rounding stays relative
    folded = min(num, MODULUS - num)
    return np.sin(np.longdouble(math.pi) * _longdouble_frac(folded))


def _sin_pi_frac(num: int) -> float:
    folded = min(num, MODULUS - num)
    return math.sin(math.pi * (folded / MODULUS))


def _sin_ratios(x: Angle, ms, nx: float) -> list[float]:
    # sin(pi {m x}) / sin(pi x) per m, with {m x} reduced exactly on
    # numerators: sin(pi m x) is this times (-1)^floor(m x), and {m x}
    # folds freely across 1/2.  80-bit floats below _B_LONGDOUBLE_CUTOFF.
    fracs = [(int(m) * x.numerator) & (MODULUS - 1) for m in ms]
    if nx < _B_LONGDOUBLE_CUTOFF:
        den = _sin_pi_frac_ld(x.numerator)
        return [float(_sin_pi_frac_ld(f) / den) for f in fracs]
    den = _sin_pi_frac(x.numerator)
    return [_sin_pi_frac(f) / den for f in fracs]


def dirichlet_b_closed(x: Angle, m: int) -> complex:
    """Closed form e((m-1)x/2) * sin(pi m x) / sin(pi x).

    The removable singularity at x in Z returns m; near-singular x falls
    back to the series.  For moderately small ||x|| the sin ratio runs in
    80-bit floats with arguments taken straight from the grid numerators
    (the denominator magnifies any argument rounding by 1/||x||).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 0j
    if x.numerator == 0:
        return complex(m)
    nx = dist_to_int(x)
    if nx < _B_SERIES_CUTOFF:
        return dirichlet_b(x, m)
    # the parity of floor(m*x) is folded into the half-phase below
    floor_mx = (m * x.numerator) >> 256
    # half phase (m-1)x/2 at doubled resolution: ((m-1)*num) / 2**257
    half_num = ((m - 1) * x.numerator) % (1 << 257)
    half_phase = half_num / (1 << 257)
    if floor_mx % 2 == 1:
        half_phase += 0.5
    (ratio,) = _sin_ratios(x, (m,), nx)
    ang = _TWO_PI * half_phase
    return complex(math.cos(ang) * ratio, math.sin(ang) * ratio)


def dirichlet_b_moduli(x: Angle, ms: np.ndarray) -> np.ndarray:
    """|b(x, m)| for an array of m, via the exactly-reduced sin ratio."""
    if x.numerator == 0:
        return ms.astype(np.float64)
    nx = dist_to_int(x)
    if nx < _B_SERIES_CUTOFF:
        return np.array([abs(dirichlet_b(x, int(m))) for m in ms])
    return np.abs(np.array(_sin_ratios(x, ms, nx)))


def psi(theta: Angle, x: Angle, k: int) -> float:
    """psi(theta, x, k) = |sum_{j<k} e(j^2*theta/2 + jx)|.

    The half-angle theta/2 is off the 2**-256 grid when the numerator is
    odd, so the phase runs at doubled resolution:
    (j^2*theta + 2jx) / 2**257 with both coefficients exact.

    For theta < 1/2, psi(2*theta, 2x, k) = |a(x, y, k)| for every y; the
    doubling must be taken without reduction mod 1 (for theta >= 1/2 the
    wrapped double 2*theta - 1 flips odd-j terms by a half turn).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return abs(_engine.qsum(theta.numerator, 2 * x.numerator, 0, k, mod_bits=257))


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


def parseval_estimate(theta: Angle, q: int, samples: int, seed: int) -> ParsevalEstimate:
    """Monte Carlo mean of |a(x, q)|^2 over uniform x, with standard error.

    The exact mean over x is q for every q (the cross terms integrate to
    zero); the estimate is unbiased even on the grid because each grid
    frequency 2(k-l) has full period 2**256.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    xs = counter_angles(seed, samples, "parseval")
    vals = np.abs(weyl_sum_over_x(theta, xs, q)) ** 2
    mean = float(np.mean(vals))
    if samples > 1:
        se = float(np.std(vals, ddof=1) / math.sqrt(samples))
    else:
        se = 0.0
    return ParsevalEstimate(q=q, samples=samples, seed=seed, mean=mean, std_error=se)


def trajectory(theta: Angle, x: Angle, y: Angle, n: int, stride: int = 1) -> Trajectory:
    """Record every stride-th partial sum z_j = a(x, y, j), starting at z_0 = 0."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    ns = [0]
    pts = [0j]
    for k0, z in _engine.qsum_partials(theta.numerator, 2 * x.numerator, y.numerator, n):
        # z[j] is the partial sum through term k0+j, i.e. z_{k0+j+1}
        first = k0 + 1
        offset = (-first) % stride
        idx = np.arange(offset, len(z), stride)
        ns.extend((first + idx).tolist())
        pts.extend(z[idx].tolist())
    if n % stride:
        # always include the endpoint
        zn = weyl_sum(theta, x, y, n)
        ns.append(n)
        pts.append(zn)
    return Trajectory(
        theta=theta,
        start=SkewPoint(x, y),
        ns=np.array(ns, dtype=np.int64),
        points=np.array(pts, dtype=np.complex128),
        length=n,
        stride=stride,
    )
