"""Finite-scale constructive experiments over the skew shift.

The pipeline mirrors the constructive route to the essential value 1/2:
pick denominators q with q^(3+eps)*||q theta|| small, find x with
||2qx|| in a fixed window and |a(x,q)| not too small, modulate by the
geometric factor b(2qx, m) to bring |a(x,q) b(2qx,m)| near 1/2, and then
verify on an interval of width q^-(2+1/2+eps/2) around x that the full
sum a(., M) with M = m*q stays near 1/2 while T^-M almost preserves the
box [x-r, x+r] x J.

Every Monte Carlo estimate draws from the counter generator, so reports
are bit-identical across runs and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _engine
from ._rng import _check_fits, counter_numerators, counter_units
from .contfrac import (
    ContinuedFraction,
    angle_from_cf,
    cf_expand,
    construct_f_member,
    convergents,
    f_witness,
)
from .exactangle import (
    MODULUS,
    ZERO,
    Angle,
    angle_from_float,
    angle_from_fraction,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
    wrap_add,
)
from .reporting import BIG_INT
from .weylsum import (
    SkewPoint,
    _sin_ratios,
    dirichlet_b_closed,
    skew_shift_n,
    weyl_sum,
    weyl_sum_over_x,
    weyl_sums,
    weyl_sums_over_x,
)

DEFAULT_SEED = 7  # of the witness search, the box and the acceptance gates
DEFAULT_EPS = 0.5
DEFAULT_DELTA = 0.2
DEFAULT_THRESHOLD = 0.5
DEFAULT_CANDIDATES = 256
DEFAULT_NU = 0.1
DEFAULT_SAMPLES = 100_000
DEFAULT_J_INTERVAL = (0.25, 0.75)
DEFAULT_GRID = 512
DEFAULT_RADIUS = 2.0  # the density probe's disk and its cell size
DEFAULT_CELL = 0.25
TAYLOR_DEGREE = 4  # moment-expansion degree of modulus_on_interval
# samples per block of the box's exact test and of the Taylor moduli, so
# that neither holds more than a block's lists and complex temporaries
SAMPLE_BLOCK = 1 << 14
# box_experiment's peak bytes per sample, by tracemalloc: the x-offsets
# and the y-offsets (the draws hold one chunk of digest bytes beside them)
BOX_SAMPLE_BYTES = 16
# relative margin of the box's float pre-pass (_box_left), 2**5 times the
# 2**-53 its float operations round by
_BOX_MARGIN = 2.0**-48
INTERVAL_GRID = 33  # x-grid for the interval check around the witness
# resume_witness's gates: |a(x,q)| >= U_MIN, ||a(x,q) b(2qx,m)| - 1/2| <= PRODUCT_TOL
U_MIN = 5.0
PRODUCT_TOL = 0.05
# operational stand-in for the vanishing epsilon_n sequence: the interval
# deviation and the torsion ||M^2 theta + 2Mx|| must both stay below this
EPS_N_BOUND = 0.1

class UnusableLevelError(RuntimeError):
    """No candidate x passed the witness gates at the requested level."""


def _level_dicts(levels) -> list[dict]:
    return [{"l": l, "q": str(q), "witness": w} for l, q, w in levels]


@dataclass(frozen=True)
class QnSchedule:
    """Denominator levels retained for the experiments at a given theta."""

    experiment = "schedule"

    theta: Angle
    eps: float
    threshold: float
    # (level index, q, witness)
    levels: tuple[tuple[int, int, float], ...] = field(metadata={"json": _level_dicts})

    def csv_rows(self):
        for l, q, w in self.levels:
            yield l, q, w


def select_qn(
    cf: ContinuedFraction,
    theta: Angle,
    eps: float = DEFAULT_EPS,
    threshold: float = DEFAULT_THRESHOLD,
) -> QnSchedule:
    """Retain convergent denominators whose witness q^(3+eps)||q theta||
    is below the threshold and decreasing.

    The level q = 1 is always skipped (its witness carries no information)
    and levels whose ||q theta|| sits at the snapping floor are already
    excluded by the certificate.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not 0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    cert = f_witness(cf, eps, theta)
    qs = {c.index: c.q for c in convergents(cf)}
    levels: list[tuple[int, int, float]] = []
    last = math.inf
    for l, w in cert.witnesses:
        q = qs[l]
        if q < 2:
            continue
        if w < threshold and w < last:
            levels.append((l, q, w))
            last = w
    if not levels:
        raise UnusableLevelError("theta is not class-F-like at this depth")
    return QnSchedule(theta=theta, eps=eps, threshold=threshold, levels=tuple(levels))


# the standard construction at DEFAULT_EPS, 4 levels, and its schedule's
# levels q = 17 and q3 = 83523, where the gates work
REFERENCE_CF, _ = construct_f_member(DEFAULT_EPS, 4)
REFERENCE_THETA = angle_from_cf(REFERENCE_CF)
REFERENCE_QS = tuple(q for _, q, _ in select_qn(REFERENCE_CF, REFERENCE_THETA).levels)


@dataclass(frozen=True)
class FindMnResult:
    m: int
    product_value: float
    a_modulus: float
    b_modulus: float


def _find_mn_from_modulus(a_mod: float, alpha: Angle, q: int, eps: float) -> FindMnResult:
    """m <= q^(1/2+eps/4) minimizing | a_mod |b(alpha, m)| - 1/2 |, ties
    broken toward the smallest m."""
    m_max = modulation_cap(q, eps)
    bvals = np.array(_sin_ratios(alpha.numerator, range(m_max + 1)))
    m_best = int(np.argmin(np.abs(a_mod * bvals - 0.5)))  # the first, i.e. smallest m
    return FindMnResult(
        m=m_best,
        product_value=float(a_mod * bvals[m_best]),
        a_modulus=a_mod,
        b_modulus=float(bvals[m_best]),
    )


def product_error(theta: Angle, x: Angle, l: int, m: int, a_l: complex) -> float:
    """|a(x,ml) - a_l b(2lx,m)|, the error of the product approximation
    a(x,ml) ~ a(x,l) b(2lx,m), given a_l = a(x,l)."""
    return _product_gap(x, l, m, a_l, weyl_sum(theta, x, ZERO, m * l))


def _product_gap(x: Angle, l: int, m: int, a_l: complex, a_ml: complex) -> float:
    # |a_ml - a_l b(2lx, m)|, given a_l = a(x, l) and a_ml = a(x, ml)
    return float(np.abs(a_ml - a_l * dirichlet_b_closed(scale_mod1(x, 2 * l), m)))


def approx_ratio(theta: Angle, l: int, m: int, x: Angle, sums: tuple | None = None) -> float:
    """Empirical constant |a(x,ml) - a(x,l) b(2lx,m)| / (|a(x,l)| m^3 l ||l theta||).

    sums is (a(x, l), a(x, ml)), as a sweep's one weyl_sums call over all
    its instances gives them; without it they come from a weyl_sums call
    of their own, so either way the same bits.  The denominator is the
    product-form error budget; a vanishing denominator marks a degenerate
    instance and raises so sweeps can exclude it from statistics.
    """
    if l < 1 or m < 1:
        raise ValueError("l and m must be >= 1")
    a_l, a_ml = sums if sums is not None else weyl_sums([(theta, x, l), (theta, x, m * l)]).tolist()
    den = float(np.abs(a_l)) * (m ** 3) * l * dist_to_int(scale_mod1(theta, l))
    if den == 0.0:
        raise ValueError("degenerate instance: zero denominator")
    return _product_gap(x, l, m, a_l, a_ml) / den


@dataclass(frozen=True)
class ResumeWitness:
    """One usable level of the essential-value construction."""

    experiment = "resume_witness"

    level: int
    q: int = field(metadata=BIG_INT)
    x: Angle
    delta: float
    eps: float
    m_n: int
    M_n: int = field(metadata=BIG_INT)
    product_value: float
    a_modulus: float
    b_modulus: float
    r_n: float
    eps_n: float
    value_i: float
    bound_i: float
    check_i: bool
    value_ii: float  # max interval deviation of ||a| - 1/2|
    check_ii: bool
    value_iii: float
    check_iii: bool
    grid_deviations: tuple[float, ...]
    seed: int
    candidate_index: int

    def csv_rows(self):
        # interval grid deviations, one row per grid point
        half = (len(self.grid_deviations) - 1) // 2
        for g, dev in enumerate(self.grid_deviations):
            yield g, (g - half) / half * self.r_n, dev


def modulation_cap(q: int, eps: float) -> int:
    """The largest modulation index m the construction uses, ceil(q^(1/2+eps/4))."""
    return math.ceil(q ** (0.5 + eps / 4.0))


def interval_radius(q: int, eps: float) -> float:
    return q ** -(2.0 + 0.5 + eps / 2.0)


def holonomy_bound(q: int, eps: float) -> float:
    return q ** -(2.0 + 0.5 + 0.75 * eps)


def resume_witness(
    theta: Angle,
    cf: ContinuedFraction,
    eps: float = DEFAULT_EPS,
    delta: float = DEFAULT_DELTA,
    x_candidates: int = DEFAULT_CANDIDATES,
    seed: int = DEFAULT_SEED,
    level: int | None = None,
) -> ResumeWitness:
    """Scan seeded x for a witness at one schedule level (default: deepest).

    Gates, in order: delta/2 <= ||2qx|| <= delta, then |a(x,q)| >= U_MIN,
    then a modulation index m with | |a(x,q) b(2qx,m)| - 1/2 | within
    PRODUCT_TOL.  Among candidates through all gates the one with the
    smallest m (then smallest scan index) is measured, keeping M = m*q and
    the cost of the interval check as low as the scan allows:
    (i) ||M theta|| exactly, (ii) ||a(x~, M)| - 1/2| on a 33-point grid
    across [x - r, x + r] by weyl_sum (by blocks from 2**14 terms), (iii)
    ||M^2 theta + 2Mx|| exactly.  eps_n is the maximum of the (ii)
    deviations and the (iii) value: the smallest epsilon for which this
    level satisfies the construction, measured rather than prescribed.
    """
    if x_candidates < 1:
        raise ValueError("x_candidates must be >= 1")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    schedule = select_qn(cf, theta, eps)
    if level is None:
        lvl, q, _ = schedule.levels[-1]
    else:
        match = [entry for entry in schedule.levels if entry[0] == level]
        if not match:
            raise UnusableLevelError(f"level {level} not in schedule")
        lvl, q, _ = match[0]

    lo, hi = delta / 2.0, delta
    window: list[tuple[int, Angle]] = []
    for i, x in enumerate(map(Angle, counter_numerators(seed, x_candidates, "resume-x"))):
        if lo <= dist_to_int(scale_mod1(x, 2 * q)) <= hi:
            window.append((i, x))
    if not window:
        raise UnusableLevelError(
            f"level unusable: no candidate with ||2qx|| in [{lo}, {hi}] "
            f"out of {x_candidates}"
        )
    moduli = np.abs(weyl_sum_over_x(theta, [x for _, x in window], q))

    n_umin = 0
    passers: list[tuple[int, int, Angle, FindMnResult]] = []
    for (idx, x), a_mod in zip(window, moduli):
        if a_mod < U_MIN:
            continue
        n_umin += 1
        fm = _find_mn_from_modulus(float(a_mod), scale_mod1(x, 2 * q), q, eps)
        if fm.m < 1 or abs(fm.product_value - 0.5) > PRODUCT_TOL:
            continue
        passers.append((fm.m, idx, x, fm))
    if not passers:
        raise UnusableLevelError(
            f"level unusable: {len(window)} candidates in the ||2qx|| window, "
            f"{n_umin} with |a| >= {U_MIN}, none with product within "
            f"{PRODUCT_TOL} of 1/2"
        )
    m_n, idx, x, fm = min(passers, key=lambda t: (t[0], t[1]))
    big_m = m_n * q
    value_i = dist_to_int(scale_mod1(theta, big_m))
    bound_i = holonomy_bound(q, eps)
    value_iii = dist_to_int(
        wrap_add(scale_mod1(theta, big_m * big_m), scale_mod1(x, 2 * big_m))
    )
    r_n = interval_radius(q, eps)
    devs: list[float] = []
    half = (INTERVAL_GRID - 1) // 2
    for g in range(INTERVAL_GRID):
        off = Fraction(g - half, half) * Fraction(r_n)
        x_tilde = wrap_add(x, angle_from_fraction(off))
        devs.append(abs(float(np.abs(weyl_sum(theta, x_tilde, Angle(0), big_m))) - 0.5))
    value_ii = max(devs)
    eps_n = max(value_ii, value_iii)
    return ResumeWitness(
        level=lvl,
        q=q,
        x=x,
        delta=delta,
        eps=eps,
        m_n=m_n,
        M_n=big_m,
        product_value=fm.product_value,
        a_modulus=fm.a_modulus,
        b_modulus=fm.b_modulus,
        r_n=r_n,
        eps_n=eps_n,
        value_i=value_i,
        bound_i=bound_i,
        check_i=value_i <= bound_i,
        value_ii=value_ii,
        check_ii=value_ii <= EPS_N_BOUND,
        value_iii=value_iii,
        check_iii=value_iii <= EPS_N_BOUND,
        grid_deviations=tuple(devs),
        seed=seed,
        candidate_index=idx,
    )


@dataclass(frozen=True)
class BoxReport:
    """Monte Carlo audit of the box [x0-r, x0+r] x J under T^-M."""

    experiment = "box"

    x0: Angle
    r: float
    j_lo: float
    j_hi: float
    M_n: int = field(metadata=BIG_INT)
    nu: float
    samples: int
    seed: int
    symdiff_ratio: float
    modulus_fraction: float
    left_fraction: float
    taylor_degree: int
    taylor_tail: float

    def csv_rows(self):
        yield (
            str(self.M_n),
            self.symdiff_ratio,
            self.modulus_fraction,
            self.nu,
            self.samples,
            self.seed,
        )


def modulus_on_interval(
    theta: Angle, x0: Angle, big_m: int, offsets: np.ndarray
) -> tuple[np.ndarray, float]:
    """|a(x0+u, M)| for many offsets |u| <= r via one pass of moments.

    a(x0+u, M) = sum_p S_p (4 pi i M u)^p / p! with S_p the (k/M)^p-weighted
    sums, p <= P = TAYLOR_DEGREE; the truncation tail is below
    M * (4 pi M max|u|)^(P+1)/(P+1)!, reported so callers can check it.
    The offsets are taken SAMPLE_BLOCK at a time.
    """
    moments = _interval_moments(theta, x0, big_m)
    mods = np.empty(len(offsets))
    for lo in range(0, len(offsets), SAMPLE_BLOCK):
        block = slice(lo, lo + SAMPLE_BLOCK)
        mods[block] = _taylor_moduli(moments, big_m, offsets[block])
    return mods, _taylor_tail(big_m, offsets)


def _interval_moments(theta: Angle, x0: Angle, big_m: int) -> np.ndarray:
    return _engine.qsum_moments(theta.numerator, 2 * x0.numerator, 0, big_m, TAYLOR_DEGREE)


def _taylor_moduli(moments: np.ndarray, big_m: int, offsets: np.ndarray) -> np.ndarray:
    """|sum_p S_p (4 pi i M u)^p / p!| at each offset u, every one on its own."""
    w = 4j * math.pi * big_m * offsets
    acc = np.full(len(offsets), moments[0], dtype=np.complex128)
    term = np.ones(len(offsets), dtype=np.complex128)
    for p in range(1, TAYLOR_DEGREE + 1):
        term = term * w / p
        acc += moments[p] * term
    return np.abs(acc)


def _taylor_tail(big_m: int, offsets: np.ndarray) -> float:
    u_max = max(-float(np.min(offsets)), float(np.max(offsets))) if len(offsets) else 0.0
    return (
        big_m
        * (4.0 * math.pi * big_m * u_max) ** (TAYLOR_DEGREE + 1)
        / math.factorial(TAYLOR_DEGREE + 1)
    )


def check_box_args(j_interval: tuple[float, float], nu: float, samples: int) -> None:
    """Raise ValueError for box_experiment arguments it cannot run or hold
    in memory, before any witness is searched for.  A y-interval shorter
    than one grid step would snap to length 0, which the box reads as the
    full circle."""
    j_lo, j_hi = j_interval
    if not 2.0**-256 <= j_hi - j_lo <= 1.0 or samples < 1:
        raise ValueError("need a y-interval with 2^-256 <= length <= 1 and samples >= 1")
    if not 0 <= nu < math.inf:
        raise ValueError("nu must be >= 0 and finite")
    _check_fits(samples, BOX_SAMPLE_BYTES, f"{samples} box samples")


def _box_left_exact(
    off: float, y_off: float, shift_x: int, shift_y: int, big_m: int, r_num: int, len_num: int
) -> bool:
    """Whether the sample (x0 + off, j_lo + int(y_off) 2**-256) leaves the
    box under T^-M, on exact grid numerators: with off snapped to the grid
    as u, it stays iff ||u + shift_x|| <= r and (int(y_off) - 2Mu + shift_y)
    mod 1 < len."""
    u = angle_from_float(off).numerator
    dx = (u + shift_x) % MODULUS
    in_x = min(dx, MODULUS - dx) <= r_num
    in_y = (int(y_off) - 2 * big_m * u + shift_y) % MODULUS < len_num
    return not (in_x and in_y)


def _box_left(offsets: np.ndarray, y_offsets: np.ndarray, *box: int) -> int:
    """How many samples leave the box, _box_left_exact(off, y_off, *box)
    per sample, by one float pass in turns; a sample within its margin of a
    boundary takes _box_left_exact itself, so the count is exact.

    box is (shift_x, shift_y, M, r_num, len_num).  In turns, with sx the
    centred shift_x 2**-256, k = 2M as a double (from 2M centred mod 2**256,
    all the exact test reads of it), r_t = r_num 2**-256 and
    len_t = len_num 2**-256: dist = |d - rint(d)| with d = off + sx, and
    v = y_off 2**-256 - k off + shift_y 2**-256 reduced by its floor.  The
    sample stays in x iff dist <= r_t and in y iff v < len_t, up to:
    - x: u 2**-256 is within 2**-257 of off (angle_from_float rounds only
      offsets below 2**-204), and sx, r_t, d and d - rint(d) each round by
      at most 2**-53 (|off| + |sx| + r_t): dist and r_t stand within
      2**-257 + 2**-51 (|off| + |sx| + r_t) of the exact distance and r.
    - y: int(y_off) truncates by under 2**-256, k u 2**-256 and k off differ
      by |k| 2**-257, and k, k off, the two sums, the reduction (1 from a v
      just below 0) and len_t each round by at most 2**-53 (2 + |k off|):
      v and len_t stand within |k| 2**-257 + 2**-50 (2 + |k off|) of the
      exact ones.
    The margins _BOX_MARGIN (|off| + |sx| + r_t) + 2**-255 in x and
    _BOX_MARGIN (2 + |k off|) + |k| 2**-257 in y, at _BOX_MARGIN = 2**-48,
    hold these with a factor of 4 to spare for the rounding of the margins
    and gaps themselves.  A sample whose dist lies within its margin of r_t,
    or whose v lies within its margin of 0, 1 or len_t, takes the exact
    test, as does every sample when a margin is not finite."""
    shift_x, shift_y, big_m, r_num, len_num = box
    half = MODULUS >> 1
    sx = ((shift_x + half) % MODULUS - half) / MODULUS
    k = float((2 * big_m + half) % MODULUS - half)
    r_t, len_t = r_num / MODULUS, len_num / MODULUS
    d = offsets + sx
    dist = np.abs(d - np.rint(d))
    margin_x = _BOX_MARGIN * (np.abs(offsets) + abs(sx) + r_t) + 2.0**-255
    k_off = k * offsets
    v = y_offsets * 2.0**-256 - k_off + shift_y / MODULUS
    v -= np.floor(v)
    margin_y = _BOX_MARGIN * (2.0 + np.abs(k_off)) + abs(k) * 2.0**-257
    gap_y = np.minimum(np.minimum(v, 1.0 - v), np.abs(v - len_t))
    sure = (np.abs(dist - r_t) > margin_x) & (gap_y > margin_y)
    left = int(np.count_nonzero(sure & ~((dist <= r_t) & (v < len_t))))
    unsure = ~sure
    for off, y_off in zip(offsets[unsure].tolist(), y_offsets[unsure].tolist()):
        left += _box_left_exact(off, y_off, *box)
    return left


def box_experiment(
    theta: Angle,
    witness: ResumeWitness,
    j_interval: tuple[float, float] = DEFAULT_J_INTERVAL,
    nu: float = DEFAULT_NU,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> BoxReport:
    """Sample the box: (a) the fraction whose T^-M image leaves it (doubled,
    an estimator of the relative symmetric difference, since T preserves
    measure) and (b) the fraction where ||a(x, M)| - 1/2| <= nu."""
    check_box_args(j_interval, nu, samples)
    j_lo, j_hi = j_interval
    x0 = witness.x
    r = witness.r_n
    big_m = witness.M_n
    r_num = angle_from_float(r).numerator
    len_num = angle_from_float((j_hi - j_lo) % 1.0).numerator
    if len_num == 0:
        len_num = MODULUS  # full circle
    # T^-M sends (x0 + u, j_lo + v) to (x0 + u - M theta, j_lo + v - 2M(x0 + u)
    # + M^2 theta), and (x0, 0) to (x0 + shift_x, shift_y): the image is in
    # the box iff ||u + shift_x|| <= r and v - 2Mu + shift_y mod 1 lies in
    # [0, len), on numerators
    image = skew_shift_n(theta, SkewPoint(x0, ZERO), -big_m)
    shift_x = (image.x.numerator - x0.numerator) % MODULUS
    shift_y = image.y.numerator
    moments = _interval_moments(theta, x0, big_m)  # its work memory freed before the draws
    offsets = (2.0 * counter_units(seed, samples, "box-x") - 1.0) * r
    y_offsets = counter_units(seed, samples, "box-y")
    y_offsets *= float(len_num)
    box = shift_x, shift_y, big_m, r_num, len_num
    left = near = 0  # samples that leave the box, and with ||a| - 1/2| <= nu
    for lo in range(0, samples, SAMPLE_BLOCK):
        block = slice(lo, lo + SAMPLE_BLOCK)
        left += _box_left(offsets[block], y_offsets[block], *box)
        mods = _taylor_moduli(moments, big_m, offsets[block])
        near += int(np.count_nonzero(np.abs(mods - 0.5) <= nu))
    left_fraction = left / samples
    modulus_fraction = near / samples
    tail = _taylor_tail(big_m, offsets)
    return BoxReport(
        x0=x0,
        r=r,
        j_lo=j_lo,
        j_hi=j_hi,
        M_n=big_m,
        nu=nu,
        samples=samples,
        seed=seed,
        symdiff_ratio=2.0 * left_fraction,
        modulus_fraction=modulus_fraction,
        left_fraction=left_fraction,
        taylor_degree=TAYLOR_DEGREE,
        taylor_tail=tail,
    )


@dataclass(frozen=True)
class DensityReport:
    """Coverage of the disk of radius R by partial sums of sum e(k^2 theta + kx)."""

    experiment = "density"

    theta: Angle
    x: Angle
    N: int
    radius: float
    cell: float
    covered_fraction: float
    n_disk_cells: int
    n_visited: int
    first_hits: tuple[tuple[int, int, int], ...]  # (ix, iy, first n)

    def csv_rows(self):
        for ix, iy, n in self.first_hits:
            yield ix, iy, n


def density_probe(
    theta: Angle, x: Angle, n_terms: int, radius: float = DEFAULT_RADIUS, cell: float = DEFAULT_CELL
) -> DensityReport:
    """Mark every cell of the radius-R disk visited by the partial sums
    z_n = sum_{k<n} e(k^2 theta + k x), n = 1..N, recording first-hit times.

    This is the linear-phase form of the sum (exponent k*x); it equals
    a(x/2, 0, n) of the cocycle convention, and the conversion is done
    here by using the numerator of x directly as the linear coefficient,
    avoiding any half-angle snapping.

    Only partial sums that can reach a reported cell are walked:
    _engine.near_partials at reach R + cell/sqrt(2), a cell's farthest
    point, skips a block of s terms whose starts have |z_q| + |z_q+1| >
    2 reach + s + pad, pad bounding their error and the stream's rounding.
    A first hit can differ from the stream's only at a point within a
    start's error of a cell edge.  Memory: the table and one block chunk.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    if not (0 < radius < math.inf and 0 < cell < math.inf):
        raise ValueError("radius and cell must be positive and finite")
    side = 2 * radius / cell + 7  # at least the table's width, 2 * span + 1
    # 10: peak bytes per table cell, by tracemalloc; then one chunk of blocks
    need = 10 * side * side + _engine._blocks_bytes(_engine.NEAR_SIZE, _engine.NEAR_CHUNK)
    _check_fits(need, 1, f"a radius-{radius} disk in cells of {cell}")
    span = int(math.ceil(radius / cell)) + 2
    width = 2 * span + 1
    idx = np.arange(-span, span + 1)
    cx = (idx[:, None] + 0.5) * cell
    cy = (idx[None, :] + 0.5) * cell
    in_disk = (cx * cx + cy * cy) <= radius * radius
    n_disk = int(np.sum(in_disk))
    if n_disk == 0:
        raise ValueError(f"cell {cell} leaves no cell centre in the radius-{radius} disk")
    # cells by flat index ix * width + iy, and one spare slot last for the
    # points off the table; first[c] is cell c's first-hit n (n_terms + 1
    # while unvisited), and open_[c] whether it is still unvisited
    spare = width * width
    first = np.full(spare + 1, n_terms + 1, dtype=np.int64)
    open_ = np.ones(spare + 1, dtype=bool)
    open_[spare] = False
    reach = radius + cell / math.sqrt(2)
    for k0, z in _engine.near_partials(theta.numerator, x.numerator, 0, n_terms, reach):
        sx = np.floor(z.real / cell).astype(np.int64) + span
        sy = np.floor(z.imag / cell).astype(np.int64) + span
        flat = sx * width + sy
        # a negative index reads as a uint64 past the table
        flat[(sx.view(np.uint64) >= width) | (sy.view(np.uint64) >= width)] = spare
        j = np.flatnonzero(open_[flat])
        np.minimum.at(first, flat[j], k0 + 1 + j)
        open_[flat[j]] = False
    del open_  # 1 byte per cell, not held while the hits are listed
    first = first[:spare].reshape(width, width)
    ix, iy = np.nonzero(in_disk & (first <= n_terms))
    hits = tuple(zip((ix - span).tolist(), (iy - span).tolist(), first[ix, iy].tolist()))
    return DensityReport(
        theta=theta,
        x=x,
        N=n_terms,
        radius=radius,
        cell=cell,
        covered_fraction=len(hits) / n_disk,
        n_disk_cells=n_disk,
        n_visited=len(hits),
        first_hits=hits,
    )


@dataclass(frozen=True)
class GrowthReport:
    """Growth statistics of sup_x |a(x,n)| along a schedule of n."""

    experiment = "growth"

    theta: Angle
    schedule: tuple[int, ...]
    x_grid_size: int
    sup_ratio_linear: tuple[float, ...]  # sup_x |a(x,n)| / n
    sup_ratio_sqrt: tuple[float, ...]  # sup_x |a(x,n)| / sqrt(n)
    a0_ratio_sqrt: tuple[float, ...]  # |a(0,n)| / sqrt(n) at schedule points
    a0_peak_ratio: tuple[float, ...]  # max_{n' <= n} |a(0,n')| / sqrt(n')
    bounded_quotients: bool

    def csv_rows(self):
        for i, n in enumerate(self.schedule):
            yield (
                n,
                self.sup_ratio_linear[i],
                self.sup_ratio_sqrt[i],
                self.a0_ratio_sqrt[i],
                self.a0_peak_ratio[i],
            )


def growth_report(
    theta: Angle, n_schedule: list[int], x_grid_size: int = DEFAULT_GRID
) -> GrowthReport:
    """sup over a uniform x-grid of |a(x,n)|/n and |a(x,n)|/sqrt(n), by one
    weyl_sums_over_x call (its error and memory bounds apply), and the
    |a(0,n)|/sqrt(n) series with its running peak, by one walk at x = 0, at
    scheduled n.  y is pinned to 0 throughout since |a| does not depend on it.
    """
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])) or not n_schedule:
        raise ValueError("schedule must be strictly increasing and nonempty")
    if n_schedule[0] < 1:
        raise ValueError("schedule entries must be >= 1")
    if x_grid_size < 1:
        raise ValueError("x_grid_size must be >= 1")
    # 350: peak bytes per grid point, by tracemalloc
    _check_fits(x_grid_size, 350, f"an x-grid of {x_grid_size} points")
    xs = [angle_from_rational(j, x_grid_size) for j in range(x_grid_size)]
    sup_abs = np.max(np.abs(weyl_sums_over_x(theta, xs, n_schedule)), axis=1)
    a0_vals, a0_peaks, peak = [], [], 0.0
    for k0, z in _engine.qsum_partials(theta.numerator, 0, 0, n_schedule[-1]):
        at = [n - k0 - 1 for n in n_schedule if k0 < n <= k0 + len(z)]
        ratios = np.abs(z) / np.sqrt(np.arange(k0 + 1, k0 + len(z) + 1, dtype=np.float64))
        run = np.maximum.accumulate(ratios)
        a0_vals.extend(float(ratios[i]) for i in at)
        a0_peaks.extend(max(peak, float(run[i])) for i in at)
        peak = max(peak, float(run[-1]))
    probe = cf_expand(theta, 40).quotients if theta.numerator else ()
    bounded = len(probe) == 40 and max(probe) <= 1000
    return GrowthReport(
        theta=theta,
        schedule=tuple(n_schedule),
        x_grid_size=x_grid_size,
        sup_ratio_linear=tuple(float(s) / n for s, n in zip(sup_abs, n_schedule)),
        sup_ratio_sqrt=tuple(
            float(s) / math.sqrt(n) for s, n in zip(sup_abs, n_schedule)
        ),
        a0_ratio_sqrt=tuple(a0_vals),
        a0_peak_ratio=tuple(a0_peaks),
        bounded_quotients=bounded,
    )
