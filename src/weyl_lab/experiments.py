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
from ._rng import counter_angle, counter_units
from .contfrac import ContinuedFraction, cf_expand, convergents, f_witness
from .exactangle import (
    MODULUS,
    Angle,
    angle_from_float,
    angle_from_fraction,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
    wrap_add,
)
from .reporting import BIG_INT
from .weylsum import dirichlet_b_closed, dirichlet_b_moduli, weyl_sum, weyl_sum_over_x

DEFAULT_EPS = 0.5
DEFAULT_DELTA = 0.2
DEFAULT_U_MIN = 5.0
DEFAULT_NU = 0.1
DEFAULT_SAMPLES = 100_000
INTERVAL_GRID = 33  # x-grid for the interval check around the witness
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

    def q_values(self) -> list[int]:
        return [q for _, q, _ in self.levels]

    def csv_rows(self):
        for l, q, w in self.levels:
            yield l, q, w


def select_qn(
    cf: ContinuedFraction,
    theta: Angle,
    eps: float = DEFAULT_EPS,
    threshold: float = 0.5,
) -> QnSchedule:
    """Retain convergent denominators whose witness q^(3+eps)||q theta||
    is below the threshold and decreasing.

    The level q = 1 is always skipped (its witness carries no information)
    and levels whose ||q theta|| sits at the snapping floor are already
    excluded by the certificate.
    """
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


@dataclass(frozen=True)
class TailMeasure:
    experiment = "tail_measure"

    q: int
    eps: float
    threshold: float
    estimate: float
    bound: float
    std_error: float
    samples: int
    seed: int


def tail_measure(
    theta: Angle, q: int, eps: float, samples: int, seed: int
) -> TailMeasure:
    """Monte Carlo lambda{x : |a(x,q)| >= q^(1/2+eps/10)} with the
    Chebyshev comparison value q^(-eps/5) from the mean-square identity."""
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    thr = q ** (0.5 + eps / 10.0)
    xs = [counter_angle(seed, i, "tail") for i in range(samples)]
    vals = np.abs(weyl_sum_over_x(theta, xs, q))
    p = float(np.mean(vals >= thr))
    se = math.sqrt(max(p * (1 - p), 1e-12) / samples)
    return TailMeasure(
        q=q,
        eps=eps,
        threshold=thr,
        estimate=p,
        bound=q ** (-eps / 5.0),
        std_error=se,
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class BDensityGap:
    experiment = "b_density_gap"

    q: int
    eps: float
    alpha: float  # ||2qx||
    m_max: int
    largest_gap: float
    target_gap: float
    degenerate: bool


def b_density_gap(theta: Angle, q: int, x: Angle, eps: float = DEFAULT_EPS) -> BDensityGap:
    """Largest gap of {min(|b(2qx,m)|, 1) : 0 <= m <= q^(1/2+eps/4)} in [0,1].

    Values above 1 are clipped: the modulation only needs the value set to
    be dense in [0,1].  The comparison gap is 1/(q^(1/2+eps/8) ||2qx||).
    """
    alpha = scale_mod1(x, 2 * q)
    na = dist_to_int(alpha)
    if na == 0.0:
        raise ValueError("||2qx|| must be positive")
    m_max = math.ceil(q ** (0.5 + eps / 4.0))
    vals = dirichlet_b_moduli(alpha, np.arange(m_max + 1))
    vals = np.minimum(vals, 1.0)
    vals.sort()
    largest = float(np.max(np.diff(vals))) if len(vals) > 1 else 1.0
    degenerate = alpha.numerator == (MODULUS >> 1)
    target = 1.0 / (q ** (0.5 + eps / 8.0) * na)
    return BDensityGap(
        q=q,
        eps=eps,
        alpha=na,
        m_max=m_max,
        largest_gap=largest,
        target_gap=target,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class FindMnResult:
    m: int
    product_value: float
    status: str  # "ok" | "warning"
    a_modulus: float
    b_modulus: float
    target: float


def _find_mn_from_modulus(
    a_mod: float, alpha: Angle, q: int, eps: float, target: float
) -> FindMnResult:
    m_max = math.ceil(q ** (0.5 + eps / 4.0))
    bvals = dirichlet_b_moduli(alpha, np.arange(m_max + 1))
    dist = np.abs(a_mod * bvals - target)
    m_best = int(np.argmin(dist))  # argmin takes the first, i.e. smallest m
    best = float(dist[m_best])
    return FindMnResult(
        m=m_best,
        product_value=float(a_mod * bvals[m_best]),
        status="ok" if best <= 0.1 else "warning",
        a_modulus=a_mod,
        b_modulus=float(bvals[m_best]),
        target=target,
    )


def find_mn(
    theta: Angle, q: int, x: Angle, eps: float = DEFAULT_EPS, target: float = 0.5
) -> FindMnResult:
    """m <= q^(1/2+eps/4) minimizing | |a(x,q) b(2qx,m)| - target |,
    ties broken toward the smallest m; status 'warning' when the best
    value is farther than 0.1 from the target."""
    a_mod = abs(weyl_sum(theta, x, Angle(0), q))
    return _find_mn_from_modulus(a_mod, scale_mod1(x, 2 * q), q, eps, target)


def approx_ratio(theta: Angle, l: int, m: int, x: Angle) -> float:
    """Empirical constant |a(x,ml) - a(x,l) b(2lx,m)| / (|a(x,l)| m^3 l ||l theta||).

    The denominator is the product-form error budget; a vanishing
    denominator marks a degenerate instance and raises so sweeps can
    exclude it from statistics.
    """
    if l < 1 or m < 1:
        raise ValueError("l and m must be >= 1")
    a_l = weyl_sum(theta, x, Angle(0), l)
    nl = dist_to_int(scale_mod1(theta, l))
    den = abs(a_l) * (m ** 3) * l * nl
    if den == 0.0:
        raise ValueError("degenerate instance: zero denominator")
    a_ml = weyl_sum(theta, x, Angle(0), m * l)
    b_m = dirichlet_b_closed(scale_mod1(x, 2 * l), m)
    return abs(a_ml - a_l * b_m) / den


def derivative_bound(q: int, delta: float, eps: float) -> float:
    return (5.0 * math.pi / delta) * q ** (2.0 + 0.5 + eps / 4.0)


def derivative_check(
    theta: Angle,
    q: int,
    m: int,
    x: Angle,
    delta: float = DEFAULT_DELTA,
    eps: float = DEFAULT_EPS,
) -> float:
    """Central finite difference of x -> |a(x,q) b(2qx,m)| against the
    analytic budget (5 pi / delta) q^(2+1/2+eps/4); returns the ratio."""
    na = dist_to_int(scale_mod1(x, 2 * q))
    if not (delta / 4.0 <= na <= 2.0 * delta):
        raise ValueError(f"||2qx|| = {na} outside [{delta/4}, {2*delta}]")
    if m > math.ceil(q ** (0.5 + eps / 4.0)):
        raise ValueError("m exceeds q^(1/2+eps/4)")
    if m == 0:
        return 0.0
    h = 1e-3 * q ** -2.5
    h_angle = angle_from_float(h)

    def f(xa: Angle) -> float:
        return abs(weyl_sum(theta, xa, Angle(0), q)) * abs(
            dirichlet_b_closed(scale_mod1(xa, 2 * q), m)
        )

    hi = f(wrap_add(x, h_angle))
    lo = f(wrap_add(x, Angle(-h_angle.numerator % MODULUS)))
    fd = abs(hi - lo) / (2.0 * h)
    return fd / derivative_bound(q, delta, eps)


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


def interval_radius(q: int, eps: float) -> float:
    return q ** -(2.0 + 0.5 + eps / 2.0)


def holonomy_bound(q: int, eps: float) -> float:
    return q ** -(2.0 + 0.5 + 0.75 * eps)


def resume_witness(
    theta: Angle,
    cf: ContinuedFraction,
    eps: float = DEFAULT_EPS,
    delta: float = DEFAULT_DELTA,
    x_candidates: int = 256,
    seed: int = 7,
    level: int | None = None,
    u_min: float = DEFAULT_U_MIN,
    product_tol: float = PRODUCT_TOL,
    threshold: float = 0.5,
) -> ResumeWitness:
    """Scan seeded x for a witness at one schedule level (default: deepest).

    Gates, in order: delta/2 <= ||2qx|| <= delta, then |a(x,q)| >= u_min,
    then a modulation index m with | |a(x,q) b(2qx,m)| - 1/2 | within
    product_tol.  Among candidates through all gates the one with the
    smallest m (then smallest scan index) is measured, keeping M = m*q and
    the cost of the interval check as low as the scan allows:
    (i) ||M theta|| exactly, (ii) ||a(x~, M)| - 1/2| on a 33-point grid
    across [x - r, x + r] by direct summation, (iii) ||M^2 theta + 2Mx||
    exactly.  eps_n is the maximum of the (ii) deviations and the (iii)
    value: the smallest epsilon for which this level satisfies the
    construction, measured rather than prescribed.
    """
    schedule = select_qn(cf, theta, eps, threshold=threshold)
    if level is None:
        lvl, q, _ = schedule.levels[-1]
    else:
        match = [entry for entry in schedule.levels if entry[0] == level]
        if not match:
            raise UnusableLevelError(f"level {level} not in schedule")
        lvl, q, _ = match[0]

    lo, hi = delta / 2.0, delta
    window: list[tuple[int, Angle]] = []
    for i in range(x_candidates):
        x = counter_angle(seed, i, "resume-x")
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
        if a_mod < u_min:
            continue
        n_umin += 1
        fm = _find_mn_from_modulus(
            float(a_mod), scale_mod1(x, 2 * q), q, eps, target=0.5
        )
        if fm.m < 1 or abs(fm.product_value - 0.5) > product_tol:
            continue
        passers.append((fm.m, idx, x, fm))
    if not passers:
        raise UnusableLevelError(
            f"level unusable: {len(window)} candidates in the ||2qx|| window, "
            f"{n_umin} with |a| >= {u_min}, none with product within "
            f"{product_tol} of 1/2"
        )
    _, idx, x, fm = min(passers, key=lambda t: (t[0], t[1]))
    return _measure_witness(
        theta, lvl, q, x, delta, eps, fm, seed=seed, candidate_index=idx
    )


def _measure_witness(
    theta: Angle,
    lvl: int,
    q: int,
    x: Angle,
    delta: float,
    eps: float,
    fm: FindMnResult,
    seed: int,
    candidate_index: int,
) -> ResumeWitness:
    m_n = fm.m
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
        devs.append(abs(abs(weyl_sum(theta, x_tilde, Angle(0), big_m)) - 0.5))
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
        candidate_index=candidate_index,
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


def _phase_moments(theta: Angle, x: Angle, n: int, pmax: int) -> np.ndarray:
    return _engine.qsum_moments(theta.numerator, 2 * x.numerator, 0, n, pmax)


def modulus_on_interval(
    theta: Angle, x0: Angle, big_m: int, offsets: np.ndarray, pmax: int = 4
) -> tuple[np.ndarray, float]:
    """|a(x0+u, M)| for many offsets |u| <= r via one pass of moments.

    a(x0+u, M) = sum_p S_p (4 pi i M u)^p / p! with S_p the (k/M)^p-weighted
    sums; the truncation tail is below M * (4 pi M max|u|)^(p+1)/(p+1)!,
    reported so callers can check it is negligible.
    """
    if big_m == 0:
        return np.zeros(len(offsets)), 0.0
    moments = _phase_moments(theta, x0, big_m, pmax)
    w = 4j * math.pi * big_m * offsets
    acc = np.full(len(offsets), moments[0], dtype=np.complex128)
    term = np.ones(len(offsets), dtype=np.complex128)
    for p in range(1, pmax + 1):
        term = term * w / p
        acc += moments[p] * term
    u_max = float(np.max(np.abs(offsets))) if len(offsets) else 0.0
    tail = (
        big_m
        * (4.0 * math.pi * big_m * u_max) ** (pmax + 1)
        / math.factorial(pmax + 1)
    )
    return np.abs(acc), tail


def box_experiment(
    theta: Angle,
    witness: ResumeWitness,
    j_interval: tuple[float, float] = (0.25, 0.75),
    nu: float = DEFAULT_NU,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
) -> BoxReport:
    """Sample the box: (a) the fraction whose T^-M image leaves it (doubled,
    an estimator of the relative symmetric difference, since T preserves
    measure) and (b) the fraction where ||a(x, M)| - 1/2| <= nu."""
    j_lo, j_hi = j_interval
    if not 0.0 < j_hi - j_lo <= 1.0 or samples < 1:
        raise ValueError("need a y-interval with 0 < length <= 1 and samples >= 1")
    x0 = witness.x
    r = witness.r_n
    big_m = witness.M_n
    r_num = angle_from_float(r).numerator
    len_num = angle_from_float((j_hi - j_lo) % 1.0).numerator
    if len_num == 0:
        len_num = MODULUS  # full circle
    # T^-M sends (x0 + u, j_lo + v) to (x0 + u - M theta, j_lo + v - 2M(x0 + u)
    # + M^2 theta): the image is in the box iff ||u - M theta|| <= r and
    # v - 2Mu + (M^2 theta - 2M x0) mod 1 lies in [0, len), on numerators
    shift_x = scale_mod1(theta, -big_m).numerator
    shift_y = (scale_mod1(theta, big_m * big_m).numerator - 2 * big_m * x0.numerator) % MODULUS
    offsets = (2.0 * counter_units(seed, samples, "box-x") - 1.0) * r
    y_offsets = counter_units(seed, samples, "box-y") * float(len_num)
    left = 0
    for off, y_off in zip(offsets.tolist(), y_offsets.tolist()):
        u = angle_from_float(off).numerator
        dx = (u + shift_x) % MODULUS
        in_x = min(dx, MODULUS - dx) <= r_num
        in_y = (int(y_off) - 2 * big_m * u + shift_y) % MODULUS < len_num
        if not (in_x and in_y):
            left += 1
    left_fraction = left / samples
    mods, tail = modulus_on_interval(theta, x0, big_m, offsets)
    modulus_fraction = float(np.mean(np.abs(mods - 0.5) <= nu))
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
        taylor_degree=4,
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


def density_probe(theta: Angle, x: Angle, n_terms: int, radius: float, cell: float) -> DensityReport:
    """Mark every cell of the radius-R disk visited by the partial sums
    z_n = sum_{k<n} e(k^2 theta + k x), n = 1..N, recording first-hit times.

    This is the linear-phase form of the sum (exponent k*x); it equals
    a(x/2, 0, n) of the cocycle convention, and the conversion is done
    here by using the numerator of x directly as the linear coefficient,
    avoiding any half-angle snapping.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    if radius <= 0 or cell <= 0:
        raise ValueError("radius and cell must be positive")
    span = int(math.ceil(radius / cell)) + 2
    width = 2 * span + 1
    idx = np.arange(-span, span + 1)
    cx = (idx[:, None] + 0.5) * cell
    cy = (idx[None, :] + 0.5) * cell
    in_disk = (cx * cx + cy * cy) <= radius * radius
    n_disk = int(np.sum(in_disk))
    first_hit: dict[tuple[int, int], int] = {}
    for k0, z in _engine.qsum_partials(theta.numerator, x.numerator, 0, n_terms):
        sx = np.floor(z.real / cell).astype(np.int64) + span
        sy = np.floor(z.imag / cell).astype(np.int64) + span
        ok = (sx >= 0) & (sx < width) & (sy >= 0) & (sy < width)
        ok[ok] = in_disk[sx[ok], sy[ok]]
        if not np.any(ok):
            continue
        cells = sx[ok] * width + sy[ok]
        ns = k0 + 1 + np.nonzero(ok)[0]
        uniq, first_idx = np.unique(cells, return_index=True)
        for cell_id, pos in zip(uniq.tolist(), first_idx.tolist()):
            key = (cell_id // width - span, cell_id % width - span)
            if key not in first_hit:
                first_hit[key] = int(ns[pos])
    hits = tuple(sorted((ix, iy, n) for (ix, iy), n in first_hit.items()))
    return DensityReport(
        theta=theta,
        x=x,
        N=n_terms,
        radius=radius,
        cell=cell,
        covered_fraction=len(first_hit) / n_disk,
        n_disk_cells=n_disk,
        n_visited=len(first_hit),
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
    theta: Angle, n_schedule: list[int], x_grid_size: int = 512
) -> GrowthReport:
    """sup over a uniform x-grid of |a(x,n)|/n and |a(x,n)|/sqrt(n), and
    the |a(0,n)|/sqrt(n) series with its running peak, at scheduled n.

    y is pinned to 0 throughout since |a| does not depend on it.
    """
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])) or not n_schedule:
        raise ValueError("schedule must be strictly increasing and nonempty")
    if n_schedule[0] < 1:
        raise ValueError("schedule entries must be >= 1")
    if x_grid_size < 1:
        raise ValueError("x_grid_size must be >= 1")
    sup_abs = np.zeros(len(n_schedule))
    a0_vals: list[float] = []
    a0_peaks: list[float] = []
    peak = 0.0
    for j in range(x_grid_size):
        x = angle_from_rational(j, x_grid_size)
        vals: list[float] = []
        for k0, z in _engine.qsum_partials(theta.numerator, 2 * x.numerator, 0, n_schedule[-1]):
            at = [n - k0 - 1 for n in n_schedule if k0 < n <= k0 + len(z)]
            vals.extend(float(abs(z[i])) for i in at)
            if j == 0:
                # x = 0 also gives |a(0,n)|/sqrt(n) with its running peak
                step_ns = np.arange(k0 + 1, k0 + len(z) + 1, dtype=np.float64)
                ratios = np.abs(z) / np.sqrt(step_ns)
                run = np.maximum.accumulate(ratios)
                a0_vals.extend(float(ratios[i]) for i in at)
                a0_peaks.extend(max(peak, float(run[i])) for i in at)
                peak = max(peak, float(run[-1]))
        sup_abs = np.maximum(sup_abs, vals)
    if theta.numerator == 0:
        bounded = False
    else:
        probe = cf_expand(theta, 40)
        bounded = len(probe.quotients) == 40 and max(probe.quotients) <= 1000
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
