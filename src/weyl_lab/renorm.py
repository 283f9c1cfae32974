"""Renormalization of the half-quadratic sum under the Gauss map.

One step sends (theta, x, k) to ({1/theta}, x', [k*theta]) with
x' = {-x/theta + [1/theta]/2} and rescales by sqrt(theta); the residual

    | sqrt(theta) * psi(theta, x, k) - psi({1/theta}, x', [k*theta]) |

is bounded by an absolute constant (the half turn in x' comes from
inverting the quadratic phase; see renorm_step).  Nothing here assumes a
value for that constant: every residual family is swept once with seeded
inputs and the observed maximum is stored in the calibration file; tests
assert against the calibrated figure, never an invented one.

Gauss images of grid rationals are computed by exact integer division on
numerators and snapped back to the grid; chains on grid rationals
terminate in finitely many steps and are flagged when truncated early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._rng import counter_angles
from .exactangle import HALF, MODULUS, Angle, angle_from_rational, dist_to_int, wrap_add
from .reporting import FLATTEN
from .weylsum import dirichlet_b_over_x, psi


@dataclass(frozen=True)
class RenormStep:
    """One Gauss renormalization step applied to (theta, x, k)."""

    theta_next: Angle
    x_next: Angle
    k_next: int
    sigma_factor: float  # sqrt(theta)


@dataclass(frozen=True)
class RenormChain:
    """Iterated steps with per-level contraction and residual bookkeeping.

    sigma[l] = prod_{j<l} sqrt(theta_j), k_levels[l] = [k_{l-1} theta_{l-1}];
    residuals[l] = |sigma[l]*psi(theta,x,k) - psi(theta_l, x_l, k_l)|.
    """

    experiment = "renorm_chain"

    depth: int
    thetas: tuple[Angle, ...]
    xs: tuple[Angle, ...]
    k_levels: tuple[int, ...]
    sigma: float
    sigmas: tuple[float, ...]
    residuals: tuple[float, ...]
    truncated: bool = False

    def csv_rows(self):
        for l in range(self.depth + 1):
            yield (
                l,
                self.thetas[l].to_float(),
                self.k_levels[l],
                self.sigmas[l],
                self.residuals[l],
            )


def gauss_map(theta: Angle) -> Angle:
    """S(theta) = {1/theta} on grid numerators, snapped back to the grid."""
    if theta.numerator == 0:
        raise ValueError("Gauss map undefined at theta = 0")
    return angle_from_rational(MODULUS % theta.numerator, theta.numerator)


def x_renorm(theta: Angle, x: Angle) -> Angle:
    """{-x/theta} computed as 1 - {x/theta} on numerators; 0 maps to 0."""
    if theta.numerator == 0:
        raise ValueError("undefined at theta = 0")
    rem = x.numerator % theta.numerator
    if rem == 0:
        return Angle(0)
    return angle_from_rational(theta.numerator - rem, theta.numerator)


def k_renorm(theta: Angle, k: int) -> int:
    """[k * theta], exact integer part on the grid."""
    return (k * theta.numerator) >> 256


def _x_step(theta: Angle, x: Angle) -> Angle:
    # {-x/theta + [1/theta]/2}, the one home of the half-turn rule (see renorm_step)
    x_next = x_renorm(theta, x)
    if (MODULUS // theta.numerator) % 2 == 1:
        x_next = wrap_add(x_next, HALF)
    return x_next


def renorm_step(theta: Angle, x: Angle, k: int) -> RenormStep:
    """One application of the rescaling map to (theta, x, k).

    The renormalized linear slot is {-x/theta + [1/theta]/2}: inverting
    the quadratic phase turns each term by (-1)^(m*[1/theta]), so an odd
    integer part of 1/theta contributes a half turn on top of {-x/theta}.
    Without it the residual of the rescaling identity is not O(1): it
    grows like the square root of the sum length.
    """
    if theta.numerator == 0:
        raise ValueError("renorm_step requires 0 < theta < 1")
    return RenormStep(
        theta_next=gauss_map(theta),
        x_next=_x_step(theta, x),
        k_next=k_renorm(theta, k),
        sigma_factor=math.sqrt(theta.to_float()),
    )


def fe_residual(theta: Angle, x: Angle, k: int) -> float:
    """Residual of the rescaling identity at (theta, x, k).

    |sqrt(theta)*psi(theta,x,k) - psi(S theta, x', [k theta])| with x' the
    parity-corrected slot from renorm_step; both sides by direct
    summation.  The expected size is O(1) uniformly.
    """
    if theta.numerator == 0:
        raise ValueError("requires 0 < theta < 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    step = renorm_step(theta, x, k)
    left = math.sqrt(theta.to_float()) * psi(theta, x, k)
    right = psi(step.theta_next, step.x_next, step.k_next)
    return abs(left - right)


def renorm_chain(theta: Angle, x: Angle, k: int, m: int) -> RenormChain:
    """Iterate renorm_step m times, recording per-level residuals.

    On grid rationals the Gauss orbit hits 0 in finitely many steps; a
    request past that point returns the truncated chain flagged rather
    than failing, since every experiment uses finite depth anyway.
    """
    if m < 0:
        raise ValueError("depth must be >= 0")
    base = psi(theta, x, k)
    thetas = [theta]
    xs = [x]
    ks = [k]
    sigmas = [1.0]
    residuals = [0.0]
    truncated = False
    for _ in range(m):
        cur = thetas[-1]
        if cur.numerator == 0:
            truncated = True
            break
        step = renorm_step(cur, xs[-1], ks[-1])
        thetas.append(step.theta_next)
        xs.append(step.x_next)
        ks.append(step.k_next)
        sigmas.append(sigmas[-1] * step.sigma_factor)
        residuals.append(abs(sigmas[-1] * base - psi(step.theta_next, step.x_next, step.k_next)))
    return RenormChain(
        depth=len(thetas) - 1,
        thetas=tuple(thetas),
        xs=tuple(xs),
        k_levels=tuple(ks),
        sigma=sigmas[-1],
        sigmas=tuple(sigmas),
        residuals=tuple(residuals),
        truncated=truncated,
    )


def _gauss_chain(theta: Angle, m: int) -> list[Angle]:
    """theta_0 .. theta_{m-1} of the Gauss orbit of theta, all nonzero."""
    thetas = []
    for _ in range(m):
        if theta.numerator == 0:
            raise ValueError(f"Gauss chain terminates before depth {m} (rational theta)")
        thetas.append(theta)
        theta = gauss_map(theta)
    return thetas


@dataclass(frozen=True)
class KmInversion:
    k: int
    achieved: int


def invert_km(theta: Angle, m: int, target: int) -> KmInversion:
    """Smallest k whose m-fold renormalized index reaches target.

    k(m) is nondecreasing in k(0), so a doubling search for an upper
    bound followed by bisection finds the minimum.
    """
    if target < 0:
        raise ValueError("target must be >= 0")
    if m == 0 or target == 0:
        return KmInversion(k=target, achieved=target)

    thetas = _gauss_chain(theta, m)

    def km(k0: int) -> int:
        k = k0
        for t in thetas:
            k = k_renorm(t, k)
        return k
    hi = max(target, 1)
    while km(hi) < target:
        hi *= 2
        if hi > 1 << 200:
            raise ValueError("no k reaches the target at this depth")
    lo = 0  # km(0) = 0 <= target boundary
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if km(mid) >= target:
            hi = mid
        else:
            lo = mid
    return KmInversion(k=hi, achieved=km(hi))


@dataclass(frozen=True)
class MeasureEstimate:
    estimate: float
    std_error: float
    samples: int
    seed: int
    # experiment tag and parameters, written at the top level of the report
    extras: dict = field(default_factory=dict, metadata=FLATTEN)


def _level_set_fraction(
    theta: Angle,
    m: int,
    samples: int,
    seed: int,
    label: str,
    hits: Callable[[list[Angle]], Sequence[bool]],
) -> tuple[float, float]:
    # fraction of seeded x whose m-fold renormalized slot U^(m) x is a hit,
    # and its SE; hits maps the list of all the slots to one flag per slot
    if samples < 1:
        raise ValueError("samples must be >= 1")
    xs = counter_angles(seed, samples, label)
    for t in _gauss_chain(theta, m):
        xs = [_x_step(t, x) for x in xs]
    p = int(np.count_nonzero(hits(xs))) / samples
    return p, math.sqrt(max(p * (1 - p), 1e-12) / samples)


def u_measure_lower(
    theta: Angle, m: int, eta: float, samples: int, seed: int
) -> MeasureEstimate:
    """Monte Carlo estimate of lambda{x : ||U^(m) x|| < eta} / eta.

    For m = 0 the exact value is 2; the renormalized level sets stay
    bounded below by a positive constant times eta.
    """
    if not 0 < eta < 0.5:
        raise ValueError("eta must be in (0, 1/2)")
    p, se = _level_set_fraction(
        theta, m, samples, seed, "umeasure",
        lambda uxs: [dist_to_int(ux) < eta for ux in uxs],
    )
    return MeasureEstimate(
        estimate=p / eta,
        std_error=se / eta,
        samples=samples,
        seed=seed,
        extras={"experiment": "u_measure_lower", "eta": eta, "depth": m, "raw_fraction": p},
    )


def b_level_measure(
    theta: Angle, m: int, c0: float, samples: int, seed: int
) -> MeasureEstimate:
    """Monte Carlo estimate of lambda{x : |b(U^(m) x, [2 pi C0]+1)| >= C0}."""
    if c0 <= 0:
        raise ValueError("C0 must be positive")
    length = int(2 * math.pi * c0) + 1
    p, se = _level_set_fraction(
        theta, m, samples, seed, "blevel",
        lambda uxs: np.abs(dirichlet_b_over_x(uxs, length)) >= c0,
    )
    return MeasureEstimate(
        estimate=p,
        std_error=se,
        samples=samples,
        seed=seed,
        extras={"experiment": "b_level_measure", "c0": c0, "depth": m, "b_length": length},
    )
