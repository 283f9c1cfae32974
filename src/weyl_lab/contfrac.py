"""Continued fractions, convergents, and construction of the target
arithmetic class: angles with summable reciprocal partial quotients and
denominators q satisfying q^(3+eps) * ||q*theta|| -> 0.

Expansion runs the Gauss map a = floor(1/t), t <- {1/t} as exact integer
Euclidean division on the grid numerator.  Since every Angle is a
rational with denominator 2**256, the expansion is reliable only while
the convergent denominators stay far below 2**128; quotients produced
past that point are grid noise and are folded away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactangle import (
    MODULUS,
    Angle,
    angle_from_rational,
    dist_to_int_exact,
    scale_mod1,
)

# Convergents with q beyond this bound cannot be distinguished from the
# grid rational itself; expansion stops ("grid resolution exhausted").
Q_NOISE_BOUND = 1 << 120

# Hard ceiling for constructed denominators.
Q_CONSTRUCT_BOUND = 1 << 100

# ||q*theta|| below q * 2**-250 is indistinguishable from snapping noise.
_GRID_FLOOR_SHIFT = 250


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_1, ..., a_L, all >= 1."""

    quotients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.quotients) < 1:
            raise ValueError("need at least one quotient")
        if any(a < 1 for a in self.quotients):
            raise ValueError("all partial quotients must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        return cls(tuple(int(tok) for tok in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.quotients)


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int


@dataclass(frozen=True)
class FClassCert:
    """Finite-depth witness of membership in the target class.

    witnesses holds (l, q_l^(3+eps) * ||q_l theta||) for the usable levels;
    full membership is an asymptotic statement and is certified here only
    by the partial sum being small and the witnesses decreasing.
    """

    eps: float
    depth: int
    partial_sum: float
    witnesses: tuple[tuple[int, float], ...]
    min_witness: float
    finite_expansion: bool = False


def cf_expand(theta: Angle, max_depth: int) -> ContinuedFraction:
    """Partial quotients of theta by exact Euclid on the grid numerator.

    Stops at max_depth, at a zero remainder (dyadic rational), or when a
    convergent denominator passes the noise bound.  In the last case the
    noise quotient is dropped and a trailing [b, 1] is folded to [b+1]:
    snapping a finite p/q to the grid perturbs its last Gauss iterate off
    an exact integer, producing either [..., a_L, huge] or the equivalent
    [..., a_L - 1, 1, huge], and both fold back to the canonical
    [..., a_L].  Two quotients of lookahead past max_depth make the fold
    reliable at the truncation boundary.
    """
    if theta.numerator == 0:
        raise ValueError("cannot expand theta = 0")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    quotients: list[int] = []
    num, den = MODULUS, theta.numerator  # expanding den/num < 1
    q_prev, q_cur = 0, 1
    while den != 0 and len(quotients) < max_depth + 2:
        a, rem = divmod(num, den)
        q_next = a * q_cur + q_prev
        if q_next > Q_NOISE_BOUND and quotients:
            if len(quotients) >= 2 and quotients[-1] == 1:
                quotients.pop()
                quotients[-1] += 1
            break
        quotients.append(a)
        q_prev, q_cur = q_cur, q_next
        num, den = den, rem
    return ContinuedFraction(tuple(quotients[:max_depth]))


def convergents(cf: ContinuedFraction) -> list[Convergent]:
    """Convergent pairs from p_l = a_l p_{l-1} + p_{l-2}, exact integers."""
    out: list[Convergent] = []
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    for l, a in enumerate(cf.quotients, start=1):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Convergent(p_cur, q_cur, l))
    return out


def angle_from_cf(cf: ContinuedFraction) -> Angle:
    """Value p_L/q_L of the finite continued fraction, snapped to the grid."""
    last = convergents(cf)[-1]
    return angle_from_rational(last.p, last.q)


def _quotient_power(q: int, exponent: float) -> int:
    # ceil(q**exponent); exact when the exponent is integral, which covers
    # the reference construction (eps = 0.5 gives exponent 3).
    if float(exponent).is_integer():
        return q ** int(exponent)
    return math.ceil(math.exp(exponent * math.log(q)))


def construct_f_member(
    eps: float, levels: int, seed_quotients: tuple[int, ...] = (2,)
) -> tuple[ContinuedFraction, FClassCert]:
    """Extend seed quotients by a_{l+1} = ceil(q_l^(2+2*eps)).

    The exponent 2+2*eps (rather than 2+eps) makes the witness
    q^(3+eps) * ||q*theta|| decay like q^-eps, so a finite certificate
    can actually exhibit the decrease.  Raises ValueError when a
    denominator would pass Q_CONSTRUCT_BOUND before `levels` quotients.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if levels < 2:
        raise ValueError("levels must be >= 2")
    quotients = list(seed_quotients)
    if len(quotients) > levels:
        raise ValueError("seed longer than requested level count")
    cv = convergents(ContinuedFraction(tuple(quotients)))
    q_cur = cv[-1].q
    q_prev = cv[-2].q if len(cv) >= 2 else 1
    exponent = 2.0 + 2.0 * eps
    while len(quotients) < levels:
        # q_next >= a_next >= q_cur**exponent: stop before forming a power
        # past the bound, whose bit length leaves a bit of margin for the float
        if exponent * math.log2(q_cur) > Q_CONSTRUCT_BOUND.bit_length():
            break
        a_next = _quotient_power(q_cur, exponent)
        q_next = a_next * q_cur + q_prev
        if q_next > Q_CONSTRUCT_BOUND:
            break
        quotients.append(a_next)
        q_prev, q_cur = q_cur, q_next
    if len(quotients) < levels:
        raise ValueError(
            f"construction truncated at depth {len(quotients)}: next q would exceed 2**100"
        )
    cf = ContinuedFraction(tuple(quotients))
    cert = f_witness(cf, eps, angle_from_cf(cf))
    return cf, cert


def f_witness(cf: ContinuedFraction, eps: float, theta: Angle) -> FClassCert:
    """Certificate with partial sum of 1/a_l and witnesses q_l^(3+eps)||q_l theta||.

    Levels whose ||q_l theta|| has collapsed to snapping noise (the final
    level of a finite expansion) carry no information and are excluded.
    """
    depth = len(cf.quotients)
    # one quotient past the depth tells whether the expansion ends within it
    expanded = cf_expand(theta, depth + 1).quotients
    if expanded[:depth] != cf.quotients:
        raise ValueError(
            "continued fraction inconsistent with theta: "
            f"given {cf.quotients}, expansion gives {expanded[:depth]}"
        )
    partial_sum = float(sum(Fraction(1, a) for a in cf.quotients))
    witnesses: list[tuple[int, float]] = []
    for conv in convergents(cf):
        dist = dist_to_int_exact(scale_mod1(theta, conv.q))
        if dist * (1 << _GRID_FLOOR_SHIFT) < conv.q:
            continue  # at grid floor: excluded
        try:
            power = float(conv.q) ** (3.0 + eps)
        except OverflowError:
            raise ValueError(f"eps = {eps}: q^(3+eps) overflows a float at q = {conv.q}") from None
        witnesses.append((conv.index, power * float(dist)))
    min_witness = min((w for _, w in witnesses), default=float("inf"))
    return FClassCert(
        eps=eps,
        depth=depth,
        partial_sum=partial_sum,
        witnesses=tuple(witnesses),
        min_witness=min_witness,
        finite_expansion=len(expanded) <= depth,
    )
