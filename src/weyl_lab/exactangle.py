"""Exact arithmetic on the circle R/Z at fixed 2**-256 resolution.

Every angle (theta, x, y, and all quadratic phases k^2*theta + 2kx + y)
is a point on the dyadic grid n / 2**256 with n a 256-bit unsigned
integer.  Addition and integer scaling are closed and exact on the grid,
so phase recurrences can run to k ~ 10**9 with zero drift; rounding only
happens once, at the final conversion to a double before cos/sin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

FRAC_BITS = 256
MODULUS = 1 << FRAC_BITS
_MASK = MODULUS - 1

# Hex serialization is fixed-width: 256 bits = 64 hex digits.
_HEX_DIGITS = FRAC_BITS // 4


@dataclass(frozen=True)
class Angle:
    """A point on R/Z, stored as numerator / 2**256 in turns."""

    numerator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator < MODULUS:
            raise ValueError("Angle numerator out of range [0, 2**256)")

    def to_float(self) -> float:
        """Nearest double in [0, 1)."""
        return self.numerator / MODULUS

    def to_fraction(self) -> Fraction:
        return Fraction(self.numerator, MODULUS)

    def to_hex(self) -> str:
        return format(self.numerator, "0{}x".format(_HEX_DIGITS))

    @classmethod
    def from_hex(cls, text: str) -> "Angle":
        if len(text) != _HEX_DIGITS:
            raise ValueError("Angle hex string must have %d digits" % _HEX_DIGITS)
        return cls(int(text, 16))

    def __repr__(self) -> str:
        return "Angle({:.12g})".format(self.to_float())


ZERO = Angle(0)
HALF = Angle(1 << (FRAC_BITS - 1))


def angle_from_rational(p: int, q: int) -> Angle:
    """Nearest grid point to (p mod q)/q; ties round toward zero."""
    if q <= 0:
        raise ValueError("denominator must be a positive integer")
    quo, rem = divmod((p % q) << FRAC_BITS, q)
    if 2 * rem > q:
        quo += 1
    return Angle(quo & _MASK)


def angle_from_fraction(value: Fraction) -> Angle:
    """Snap an arbitrary rational (mod 1) to the grid, ties toward zero."""
    frac = value - (value.numerator // value.denominator)
    return angle_from_rational(frac.numerator, frac.denominator)


def angle_from_float(value: float) -> Angle:
    """Snap a finite double (mod 1) to the grid, ties toward zero.

    Exact: a double is the rational its integer ratio gives, so this
    equals angle_from_fraction(Fraction(value)) without building one.
    """
    return angle_from_rational(*value.as_integer_ratio())


def angle_from_decimal(text: str) -> Angle:
    """Parse a decimal string like '0.4142' exactly and snap to the grid."""
    return angle_from_fraction(Fraction(text))


def wrap_add(a: Angle, b: Angle) -> Angle:
    """(a + b) mod 1, exact."""
    return Angle((a.numerator + b.numerator) & _MASK)


def wrap_neg(a: Angle) -> Angle:
    """(-a) mod 1, exact; the wrap_add inverse."""
    return Angle(-a.numerator & _MASK)


def scale_mod1(a: Angle, n: int) -> Angle:
    """(n * a) mod 1 by widened integer multiply, exact; n may be negative."""
    return Angle((n * a.numerator) & _MASK if n >= 0 else (n * a.numerator) % MODULUS)


def dist_to_int(a: Angle) -> float:
    """Distance to the nearest integer, min(value, 1 - value), in [0, 1/2]."""
    return min(a.numerator, MODULUS - a.numerator) / MODULUS


def dist_to_int_exact(a: Angle) -> Fraction:
    """Exact rational version of dist_to_int, for order comparisons."""
    return Fraction(min(a.numerator, MODULUS - a.numerator), MODULUS)


def _golden_numerator() -> int:
    # round((sqrt(5)-1)/2 * 2**256): floor(sqrt(5)*2**258) carries three
    # guard bits past the target scale of 2**255; the value is irrational
    # so the half-way tie cannot occur.
    t = isqrt(5 << (2 * (FRAC_BITS + 2)))
    return ((t - (1 << (FRAC_BITS + 2))) + 4) >> 3


#: (sqrt(5)-1)/2 snapped to the grid; the classic bounded-quotient angle.
GOLDEN = Angle(_golden_numerator())
