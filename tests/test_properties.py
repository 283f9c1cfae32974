"""Property tests: the cocycle law, the skew-shift group law, the
continued-fraction round trip, the finite-expansion flag of the class-F
certificate and the exact snap of doubles, over hypothesis-drawn inputs.

Runs are derandomized, so every run of the suite sees the same examples.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weyl_lab.contfrac import ContinuedFraction, angle_from_cf, cf_expand, f_witness
from weyl_lab.exactangle import (
    GOLDEN,
    Angle,
    angle_from_float,
    angle_from_fraction,
    angle_from_rational,
)
from weyl_lab.weylsum import SkewPoint, skew_shift_n, weyl_sum

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=60)

# the 32 bytes of a numerator: uniform over the grid, where st.integers
# would draw almost every value near 0
numerators = st.binary(min_size=32, max_size=32).map(lambda raw: int.from_bytes(raw, "big"))
angles = numerators.map(Angle)
points = st.builds(SkewPoint, angles, angles)


@PROPERTY
@given(theta=angles, p=points, n=st.integers(0, 3000), m=st.integers(0, 3000))
def test_cocycle_law(theta, p, n, m):
    # a(x, y, n+m) = a(x, y, n) + a(T^n(x, y), m), at E2's relative 1e-12
    whole = weyl_sum(theta, p.x, p.y, n + m)
    first = weyl_sum(theta, p.x, p.y, n)
    shifted = skew_shift_n(theta, p, n)
    second = weyl_sum(theta, shifted.x, shifted.y, m)
    assert abs(whole - first - second) <= 1e-12 * max(n + m, 1)


steps = st.integers(-(1 << 80), 1 << 80)


@PROPERTY
@given(theta=angles, p=points, n=steps, m=steps)
def test_skew_shift_group_law(theta, p, n, m):
    assert skew_shift_n(theta, skew_shift_n(theta, p, n), m) == skew_shift_n(theta, p, n + m)


continued_fractions = st.builds(
    lambda head, last: ContinuedFraction((*head, last)),
    st.lists(st.integers(1, 1000), max_size=5),
    st.integers(2, 1000),
)


@PROPERTY
@given(cf=continued_fractions)
def test_cf_expand_inverts_angle_from_cf(cf):
    assert cf_expand(angle_from_cf(cf), len(cf.quotients)) == cf


# nonzero thetas of three kinds: grid-random (expansion runs to the noise
# bound), finite continued fractions, and rationals p/q off the grid
expandable = st.one_of(
    numerators.filter(bool).map(Angle),
    continued_fractions.map(angle_from_cf),
    st.builds(
        lambda q, p: angle_from_rational(p % q, q),
        st.integers(2, 10**12),
        st.integers(1, 10**12),
    ).filter(lambda theta: theta.numerator != 0),
)


@PROPERTY
@given(theta=expandable, depth=st.integers(1, 44), bump=st.integers(0, 43))
@example(theta=GOLDEN, depth=20, bump=0)
@example(theta=angle_from_rational(1, 3), depth=5, bump=0)
def test_f_witness_finite_flag_and_consistency(theta, depth, bump):
    cf = cf_expand(theta, depth)
    depth = len(cf.quotients)
    cert = f_witness(cf, 0.5, theta)
    # finite means: the expansion asked for one more quotient ends within depth
    assert cert.finite_expansion == (len(cf_expand(theta, depth + 1).quotients) <= depth)
    # a perturbed quotient no longer matches theta's expansion
    quotients = list(cf.quotients)
    quotients[bump % depth] += 1
    with pytest.raises(ValueError, match="inconsistent"):
        f_witness(ContinuedFraction(tuple(quotients)), 0.5, theta)


@settings(PROPERTY, max_examples=500)
@given(v=st.floats(allow_nan=False, allow_infinity=False))
@example(v=0.0)
@example(v=-0.0)
@example(v=5e-324)  # the smallest subnormal
@example(v=-2.225073858507201e-308)  # the largest subnormal, negated
@example(v=2.0 ** -205)
@example(v=3 * 2.0 ** -257)  # a tie between two grid points
@example(v=-3 * 2.0 ** -257)
@example(v=2.0 ** -257)
@example(v=-0.75)
@example(v=-1e300)
def test_angle_from_float_equals_fraction_snap(v):
    assert angle_from_float(v) == angle_from_fraction(Fraction(v))
