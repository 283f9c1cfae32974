"""Property tests: the cocycle law, the skew-shift group law and the
continued-fraction round trip, over hypothesis-drawn inputs.

Runs are derandomized, so every run of the suite sees the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_lab.contfrac import ContinuedFraction, angle_from_cf, cf_expand
from weyl_lab.exactangle import MODULUS, Angle
from weyl_lab.weylsum import SkewPoint, skew_shift_n, weyl_sum

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=60)

angles = st.integers(0, MODULUS - 1).map(Angle)
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
