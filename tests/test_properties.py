"""Property tests: the cocycle law, the skew-shift group law, the evaluator
over many x and weyl_sum's blocks against direct sums, trajectory's block
points against the partial-sum stream, the continued-fraction round trip, the
finite-expansion flag of the class-F certificate and the exact snap of
doubles, over hypothesis-drawn inputs.

Runs are derandomized, so every run of the suite sees the same examples.
"""

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trajectory_oracle import block_bounds, stream_points

from weyl_lab import _engine
from weyl_lab.contfrac import ContinuedFraction, angle_from_cf, cf_expand, f_witness
from weyl_lab.exactangle import (
    GOLDEN,
    HALF,
    MODULUS,
    ZERO,
    Angle,
    angle_from_float,
    angle_from_fraction,
    angle_from_rational,
)
from weyl_lab.weylsum import (
    STRIDE_BLOCKS_FROM,
    SkewPoint,
    skew_shift_n,
    trajectory,
    weyl_sum,
    weyl_sum_over_x,
)

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


# theta = a/2^s with s <= 8 as well: near such theta the sums reach n/sqrt(2^s)
thetas = angles | st.builds(lambda a, s: angle_from_rational(a, 1 << s), st.integers(0, 255), st.integers(0, 8))


@PROPERTY
@given(
    theta=thetas,
    x=angles,
    n=st.integers(0, 2000),
    node=st.integers(0, 1 << 16),
    nudge=st.integers(-(1 << 192), 1 << 192),
)
@example(theta=ZERO, x=ZERO, n=2000, node=1, nudge=0)
@example(theta=angle_from_rational(1, 2), x=ZERO, n=65, node=0, nudge=1)
@example(theta=angle_from_rational(3, 8), x=ZERO, n=3, node=5, nudge=-1)
def test_weyl_sum_over_x_matches_direct_sums(theta, x, n, node, nudge):
    # the evaluator within the bound its docstring states, (1.25 n + 4)
    # 2^-51, of weyl_sum at x, at x = 0 and 1/2, and at x whose 2x mod 1
    # is within 2^-64 of a node j/L of the fine grid (on it, to 2^-255, at
    # nudge 0)
    size = _engine._fine_len(max(n, _engine._TAPS))
    twice = -(-(node % size << 256) // size) + nudge
    xs = [x, ZERO, HALF, Angle(twice % MODULUS >> 1)]
    direct = np.array([weyl_sum(theta, point, ZERO, n) for point in xs])
    assert np.max(np.abs(weyl_sum_over_x(theta, xs, n) - direct)) <= (1.25 * n + 4) * 2.0**-51


def _block_bound(n: int) -> float:
    # weyl_sum's a-priori error bound for its blocks of B terms and its tail
    # of m terms (see its docstring)
    size = 2 * isqrt(n)
    return ((3.25 * size + 4) * (n // size) + n % size) * 2.0**-51


THIRD = Angle(MODULUS // 3)
CROSSOVER = _engine.BLOCKS_FROM


@PROPERTY
@given(
    theta=thetas | st.just(THIRD),
    x=angles | st.just(ZERO),
    y=angles,
    n=st.integers(CROSSOVER, 2 * 10**6),
)
@example(theta=ZERO, x=ZERO, y=ZERO, n=CROSSOVER)
@example(theta=GOLDEN, x=Angle(12345), y=Angle(7), n=0)
@example(theta=GOLDEN, x=Angle(12345), y=Angle(7), n=1)
@example(theta=HALF, x=ZERO, y=ZERO, n=CROSSOVER - 1)
@example(theta=GOLDEN, x=Angle(12345), y=Angle(7), n=CROSSOVER - 1)
@example(theta=HALF, x=Angle(12345), y=Angle(7), n=CROSSOVER)
@example(theta=angle_from_rational(1, 4), x=Angle(12345), y=ZERO, n=10**6 + 1)
@example(theta=angle_from_rational(3, 8), x=ZERO, y=Angle(7), n=2 * 10**6)
@example(theta=THIRD, x=ZERO, y=ZERO, n=2 * 10**6)
@example(theta=THIRD, x=GOLDEN, y=ZERO, n=1999 * 1001)
# B = 2 isqrt(n) divides n (at the crossover too): the tail is empty
@example(theta=THIRD, x=HALF, y=ZERO, n=1414**2)
@example(theta=GOLDEN, x=ZERO, y=ZERO, n=10**6)
def test_weyl_sum_blocks_match_direct_sums(theta, x, y, n):
    # weyl_sum is qsum_blocks, which takes blocks from the crossover on and
    # is the direct engine bit for bit below it; the two agree within the
    # blocks' a-priori bound plus the direct sum's own n 2^-51
    args = theta.numerator, 2 * x.numerator, y.numerator, n
    direct = _engine.qsum(*args)
    got = weyl_sum(theta, x, y, n)
    assert got == _engine.qsum_blocks(*args)
    if n < CROSSOVER:
        assert got == direct
    else:
        assert abs(got - direct) <= _block_bound(n) + n * 2.0**-51


@PROPERTY
@given(
    theta=thetas | st.just(THIRD),
    x=angles | st.just(ZERO),
    y=angles,
    n=st.integers(0, 2 * 10**6),
    stride=st.integers(STRIDE_BLOCKS_FROM, 4000) | st.integers(1 << 20, 1 << 21),
)
@example(theta=GOLDEN, x=ZERO, y=ZERO, n=39, stride=STRIDE_BLOCKS_FROM)
@example(theta=GOLDEN, x=ZERO, y=ZERO, n=400 * STRIDE_BLOCKS_FROM, stride=STRIDE_BLOCKS_FROM)
@example(theta=THIRD, x=ZERO, y=ZERO, n=2 * 10**6, stride=1000)
@example(theta=THIRD, x=ZERO, y=ZERO, n=2 * 10**6 - 1, stride=3000)
@example(theta=THIRD, x=GOLDEN, y=ZERO, n=2 * 10**6, stride=(1 << 20) + 1)
def test_trajectory_blocks_match_the_stream(theta, x, y, n, stride):
    # the block route, by one row or (past 2 floor(sqrt(n))) by blocks
    # summed on their own, within its a-priori bound plus the stream's of
    # qsum_partials
    args = theta.numerator, 2 * x.numerator, y.numerator
    tr = trajectory(theta, x, y, n, stride)
    assert tr.ns.tolist() == [*range(0, n, stride), n]
    zs, stream_bounds = stream_points(*args, n, tr.ns)
    assert np.all(np.abs(tr.points - zs) <= block_bounds(tr.points, n, stride) + stream_bounds)


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
