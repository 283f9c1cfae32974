import random
from fractions import Fraction
from math import isqrt

import pytest
from phase_stream import quad_phase_stream

from weyl_lab.exactangle import (
    GOLDEN,
    MODULUS,
    Angle,
    angle_from_decimal,
    angle_from_fraction,
    angle_from_rational,
    dist_to_int,
    dist_to_int_exact,
    scale_mod1,
    wrap_add,
)


def test_angle_from_rational_dyadic_exact():
    assert angle_from_rational(1, 4).to_float() == 0.25
    assert angle_from_rational(5, 4).to_float() == 0.25  # mod-1 wrap


def test_angle_from_rational_rounding_contract():
    third = angle_from_rational(1, 3)
    assert abs(Fraction(third.numerator, MODULUS) - Fraction(1, 3)) <= Fraction(1, 2 ** 257)


def test_angle_from_rational_rejects_bad_denominator():
    with pytest.raises(ValueError):
        angle_from_rational(1, 0)
    with pytest.raises(ValueError):
        angle_from_rational(1, -3)


def test_rounding_ties_toward_zero():
    # 1/2**257 sits exactly between grid points 0 and 1/2**256
    assert angle_from_rational(1, 1 << 257).numerator == 0
    assert angle_from_rational(3, 1 << 257).numerator == 1  # above the tie


def test_wrap_add_basic():
    a = angle_from_rational(3, 4)
    b = angle_from_rational(1, 2)
    assert wrap_add(a, b).to_float() == 0.25
    assert wrap_add(a, Angle(0)) == a
    assert wrap_add(a, scale_mod1(a, -1)) == Angle(0)


def test_wrap_add_group_laws_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (Angle(rng.randrange(MODULUS)) for _ in range(3))
        assert wrap_add(a, b) == wrap_add(b, a)
        assert wrap_add(wrap_add(a, b), c) == wrap_add(a, wrap_add(b, c))


def test_scale_mod1():
    q = angle_from_rational(1, 4)
    assert scale_mod1(q, 4) == Angle(0)
    assert scale_mod1(q, -1).to_float() == 0.75
    rng = random.Random(5)
    for _ in range(200):
        a, n = Angle(rng.randrange(MODULUS)), rng.randrange(-(1 << 300), 0)
        assert scale_mod1(a, n).numerator == (n * a.numerator) % MODULUS
    third = angle_from_rational(1, 3)
    assert dist_to_int_exact(scale_mod1(third, 3)) <= Fraction(3, MODULUS)


def test_dist_to_int():
    assert dist_to_int(angle_from_rational(1, 4)) == 0.25
    assert dist_to_int(angle_from_decimal("0.9")) == pytest.approx(0.1, abs=1e-15)
    assert dist_to_int(Angle(0)) == 0.0


def test_dist_symmetric_under_negation():
    rng = random.Random(12)
    for _ in range(200):
        a = Angle(rng.randrange(MODULUS))
        assert dist_to_int(a) == dist_to_int(scale_mod1(a, -1))


def test_hex_serialization_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        a = Angle(rng.randrange(MODULUS))
        text = a.to_hex()
        assert len(text) == 64
        assert Angle.from_hex(text) == a
    assert Angle(0).to_hex() == "0" * 64


def test_phase_stream_simple_values():
    # theta=1/4, x=1/8, y=0: phi_2 = 4/4 + 4/8 = 0.5 mod 1
    stream = quad_phase_stream(
        angle_from_rational(1, 4), angle_from_rational(1, 8), Angle(0)
    )
    phases = [next(stream) for _ in range(3)]
    assert phases[0] == Angle(0)
    assert phases[2].to_float() == 0.5


def test_phase_stream_constant_when_degenerate():
    y = angle_from_decimal("0.3")
    stream = quad_phase_stream(Angle(0), Angle(0), y)
    assert all(next(stream) == y for _ in range(50))


def test_phase_stream_second_difference_identity():
    # phi_{k+1} - 2 phi_k + phi_{k-1} = 2 theta, checked at k = 10**6 by
    # running the stream there and at small k directly
    theta, x, y = GOLDEN, angle_from_decimal("0.33"), angle_from_decimal("0.71")
    two_theta = scale_mod1(theta, 2)
    stream = quad_phase_stream(theta, x, y)
    prev2 = next(stream)
    prev1 = next(stream)
    for k in range(2, 2000):
        cur = next(stream)
        assert (cur.numerator - 2 * prev1.numerator + prev2.numerator) % MODULUS == two_theta.numerator
        prev2, prev1 = prev1, cur
    # jump the stream near 10**6 cheaply via raw numerators
    n = 10 ** 6
    direct = lambda k: (theta.numerator * k * k + 2 * x.numerator * k + y.numerator) % MODULUS
    assert (direct(n + 1) - 2 * direct(n) + direct(n - 1)) % MODULUS == two_theta.numerator


def test_phase_stream_matches_direct_bigint():
    # random tuples with small k checked exhaustively, plus one long
    # stream checked at random checkpoints up to 10**6
    rng = random.Random(14)
    for _ in range(1000):
        tn, xn, yn = (rng.randrange(MODULUS) for _ in range(3))
        k = rng.randrange(1, 400)
        stream = quad_phase_stream(Angle(tn), Angle(xn), Angle(yn))
        for i in range(k + 1):
            val = next(stream)
        assert val.numerator == (tn * k * k + 2 * xn * k + yn) % MODULUS

    tn, xn, yn = (rng.randrange(MODULUS) for _ in range(3))
    checkpoints = sorted(rng.sample(range(1, 10 ** 6), 50))
    stream = quad_phase_stream(Angle(tn), Angle(xn), Angle(yn))
    idx = 0
    for k in checkpoints:
        while idx <= k:
            val = stream.phase
            next(stream)
            idx += 1
        assert stream.phase.numerator == (tn * idx * idx + 2 * xn * idx + yn) % MODULUS


def _reference_cf(value_num: int, value_den: int, max_depth: int):
    # plain Euclid on an exact rational, the 400-bit reference
    quotients = []
    num, den = value_den, value_num
    while den and len(quotients) < max_depth:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    return quotients


def test_snapping_preserves_convergents_below_2_100():
    # 400-bit truncations of quadratic irrationals against the 256-bit grid
    from weyl_lab.contfrac import cf_expand

    targets = {
        "golden": (isqrt(5 << 800) - (1 << 400)) // 2,
        "sqrt2m1": isqrt(2 << 800) - (1 << 400),
        "sqrt3m1": isqrt(3 << 800) - (1 << 400),
    }
    for name, num400 in targets.items():
        ref = _reference_cf(num400, 1 << 400, 220)
        snapped = angle_from_fraction(Fraction(num400, 1 << 400))
        got = cf_expand(snapped, 220).quotients
        agree = 0
        q_prev, q_cur = 0, 1
        for a_ref, a_got in zip(ref, got):
            q_prev, q_cur = q_cur, a_ref * q_cur + q_prev
            if q_cur > 1 << 100:
                break
            assert a_ref == a_got, f"{name}: quotient diverged below q = 2**100"
            agree += 1
        else:
            raise AssertionError(f"{name}: never reached q > 2**100")
        assert agree >= 50, f"{name}: only {agree} levels verified"
