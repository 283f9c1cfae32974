import cmath
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajectory_oracle import block_bounds, stream_points, weyl_sum_bound

import weyl_lab
from weyl_lab import _engine, weylsum
from weyl_lab._rng import counter_angle, counter_numerators, counter_words
from weyl_lab.acceptance import _E1_SINGULAR_OFFSETS
from weyl_lab.exactangle import (
    GOLDEN,
    MODULUS,
    Angle,
    angle_from_fraction,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
    wrap_add,
)
from weyl_lab.weylsum import (
    PARSEVAL_SAMPLE_BYTES,
    STRIDE_BLOCKS_FROM,
    SkewPoint,
    _sin_ratios,
    dirichlet_b,
    dirichlet_b_closed,
    dirichlet_bs_closed,
    parseval_estimate,
    parseval_estimates,
    psi,
    psis,
    skew_shift_n,
    trajectory,
    weyl_sum,
    weyl_sum_over_x,
    weyl_sums,
    weyl_sums_over_x,
)

ZERO = Angle(0)


def _oracle_sum(tn: int, xn: int, yn: int, n: int) -> complex:
    # direct big-integer phases, independently of the block engine
    total = 0j
    for k in range(n):
        num = (k * k * tn + 2 * k * xn + yn) % MODULUS
        total += cmath.exp(2j * math.pi * (num / MODULUS))
    return total


def test_weyl_sum_matches_bigint_oracle():
    rng = random.Random(42)
    for _ in range(25):
        tn, xn, yn = (rng.randrange(MODULUS) for _ in range(3))
        n = rng.randrange(1, 1500)
        fast = weyl_sum(Angle(tn), Angle(xn), Angle(yn), n)
        slow = _oracle_sum(tn, xn, yn, n)
        assert abs(fast - slow) < 1e-10


def _dyadic_gauss(a: int, b, s: int):
    # G(a, b; 2^s) = sum_{k mod 2^s} e((a k^2 + b k)/2^s) for odd a, s >= 2,
    # and b an int or an int64 array: 0 for odd b (terms k and k + 2^(s-1)
    # cancel), else e(-a^-1 (b/2)^2 / 2^s) G(a; 2^s) by completing the square,
    # with a^-1 mod 2^s and G(a; 2^s) = (2/a)^s (1 + i^a) 2^(s/2)
    # (Berndt-Evans-Williams); i^a from a % 4, since float powers of 1j
    # drift past the budget
    jacobi_2a = 1 if a % 8 in (1, 7) else -1
    gauss = jacobi_2a ** s * (1 + (1, 1j, -1, -1j)[a % 4]) * 2.0 ** (s / 2)
    r = -pow(a, -1, 1 << s) * (b // 2) ** 2 % (1 << s)
    return np.where(b % 2, 0j, gauss * np.exp(2j * np.pi * r / (1 << s)))


def test_dyadic_gauss_formula_matches_brute_force():
    # every odd a and every b at s <= 10: G(a, . ; 2^s) is 2^s times the
    # inverse DFT over k of e(a k^2 / 2^s)
    for s in range(2, 11):
        k = np.arange(1 << s, dtype=np.int64)
        for a in range(1, 1 << s, 2):
            brute = np.fft.ifft(np.exp(2j * np.pi * (a * k * k % (1 << s)) / (1 << s))) * (1 << s)
            assert np.max(np.abs(brute - _dyadic_gauss(a, k, s))) < 1e-9


def _engine_sum(theta: Angle, x: Angle, y: Angle, n: int) -> complex:
    # a(x, y, n) by the direct engine at every n, which weyl_sum leaves for
    # blocks from _engine.BLOCKS_FROM terms on
    return _engine.qsum(theta.numerator, 2 * x.numerator, y.numerator, n)


def _dyadic_gauss_error(a: int, b: int, s: int, c: int, total=_engine_sum) -> float:
    # theta = a/2^s and 2x = b/2^s lie on the grid and k^2*theta + 2kx mod 1
    # has period 2^s, so a(x, 0, c*2^s) = c*G(a, b; 2^s)
    x = angle_from_rational(b, 1 << (s + 1))
    z = total(angle_from_rational(a, 1 << s), x, ZERO, c << s)
    return abs(z - c * complex(_dyadic_gauss(a, b, s)))


@pytest.mark.parametrize(
    "a, b, c",
    [
        pytest.param(12345, 0, 64, id="12345"),
        pytest.param(699051, 0, 64, id="699051"),
        # n = 96 * 2^20 ~ 1e8 terms; an even b turns the closed form, an odd
        # b makes it 0
        pytest.param(12345, 2 * 31337, 96, id="12345-62674"),
        pytest.param(699051, 31337, 96, id="699051-31337"),
    ],
)
def test_weyl_sum_matches_dyadic_gauss_closed_form_at_large_n(a, b, c):
    # the direct engine's large-n claim
    assert _dyadic_gauss_error(a, b, 20, c) <= (c << 20) * 2.0 ** -51


@pytest.mark.slow
def test_weyl_sum_matches_dyadic_gauss_closed_form_at_n_2_30():
    # the direct engine's large-n claim at n = 2^30 ~ 1.07e9 terms (about a
    # minute on 2 cores)
    n = 1024 << 20
    assert _dyadic_gauss_error(12345, 0, 20, 1024) <= n * 2.0 ** -51


def test_weyl_sum_blocks_match_dyadic_gauss_closed_form_at_n_2_30():
    # the same sum through weyl_sum's blocks, within the same budget
    n = 1024 << 20
    assert _dyadic_gauss_error(12345, 0, 20, 1024, weyl_sum) <= n * 2.0 ** -51


def _jacobi(a: int, c: int) -> int:
    # the Jacobi symbol (a|c) for odd c > 0, by quadratic reciprocity
    a %= c
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if c % 8 in (3, 5):
                sign = -sign
        a, c = c, a
        if a % 4 == 3 and c % 4 == 3:
            sign = -sign
        a %= c
    return sign if c == 1 else 0


def _gauss(a: int, b: int, c: int) -> complex:
    # G(a, b; c) = sum_{k mod c} e((a k^2 + b k)/c) for odd c and
    # gcd(a, c) = 1: (a|c) eps_c sqrt(c) e(-(4a)^-1 b^2 / c), with the
    # Jacobi symbol (a|c), and eps_c = 1 for c = 1 mod 4 and i for c = 3 mod 4
    eps = 1 if c % 4 == 1 else 1j
    r = -pow(4 * a, -1, c) * b * b % c
    return _jacobi(a, c) * eps * math.sqrt(c) * cmath.exp(2j * math.pi * r / c)


def test_prime_gauss_formula_matches_brute_force():
    # every odd modulus up to 1009, prime or composite
    rng = random.Random(55)
    for c in range(3, 1010, 2):
        a = rng.randrange(1, c)
        while math.gcd(a, c) != 1:
            a = rng.randrange(1, c)
        k = np.arange(c, dtype=np.int64)
        for a, b in ((a, rng.randrange(c)), (c - 1, 0)):
            brute = np.sum(np.exp(2j * np.pi * ((a * k * k + b * k) % c) / c))
            assert abs(brute - _gauss(a, b, c)) < 1e-9


def _gauss_error(a: int, b: int, c: int, reps: int, total=_engine_sum) -> float:
    # theta = a/c and 2x = b/c off the dyadic grid: k^2 theta + 2kx mod 1
    # has period c, so a(x, 0, reps c) = reps G(a, b; c); rounding theta
    # and x to the grid moves each phase by under n^2 2^-256
    theta = angle_from_rational(a, c)
    x = angle_from_rational(b * pow(2, -1, c), c)
    return abs(total(theta, x, ZERO, reps * c) - reps * _gauss(a, b, c))


@pytest.mark.parametrize(
    "a, b, p",
    [
        (12345, 678, 1_000_003),
        (777_777, 31_337, 999_983),
        # a composite modulus, 999999 = 3^3 7 11 13 37
        (1000, 4321, 999_999),
    ],
)
def test_weyl_sum_matches_prime_gauss_closed_form_at_large_n(a, b, p):
    # the direct engine at n ~ 1e8 terms; theta = 777777/999983 >= 1/2
    assert _gauss_error(a, b, p, 100) <= 100 * p * 2.0 ** -51


@pytest.mark.slow
def test_weyl_sum_matches_prime_gauss_closed_form_at_n_1e9():
    # the direct engine
    assert _gauss_error(777_777, 31_337, 999_983, 1000) <= 1000 * 999_983 * 2.0 ** -51


def test_weyl_sum_blocks_match_prime_gauss_closed_form_at_n_1e9():
    # the same sum through weyl_sum's blocks, within the same budget
    error = _gauss_error(777_777, 31_337, 999_983, 1000, weyl_sum)
    assert error <= 1000 * 999_983 * 2.0 ** -51


def test_weyl_sum_trivial_values():
    assert abs(abs(weyl_sum(GOLDEN, Angle(123), Angle(456), 1)) - 1.0) < 1e-15
    assert weyl_sum(ZERO, ZERO, ZERO, 7) == 7.0
    # k^2 parity at theta = 1/2: 1 + e(1/2) = 0
    assert abs(weyl_sum(angle_from_rational(1, 2), ZERO, ZERO, 2)) < 1e-12


def test_weyl_sum_modulus_bound_and_equality_case():
    rng = random.Random(43)
    for _ in range(20):
        tn, xn = rng.randrange(MODULUS), rng.randrange(MODULUS)
        n = rng.randrange(1, 800)
        assert abs(weyl_sum(Angle(tn), Angle(xn), ZERO, n)) <= n * (1 + 1e-12)
    assert abs(weyl_sum(ZERO, ZERO, Angle(5), 321)) == pytest.approx(321.0, abs=1e-9)


def test_modulus_independent_of_y():
    rng = random.Random(44)
    for _ in range(30):
        theta, x = Angle(rng.randrange(MODULUS)), Angle(rng.randrange(MODULUS))
        y1, y2 = Angle(rng.randrange(MODULUS)), Angle(rng.randrange(MODULUS))
        n = rng.randrange(1, 4000)
        m1 = abs(weyl_sum(theta, x, y1, n))
        m2 = abs(weyl_sum(theta, x, y2, n))
        assert abs(m1 - m2) < 1e-12 * max(1.0, m1)


def test_cocycle_identity_module_scale():
    rng = random.Random(45)
    for _ in range(30):
        theta, x, y = (Angle(rng.randrange(MODULUS)) for _ in range(3))
        n, m = rng.randrange(1, 3000), rng.randrange(1, 3000)
        whole = weyl_sum(theta, x, y, n + m)
        first = weyl_sum(theta, x, y, n)
        p = skew_shift_n(theta, SkewPoint(x, y), n)
        second = weyl_sum(theta, p.x, p.y, m)
        assert abs(whole - first - second) / (n + m) < 1e-12


def test_dirichlet_trivials():
    assert dirichlet_b(ZERO, 5) == 5.0
    assert dirichlet_b_closed(ZERO, 5) == 5.0
    assert abs(dirichlet_b(angle_from_rational(1, 2), 2)) < 1e-12
    assert abs(dirichlet_b(angle_from_rational(1, 3), 3)) < 1e-12
    assert dirichlet_b(Angle(777), 0) == 0j


def test_dirichlet_closed_matches_direct():
    rng = random.Random(46)
    worst = 0.0
    for _ in range(500):
        x = Angle(rng.randrange(MODULUS))
        m = rng.randrange(0, 4000)
        worst = max(worst, abs(dirichlet_b(x, m) - dirichlet_b_closed(x, m)))
    assert worst < 1e-9


def test_dirichlet_closed_near_singular():
    worst = 0.0
    for expo in (-30.0, -21.0, -20.001, -19.99, -15.0, -10.0, -8.01, -7.9, -5.0):
        for sign in (1, -1):
            x = angle_from_fraction(Fraction(sign) * Fraction(2.0 ** expo))
            for m in (1, 7, 100, 9999, 10000):
                worst = max(worst, abs(dirichlet_b(x, m) - dirichlet_b_closed(x, m)))
    # x within 1e-8 of an integer
    for x in (angle_from_rational(1, 10 ** 8), angle_from_rational(10 ** 8 - 1, 10 ** 8)):
        for m in (3, 1000, 10000):
            worst = max(worst, abs(dirichlet_b(x, m) - dirichlet_b_closed(x, m)))
    assert worst < 1e-9


@pytest.mark.parametrize("m", [0, 1, 7, 40_000])
def test_dirichlet_b_over_x_equals_single_sums(m):
    rng = random.Random(48 + m)
    xs = [Angle(rng.randrange(MODULUS)) for _ in range(40)] + [ZERO, angle_from_rational(1, 2)]
    # the closed-form moduli the level sets read, against direct sums
    got = np.array([_sin_ratios(x.numerator, (m,))[0] for x in xs])
    want = np.abs([dirichlet_b(x, m) for x in xs])
    assert np.max(np.abs(got - want)) <= m * 2.0**-51


def test_dirichlet_moduli_batch():
    rng = random.Random(47)
    near = angle_from_fraction(Fraction(-1, 1 << 25))  # ||x|| < 2^-20
    half = angle_from_rational(1, 2)
    ms = range(300)
    for x in (Angle(rng.randrange(MODULUS)), near, ZERO, half):
        batch = np.array(_sin_ratios(x.numerator, ms))
        single = np.array([abs(dirichlet_b_closed(x, m)) for m in ms])
        assert np.max(np.abs(batch - single)) < 1e-10
    # at x = 1/2 the terms alternate 1, -1: |b| is 0, 1, 0, 1, ... exactly
    assert _sin_ratios(half.numerator, ms) == [m % 2 for m in ms]


def _mp_dirichlet_b(num: int, m: int) -> complex:
    # b(x, m) = e((m-1)x/2) sin(pi m x) / sin(pi x) at 700 bits, x exact
    with mpmath.workprec(700):
        x = mpmath.mpf(num) / MODULUS
        return complex(mpmath.expjpi((m - 1) * x) * mpmath.sinpi(m * x) / mpmath.sinpi(x))


def test_dirichlet_closed_matches_mpmath_at_every_scale():
    # ||x|| or ||x - 1/2|| at each scale 2^-1 ... 2^-250, on both sides,
    # then E1's singular offsets of both signs and the grid's ends
    rng = random.Random(54)
    cases = []
    for i in range(400):
        s = 1 + i * 249 // 399
        d = rng.randrange(1 << (255 - s), 1 << (256 - s))
        num = (d, MODULUS - d, (MODULUS >> 1) + d, (MODULUS >> 1) - d)[i % 4]
        cases.append((num, rng.randrange(1, 10_001)))
    for off in _E1_SINGULAR_OFFSETS:
        cases += [(angle_from_fraction(sign * off).numerator, 10_000) for sign in (1, -1)]
    cases += [(1, 10_000), (MODULUS - 1, 9_999)]
    for num, m in cases:
        assert abs(dirichlet_b_closed(Angle(num), m) - _mp_dirichlet_b(num, m)) <= m * 2.0 ** -50


def _closed_form_cases() -> tuple[list[int], list[int]]:
    # (x numerators, ms): m = 0 at x = 0, 1/2 and a random x; x = 0 and
    # x = 1/2 at m > 0; E1's near-singular offsets of both signs at
    # m = 10**4; then random x and m, as E1 draws them
    rng = random.Random(56)
    half = MODULUS >> 1
    near = [angle_from_fraction(sign * off).numerator for off in _E1_SINGULAR_OFFSETS for sign in (1, -1)]
    nums = [0, half, rng.randrange(MODULUS), 0, half, half, *near]
    ms = [0, 0, 0, 9_999, 7, 10_000, *(10_000 for _ in near)]
    nums += [rng.randrange(MODULUS) for _ in range(300)]
    ms += [rng.randrange(10_001) for _ in range(300)]
    return nums, ms


@pytest.mark.parametrize("batched", [False, True], ids=["one-element", "many-elements"])
def test_dirichlet_bs_closed_matches_mpmath_and_the_single_closed_form(batched):
    nums, ms = _closed_form_cases()
    arrays = [(nums, ms)] if batched else [([num], [m]) for num, m in zip(nums, ms)]
    for array_nums, array_ms in arrays:
        got = dirichlet_bs_closed(array_nums, array_ms)
        assert got.shape == (len(array_ms),)
        for z, num, m in zip(got, array_nums, array_ms):
            # b(0, m) = m; m = 0 gives exactly 0
            want = float(m) if num == 0 else _mp_dirichlet_b(num, m)
            assert abs(z - want) <= m * 2.0**-50, (num, m)
            # in an array of many, e_phase rounds each half phase with the
            # fused multiply-add that a one-word array leaves out (see its
            # docstring): 1 ulp of the unit phase, times |b|
            single = dirichlet_b_closed(Angle(num), m)
            assert abs(z - single) <= 2.0**-52 * abs(single), (num, m)
            if not batched:
                assert z == single
    with pytest.raises(ValueError):
        dirichlet_bs_closed([1, 2], [3, -1])


def test_psi_trivials():
    assert psi(Angle(12345), Angle(678), 1) == 1.0
    assert psi(ZERO, ZERO, 11) == pytest.approx(11.0, abs=1e-9)


def test_psi_matches_weyl_modulus():
    # psi(2 theta, 2x, k) = |a(x, y, k)| when theta < 1/2 (no wrap in the
    # doubling) and for any y
    rng = random.Random(48)
    for _ in range(100):
        theta = Angle(rng.randrange(MODULUS >> 1))
        x = Angle(rng.randrange(MODULUS))
        y = Angle(rng.randrange(MODULUS))
        k = rng.randrange(1, 10_000)
        lhs = psi(scale_mod1(theta, 2), scale_mod1(x, 2), k)
        rhs = abs(weyl_sum(theta, x, y, k))
        assert abs(lhs - rhs) < 1e-9


def test_psi_close_to_b_for_small_theta():
    # |psi(theta, x, k) - |b(x, k)|| <= C k^3 ||theta|| with C well below 50,
    # for theta near zero
    rng = random.Random(49)
    worst_c = 0.0
    for _ in range(100):
        k = rng.randrange(2, 800)
        budget = rng.uniform(0.01, 1.0)
        theta_val = Fraction(budget).limit_denominator(10 ** 12) / k ** 3
        theta = angle_from_fraction(theta_val)
        if theta.numerator == 0:
            continue
        x = Angle(rng.randrange(MODULUS))
        gap = abs(psi(theta, x, k) - abs(dirichlet_b(x, k)))
        denom = k ** 3 * dist_to_int(theta)
        worst_c = max(worst_c, gap / denom)
    assert worst_c <= 50.0


def _oracle_psi(tn: int, xn: int, k: int) -> float:
    # direct big-integer phases (j^2 theta + 2jx) / 2**257, independently
    # of the split into cocycle sums
    total = 0j
    for j in range(k):
        num = (j * j * tn + 2 * j * xn) % (2 * MODULUS)
        total += cmath.exp(2j * math.pi * (num / (2 * MODULUS)))
    return abs(total)


def test_psi_matches_bigint_oracle():
    # odd and even k, theta >= 1/2 (where the doubling wraps) in half the cases
    rng = random.Random(53)
    for i in range(40):
        tn = rng.randrange((MODULUS >> 1) * (i % 2), MODULUS)
        xn = rng.randrange(MODULUS)
        k = 2 * rng.randrange(1000) + (i >> 1) % 2
        assert abs(psi(Angle(tn), Angle(xn), k) - _oracle_psi(tn, xn, k)) < 1e-10


def _psi_by_weyl_sum(theta: Angle, x: Angle, k: int) -> float:
    # psi's split into two cocycle sums, each its own weyl_sum call, and
    # its constant's one e_phase call
    twice = scale_mod1(theta, 2)
    even = weyl_sum(twice, x, ZERO, -(-k // 2))
    odd = weyl_sum(twice, wrap_add(theta, x), ZERO, k // 2)
    turn = complex(weylsum._e_half_grid([theta.numerator + 2 * x.numerator])[0])
    return float(np.abs(even + turn * odd))


# uniform numerators, whose sums have no symmetry to hide a swapped term,
# besides hypothesis's own integers, which favour the edges, and 0 and 1/2
_ANGLES = st.one_of(
    st.randoms(use_true_random=True).map(lambda r: r.randrange(MODULUS)),
    st.integers(0, MODULUS - 1),
    st.sampled_from([0, MODULUS >> 1]),
).map(Angle)
# k at 0-3, where a half sum has no term or one, about 2 BLOCKS_FROM,
# where the half sums cross from packed passes to blocks, and in between
_KS = st.one_of(
    st.integers(0, 3),
    st.integers(2 * _engine.BLOCKS_FROM - 3, 2 * _engine.BLOCKS_FROM + 3),
    st.integers(0, 3 * _engine.BLOCKS_FROM),
)


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(requests=st.lists(st.tuples(_ANGLES, _ANGLES, _KS), min_size=1, max_size=8))
def test_psis_is_psi_one_by_one_bit_for_bit(requests):
    got = psis(iter(requests))
    assert got == [psi(*request) for request in requests]
    assert got == [_psi_by_weyl_sum(*request) for request in requests]


def test_weyl_sums_is_weyl_sum_bit_for_bit():
    rng = random.Random(54)
    ns = [0, 1, 2, 999, _engine.BLOCKS_FROM - 1, _engine.BLOCKS_FROM, 30_000]
    requests = [(Angle(rng.randrange(MODULUS)), Angle(rng.randrange(MODULUS)), n) for n in ns]
    assert weyl_sums(requests).tolist() == [weyl_sum(theta, x, ZERO, n) for theta, x, n in requests]
    with pytest.raises(ValueError):
        weyl_sums([(GOLDEN, ZERO, -1)])
    with pytest.raises(ValueError):
        psis([(GOLDEN, ZERO, 5), (GOLDEN, ZERO, -1)])


def _dyadic_psi_error(a: int, s: int, c: int) -> float:
    # psi(a/2^s, 0, k) sums e(j^2 a / 2^(s+1)), of period 2^(s+1) in j for
    # odd a, and a dyadic Gauss sum of period 2^(s+1) has modulus
    # 2^((s+2)/2): at k = c 2^(s+1), psi = c 2^((s+2)/2)
    k = c << (s + 1)
    return abs(psi(angle_from_rational(a, 1 << s), ZERO, k) - c * 2.0 ** ((s + 2) / 2))


def test_psi_matches_dyadic_gauss_closed_form_at_large_k():
    # theta = 699051 / 2^20 >= 1/2, k = 2^26
    assert _dyadic_psi_error(699051, 20, 32) <= (32 << 21) * 2.0 ** -51


def test_psi_matches_dyadic_gauss_closed_form_at_k_2_30():
    # the large-k claim at k = 2^30 ~ 1.07e9 terms, through weyl_sum's blocks
    assert _dyadic_psi_error(699051, 20, 512) <= (512 << 21) * 2.0 ** -51


def test_skew_shift_spec_examples():
    rng = random.Random(50)
    theta = Angle(rng.randrange(MODULUS))
    p = SkewPoint(Angle(rng.randrange(MODULUS)), Angle(rng.randrange(MODULUS)))
    assert skew_shift_n(theta, p, 0) == p
    one = skew_shift_n(theta, p, 1)
    assert one.x.numerator == (p.x.numerator + theta.numerator) % MODULUS
    assert one.y.numerator == (p.y.numerator + 2 * p.x.numerator + theta.numerator) % MODULUS
    assert skew_shift_n(theta, skew_shift_n(theta, p, 5), -5) == p


def test_skew_shift_closed_form_equals_iteration():
    rng = random.Random(51)
    for _ in range(10):
        theta = Angle(rng.randrange(MODULUS))
        p = SkewPoint(Angle(rng.randrange(MODULUS)), Angle(rng.randrange(MODULUS)))
        cur = p
        for _ in range(500):
            cur = skew_shift_n(theta, cur, 1)
        assert cur == skew_shift_n(theta, p, 500)


def test_parseval_q1_exact():
    est = parseval_estimate(GOLDEN, 1, 500, seed=5)
    assert est.mean == pytest.approx(1.0, abs=1e-12)


def test_parseval_theta_zero_q5():
    est = parseval_estimate(ZERO, 5, 40_000, seed=5)
    assert abs(est.mean - 5.0) <= 5.0 * est.std_error


def test_parseval_golden_q13():
    est = parseval_estimate(GOLDEN, 13, 50_000, seed=5)
    assert abs(est.mean - 13.0) <= 5.0 * est.std_error


def test_weyl_sum_over_x_matches_scalar():
    rng = random.Random(52)
    xs = [Angle(rng.randrange(MODULUS)) for _ in range(40)]
    batch = weyl_sum_over_x(GOLDEN, xs, 999)
    scalar = np.array([weyl_sum(GOLDEN, x, ZERO, 999) for x in xs])
    assert np.max(np.abs(batch - scalar)) <= 2 * 999 * 2.0**-51


@pytest.mark.parametrize("s", [8, 14, 16, 20])
def test_weyl_sums_over_x_matches_dyadic_gauss_closed_form(s):
    # theta = a/2^s and 256 seeded x = b/2^(s+1), odd and even b, at n ~ 1e5
    # and ~ 1e6 (2^20 alone at s = 20) from one coefficient row:
    # a(x, 0, n) = (n/2^s) G(a, b; 2^s).  Within a direct sum's n 2^-51 at
    # every s, also at s = 8, where max|a| reaches n/11 (measured 0.19 n)
    a = 12345 % (1 << s)
    rng = random.Random(61)
    bs = np.array([rng.randrange(1 << (s + 1)) for _ in range(256)], dtype=np.int64)
    xs = [angle_from_rational(int(b), 1 << (s + 1)) for b in bs]
    ns = sorted({max(1, round(t / (1 << s))) << s for t in (1e5, 1e6)})
    for row, n in zip(weyl_sums_over_x(angle_from_rational(a, 1 << s), xs, ns), ns):
        err = np.max(np.abs(row - (n >> s) * _dyadic_gauss(a, bs, s)))
        assert err <= n * 2.0**-51


def test_parseval_estimates_share_one_draw():
    # one draw of the samples serves every q, over three blocks of points, and
    # each q gives parseval_estimate's bytes
    qs = [0, 13, 999, 17]
    ests = parseval_estimates(GOLDEN, qs, 9000, seed=3)
    assert ests == [parseval_estimate(GOLDEN, q, 9000, seed=3) for q in qs]
    sums = weyl_sums_over_x(GOLDEN, [Angle(5), Angle(MODULUS - 7)], qs)
    assert sums.shape == (4, 2) and not sums[0].any()
    for row, q in zip(sums, qs):
        assert row.tobytes() == weyl_sum_over_x(GOLDEN, [Angle(5), Angle(MODULUS - 7)], q).tobytes()


def test_parseval_draws_words_of_the_angles_it_drew():
    # the word draws give the sums weyl_sums_over_x gives at the angles
    qs = [13, 999]
    words = weylsum._sums_over_words(GOLDEN, counter_words(3, 9000, "parseval"), qs)
    angles = weyl_sums_over_x(GOLDEN, list(map(Angle, counter_numerators(3, 9000, "parseval"))), qs)
    assert words.tobytes() == angles.tobytes()


@pytest.mark.parametrize("qs", [[10], [10, 17]])
def test_parseval_peak_per_sample_is_its_charge(qs):
    # between 10**4 and 3 10**4 samples the traced peak grows per sample by
    # the bytes parseval_estimates charges
    parseval_estimates(GOLDEN, qs, 10, seed=1)
    peaks = []
    for samples in (10**4, 3 * 10**4):
        tracemalloc.start()
        try:
            parseval_estimates(GOLDEN, qs, samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    grown = (peaks[1] - peaks[0]) / (2 * 10**4)
    charge = PARSEVAL_SAMPLE_BYTES + 16 * len(qs)
    assert charge - 2 < grown <= charge


def test_parseval_peak_per_sample_does_not_depend_on_the_dict_free_list():
    # the growth per sample is the same with CPython's free list of small
    # dict keys emptied first: the evaluator's per-block calls make no
    # keyword dicts.  Through np.take's wrapper they made three per block,
    # and with the list empty each stayed in the traced peak (80.09 bytes
    # per sample against 80), so the test above passed or failed with
    # what ran before it
    def grown(drain):
        parseval_estimates(GOLDEN, [10], 10, seed=1)
        peaks = []
        for samples in (10**4, 3 * 10**4):
            held = [dict(a=i, b=i, c=i) for i in range(200)] if drain else []
            tracemalloc.start()
            try:
                parseval_estimates(GOLDEN, [10], samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del held
        return (peaks[1] - peaks[0]) / (2 * 10**4)

    assert abs(grown(drain=True) - grown(drain=False)) < 0.01


def test_weyl_sum_over_x_bytes_do_not_depend_on_blas_threads():
    # the evaluator reduces by np.sum and np.fft alone: this guards that no
    # BLAS reduction (a matrix product, an @ in the kernel's transform) comes
    # back; 9000 samples span three blocks of points, and growth's report at
    # E6's size takes its sups from the evaluator
    code = (
        "import hashlib, sys\n"
        "from weyl_lab._rng import counter_numerators\n"
        "from weyl_lab.calibration import GROWTH_GRID, GROWTH_SCHEDULE\n"
        "from weyl_lab.exactangle import GOLDEN, Angle\n"
        "from weyl_lab.experiments import growth_report\n"
        "from weyl_lab.reporting import render_json\n"
        "from weyl_lab.weylsum import weyl_sum_over_x\n"
        "xs = [Angle(x) for x in counter_numerators(7, 9000, 'blas')]\n"
        "out = weyl_sum_over_x(GOLDEN, xs, 5000)\n"
        "rep = growth_report(GOLDEN, list(GROWTH_SCHEDULE), GROWTH_GRID)\n"
        "for data in (out.tobytes(), render_json(rep).encode()):\n"
        "    sys.stdout.write(hashlib.sha256(data).hexdigest() + '\\n')\n"
    )
    src = str(Path(weyl_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_trajectory_basics():
    tr = trajectory(GOLDEN, ZERO, ZERO, 0, 1)
    assert list(tr.ns) == [0] and tr.points[0] == 0j

    tr = trajectory(GOLDEN, Angle(12), Angle(7), 600, 1)
    steps = np.abs(np.diff(tr.points))
    assert np.max(np.abs(steps - 1.0)) < 1e-12  # unit steps
    assert tr.ns[-1] == 600

    strided = trajectory(GOLDEN, Angle(12), Angle(7), 600, 7)
    assert list(strided.ns)[:3] == [0, 7, 14]
    assert strided.ns[-1] == 600  # endpoint always recorded
    # strided points are the dense run's, bit for bit, the endpoint
    # (600 % 7 != 0) too: both are the stream's partial sums
    dense = dict(zip(tr.ns.tolist(), tr.points.tolist()))
    assert strided.points.tolist() == [dense[n] for n in strided.ns.tolist()]
    assert abs(strided.points[-1] - weyl_sum(GOLDEN, Angle(12), Angle(7), 600)) <= 600 * 2.0**-51


@pytest.mark.parametrize("stride", [1, 5, STRIDE_BLOCKS_FROM - 1])
def test_trajectory_strides_across_blocks_are_exact(stride):
    n = _engine.CHUNK + 1000
    zs = [z for _, blk in _engine.qsum_partials(GOLDEN.numerator, 24, 7, n) for z in blk.tolist()]
    tr = trajectory(GOLDEN, Angle(12), Angle(7), n, stride)
    ns = list(range(0, n + 1, stride))
    if n % stride:
        ns.append(n)
    # below the block route every point, the endpoint too, is the stream's
    # partial sum
    pts = [0j] + [zs[m - 1] for m in ns[1:]]
    assert tr.ns.tolist() == ns
    assert tr.points.tolist() == pts
    assert abs(tr.points[-1] - weyl_sum(GOLDEN, Angle(12), Angle(7), n)) <= n * 2.0**-51
    assert tr.ns.dtype == np.int64 and tr.points.dtype == np.complex128


THIRD = Angle(MODULUS // 3)


@pytest.mark.parametrize(
    "theta, x, n, stride",
    [
        (GOLDEN, Angle(12), _engine.CHUNK + 1000, STRIDE_BLOCKS_FROM),
        (GOLDEN, Angle(12), _engine.CHUNK + 1000, 4096),
        # a multiple of the stride: no tail, the last block ends at n
        (GOLDEN, Angle(12), 1000 * STRIDE_BLOCKS_FROM, STRIDE_BLOCKS_FROM),
        # |a| near 0.58 n, the largest sums the blocks meet
        (THIRD, Angle(0), 300_007, 1000),
        # past 2 floor(sqrt(n)): each block a sum of its own
        (THIRD, Angle(0), 300_007, 3000),
    ],
    ids=["crossover", "4096", "multiple", "third", "past-row"],
)
def test_trajectory_block_route_within_its_bound(theta, x, n, stride):
    tr = trajectory(theta, x, Angle(7), n, stride)
    want = np.append(np.arange(0, n, stride), n)
    assert tr.ns.tolist() == want.tolist()
    assert tr.ns.dtype == np.int64 and tr.points.dtype == np.complex128
    zs, stream_bounds = stream_points(theta.numerator, 2 * x.numerator, 7, n, want)
    bounds = block_bounds(tr.points, n, stride)
    assert tr.points[0] == 0
    assert np.all(np.abs(tr.points - zs) <= bounds + stream_bounds)
    end = weyl_sum(theta, x, Angle(7), n)
    assert abs(tr.points[-1] - end) <= bounds[-1] + weyl_sum_bound(n)


# STRIDE_BLOCKS_FROM - 1: the least stride on the block route is n + 1;
# 39: a stride of 40, well inside it
@pytest.mark.parametrize(
    "n", [0, 1, STRIDE_BLOCKS_FROM - 1, 39, _engine.BLOCKS_FROM - 1, _engine.BLOCKS_FROM + 5]
)
def test_trajectory_shorter_than_its_stride_is_weyl_sum(n):
    # only z_0 and z_n, and z_n is weyl_sum's own sum: below the crossover
    # qsum_blocks is the direct qsum, bit for bit
    stride = max(STRIDE_BLOCKS_FROM, n + 1)
    tr = trajectory(GOLDEN, Angle(12), Angle(7), n, stride)
    assert tr.ns.tolist() == ([0, n] if n else [0])
    assert tr.points.tolist() == [0j, weyl_sum(GOLDEN, Angle(12), Angle(7), n)][: len(tr.ns)]
    # a stride far past n is charged the memory of its n terms
    assert trajectory(GOLDEN, Angle(12), Angle(7), n, 10**30).points.tolist() == tr.points.tolist()
    args = GOLDEN.numerator, 24, 7, n
    if n < _engine.BLOCKS_FROM:
        assert _engine.qsum_blocks(*args) == _engine.qsum(*args)


def test_block_sums_chunks_are_one_evaluator_call():
    # three chunks and part of a fourth: the chunks, with their prefactors
    # at shifted coefficients, give the bits of one evaluator call over
    # every block point times one prefactor row (at this theta, chunks that
    # are not a multiple of the engine's CHUNK blocks would not)
    theta = counter_angle(24, 0, "theta")
    a, b, c, stride = theta.numerator, 24, 7, STRIDE_BLOCKS_FROM
    blocks = 3 * _engine.CHUNK + 77
    sums = np.empty(blocks, dtype=np.complex128)
    _engine.block_sums(a, b, c, stride, sums)
    tops = [(2 * a * stride * q + b) % MODULUS >> 128 for q in range(blocks)]
    rho = np.array([[t >> 64, t & (1 << 64) - 1] for t in tops], dtype=np.uint64)
    row = _engine._terms(a, 0, 0, stride)
    prefactors = _engine._terms(a * stride * stride, b * stride, c, blocks)
    assert sums.tobytes() == (_engine.poly_eval_unit_circle(row, rho) * prefactors).tobytes()
    # a trajectory's block points are the running sums of block_sums
    n = blocks * stride + 13
    tr = trajectory(theta, Angle(12), Angle(7), n, stride)
    assert tr.points[1:-1].tolist() == np.cumsum(sums).tolist()
    tail = _engine.qsum(*_engine.shifted(a, b, c, n - 13), 13)
    assert tr.points[-1] == tr.points[-2] + tail


class _Refused(Exception):
    pass


@pytest.mark.parametrize("n, stride", [(2 * 10**9, 40), (10**12, 1000)])
def test_trajectory_block_route_fits_where_the_stream_fit(monkeypatch, n, stride):
    # the block route holds its points, 32 bytes each as on the stream route,
    # and one chunk of blocks, so a request is charged under 41 bytes per point
    charged = []

    def check(count, bytes_each, what):
        charged.append(count * bytes_each)
        raise _Refused

    monkeypatch.setattr(weylsum, "_check_fits", check)
    with pytest.raises(_Refused):
        trajectory(GOLDEN, Angle(12), Angle(7), n, stride)
    assert charged and charged[0] <= 41 * (n // stride + 2)


@pytest.mark.parametrize("stride", [1, 5])
def test_trajectory_stream_peak_per_point_is_its_charge(monkeypatch, stride):
    # between 10**6 and 3 10**6 terms the stream route's traced peak grows
    # per recorded point by the bytes per point trajectory charges
    charged = []
    check = weylsum._check_fits

    def spy(count, bytes_each, what):
        charged.append(count * bytes_each)
        check(count, bytes_each, what)

    trajectory(GOLDEN, Angle(12), Angle(7), 10, stride)  # the e(phi) tables
    monkeypatch.setattr(weylsum, "_check_fits", spy)
    peaks, points = [], []
    for n in (10**6, 3 * 10**6):
        tracemalloc.start()
        try:
            points.append(trajectory(GOLDEN, Angle(12), Angle(7), n, stride).points.size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    grown = (peaks[1] - peaks[0]) / (points[1] - points[0])
    assert grown == pytest.approx((charged[1] - charged[0]) / (points[1] - points[0]), rel=0.01)


def test_trajectory_blocks_past_the_longest_row_are_sums_of_their_own():
    # past 2 floor(sqrt(n)) each block is weyl_sum's sum at its shifted
    # coefficients, and the points are their running sums
    n, stride = 100_003, 20_000
    tr = trajectory(GOLDEN, Angle(12), Angle(7), n, stride)
    skew = [skew_shift_n(GOLDEN, SkewPoint(Angle(12), Angle(7)), k) for k in range(0, n, stride)]
    sums = [weyl_sum(GOLDEN, p.x, p.y, min(stride, n - k)) for p, k in zip(skew, range(0, n, stride))]
    assert tr.ns.tolist() == [0, 20_000, 40_000, 60_000, 80_000, 100_000, n]
    assert tr.points[1:-1].tolist() == np.cumsum(sums[:-1]).tolist()
    assert tr.points[-1] == tr.points[-2] + sums[-1]


def test_trajectory_golden_band():
    tr = trajectory(GOLDEN, ZERO, ZERO, 10_000, 1)
    ns = tr.ns[1:].astype(float)
    ratios = np.abs(tr.points[1:]) / np.sqrt(ns)
    peak = float(np.max(ratios))
    assert 0.5 <= peak <= 5.0
