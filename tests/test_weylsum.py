import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from weyl_lab.exactangle import (
    GOLDEN,
    MODULUS,
    Angle,
    angle_from_fraction,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
)
from weyl_lab.weylsum import (
    SkewPoint,
    dirichlet_b,
    dirichlet_b_closed,
    dirichlet_b_moduli,
    dirichlet_b_over_x,
    parseval_estimate,
    psi,
    skew_shift_n,
    trajectory,
    weyl_sum,
    weyl_sum_over_x,
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


def _dyadic_gauss_error(a: int, s: int, c: int) -> float:
    # theta = a/2^s lies on the grid and k^2*theta mod 1 has period 2^s, so
    # a(0, 0, c*2^s) = c*G(a, 2^s) with G(a, 2^s) = (2/a)^s (1 + i^a) 2^(s/2)
    # for odd a (Berndt-Evans-Williams); i^a from a % 4, since float powers
    # of 1j drift past the budget
    jacobi_2a = 1 if a % 8 in (1, 7) else -1
    gauss = jacobi_2a ** s * (1 + (1, 1j, -1, -1j)[a % 4]) * 2.0 ** (s / 2)
    z = weyl_sum(angle_from_rational(a, 1 << s), ZERO, ZERO, c << s)
    return abs(z - c * gauss)


@pytest.mark.parametrize("a", [12345, 699051])
def test_weyl_sum_matches_dyadic_gauss_closed_form_at_large_n(a):
    n = 64 << 20
    assert _dyadic_gauss_error(a, 20, 64) <= n * 2.0 ** -51


@pytest.mark.slow
def test_weyl_sum_matches_dyadic_gauss_closed_form_at_n_2_30():
    # the large-n claim at n = 2^30 ~ 1.07e9 terms (about a minute on 2 cores)
    n = 1024 << 20
    assert _dyadic_gauss_error(12345, 20, 1024) <= n * 2.0 ** -51


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
    want = np.array([dirichlet_b(x, m) for x in xs], dtype=np.complex128)
    assert dirichlet_b_over_x(xs, m).tobytes() == want.tobytes()


def test_dirichlet_moduli_batch():
    rng = random.Random(47)
    x = Angle(rng.randrange(MODULUS))
    ms = np.arange(0, 300)
    batch = dirichlet_b_moduli(x, ms)
    single = np.array([abs(dirichlet_b_closed(x, int(m))) for m in ms])
    assert np.max(np.abs(batch - single)) < 1e-10


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
    assert np.max(np.abs(batch - scalar)) < 1e-9


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
    # strided points agree with the dense run
    dense = {int(n): z for n, z in zip(tr.ns, tr.points)}
    for n, z in zip(strided.ns, strided.points):
        assert abs(dense[int(n)] - z) < 1e-9


def test_trajectory_golden_band():
    tr = trajectory(GOLDEN, ZERO, ZERO, 10_000, 1)
    ns = tr.ns[1:].astype(float)
    ratios = np.abs(tr.points[1:]) / np.sqrt(ns)
    peak = float(np.max(ratios))
    assert 0.5 <= peak <= 5.0
