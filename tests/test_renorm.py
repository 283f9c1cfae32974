import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weyl_lab._rng import counter_angle
from weyl_lab.calibration import load_calibration
from weyl_lab.contfrac import angle_from_cf, construct_f_member
from weyl_lab.exactangle import (
    GOLDEN,
    HALF,
    MODULUS,
    Angle,
    angle_from_decimal,
    angle_from_fraction,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
    wrap_add,
)
from weyl_lab.renorm import (
    _x_step,
    b_level_measure,
    fe_residual,
    k_renorm,
    renorm_chain,
    renorm_step,
    u_measure_lower,
)
from weyl_lab.weylsum import dirichlet_b, psi


def test_renorm_step_golden_examples():
    step = renorm_step(GOLDEN, scale_mod1(GOLDEN, 1), 10)
    assert step.k_next == 6  # floor(10 * 0.618...)
    # Gauss fixed point on the grid, up to one grid unit of snapping
    assert abs(step.theta_next.numerator - GOLDEN.numerator) <= 2
    assert step.sigma_factor == pytest.approx(math.sqrt(GOLDEN.to_float()))


def test_renorm_step_rational_terminates():
    half = angle_from_rational(1, 2)
    step = renorm_step(half, Angle(99), 8)
    assert step.k_next == 4
    assert step.theta_next == Angle(0)


def test_renorm_step_rejects_zero():
    with pytest.raises(ValueError):
        renorm_step(Angle(0), Angle(0), 3)


# the 32 bytes of a numerator: uniform over the grid, where st.integers
# would draw almost every value near 0
numerators = st.binary(min_size=32, max_size=32).map(lambda raw: int.from_bytes(raw, "big"))
# dyadic theta = a/2^s too, at which 1/theta can be an exact integer
dyadic = st.builds(lambda a, s: a << (256 - s), st.integers(1, 255), st.integers(8, 256))


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(t=numerators.filter(bool) | dyadic, x=numerators, multiple=st.booleans())
@example(t=GOLDEN.numerator, x=0, multiple=False)
@example(t=1, x=MODULUS - 1, multiple=False)
@example(t=3 << 254, x=3 << 250, multiple=False)
@example(t=1 << 255, x=5, multiple=False)
def test_x_step_matches_the_fraction_oracle(t, x, multiple):
    # {-x/theta} snapped from the exact rational, and a half turn when
    # [1/theta] is odd; multiple makes x a multiple of the numerator t
    if multiple:
        x -= x % t
    theta = Fraction(t, MODULUS)
    want = angle_from_fraction(-Fraction(x, MODULUS) / theta)
    if math.floor(1 / theta) % 2:
        want = wrap_add(want, HALF)
    assert _x_step(t, x) == want.numerator


def test_k_next_bound():
    rng = random.Random(21)
    for _ in range(100):
        theta = Angle(rng.randrange(1, MODULUS))
        k = rng.randrange(1, 10 ** 6)
        assert k_renorm(theta, k) <= k * theta.to_float() + 1


def test_fe_residual_k1_is_sqrt_theta():
    for text in ("0.37", "0.62", "0.055"):
        theta = angle_from_decimal(text)
        r = fe_residual(theta, angle_from_decimal("0.25"), 1)
        assert r == pytest.approx(math.sqrt(theta.to_float()), abs=1e-12)
        assert r <= 1.0


def test_fe_residual_within_calibrated_bound():
    r_max = load_calibration()["fe_residual"]["max_residual"]
    golden_res = fe_residual(GOLDEN, angle_from_decimal("0.25"), 1000)
    assert golden_res <= 1.5 * r_max
    extreme = fe_residual(angle_from_decimal("0.05"), angle_from_decimal("0.77"), 1000)
    assert extreme <= 1.5 * r_max


def test_renorm_step_half_turn_is_exact_reciprocity():
    # theta = q/2^s, q odd, x = 0, k = 2^s: Landsberg-Schaar with pq even
    # gives sqrt(theta) psi(theta, 0, 2^s) = psi({2^s/q}, x', q) exactly,
    # with x' the half turn when [2^s/q] is odd; {-x/theta} = 0 alone misses it
    rng = random.Random(71)
    odd = 0
    for s in range(4, 21):
        k = 1 << s
        theta = angle_from_rational(rng.randrange(1, k, 2), k)
        assert fe_residual(theta, Angle(0), k) <= 2 * k * 2.0**-51
        step = renorm_step(theta, Angle(0), k)
        if (MODULUS // theta.numerator) % 2:
            odd += 1
            plain = psi(step.theta_next, Angle(0), step.k_next)
            assert abs(step.sigma_factor * psi(theta, Angle(0), k) - plain) > 0.5
    assert odd >= 5


def test_renorm_chain_identity_at_depth_zero():
    ch = renorm_chain(GOLDEN, Angle(55), 500, 0)
    assert ch.depth == 0
    assert ch.sigma == 1.0
    assert ch.residuals == (0.0,)
    assert not ch.truncated


def test_renorm_chain_golden_sigma_powers():
    ch = renorm_chain(GOLDEN, Angle(999), 10 ** 4, 5)
    g = GOLDEN.to_float()
    for l, sigma in enumerate(ch.sigmas):
        assert sigma == pytest.approx(g ** (l / 2.0), rel=1e-12)


def test_renorm_chain_log_sigma_two_ways():
    ch = renorm_chain(angle_from_decimal("0.3137"), Angle(123456), 10 ** 4, 6)
    for l in range(ch.depth + 1):
        direct = math.log(ch.sigmas[l])
        summed = 0.5 * sum(math.log(t.to_float()) for t in ch.thetas[:l])
        assert direct == pytest.approx(summed, abs=1e-12)


def test_renorm_chain_k_product_bound():
    ch = renorm_chain(angle_from_decimal("0.7251"), Angle(5), 10 ** 5, 6)
    prod = 1.0
    for l in range(1, ch.depth + 1):
        prod *= ch.thetas[l - 1].to_float()
        assert ch.k_levels[l] <= 10 ** 5 * prod + l


def test_renorm_chain_truncates_on_rational():
    ch = renorm_chain(angle_from_rational(3, 8), Angle(0), 100, 10)
    assert ch.truncated
    assert ch.depth < 10
    assert ch.thetas[-1] == Angle(0) or ch.depth >= 1


def test_renorm_chain_triangle_inequality():
    # cumulative residual at depth m is bounded by the sigma-weighted sum
    # of the single-step residuals along the chain
    for text, k in (("0.3137", 20_000), ("0.6781", 50_000)):
        theta = angle_from_decimal(text)
        x = angle_from_decimal("0.4242")
        m = 4
        ch = renorm_chain(theta, x, k, m)
        for depth in range(1, ch.depth + 1):
            bound = 0.0
            for l in range(depth):
                single = fe_residual(ch.thetas[l], ch.xs[l], ch.k_levels[l]) if ch.k_levels[l] >= 1 else 0.0
                bound += single * (ch.sigmas[depth] / ch.sigmas[l + 1])
            assert ch.residuals[depth] <= bound + 1e-9


def test_renorm_chain_constructed_bounded_residuals():
    from weyl_lab.contfrac import ContinuedFraction, angle_from_cf

    r_max = load_calibration()["fe_residual"]["max_residual"]
    theta = angle_from_cf(ContinuedFraction((2, 8, 4913)))
    ch = renorm_chain(theta, Angle(7777), 10 ** 5, 2)
    weight = sum(2.0 ** (-l / 2.0) for l in range(ch.depth + 1))
    assert all(r <= r_max * weight for r in ch.residuals)


def test_k_renorm_golden():
    assert k_renorm(GOLDEN, 9) == 5
    assert k_renorm(GOLDEN, 10) == 6


def test_level_sets_reject_a_terminating_gauss_chain():
    with pytest.raises(ValueError, match="Gauss chain terminates"):
        u_measure_lower(angle_from_rational(1, 2), 3, 0.1, 100, seed=0)


def test_u_measure_depth_zero():
    est = u_measure_lower(GOLDEN, 0, 0.1, 20_000, seed=3)
    assert abs(est.estimate - 2.0) <= 5.0 * est.std_error


def test_u_measure_golden_positive():
    est = u_measure_lower(GOLDEN, 1, 0.1, 20_000, seed=3)
    # frozen from the seeded oracle run; the parity-corrected map gives
    # mass 4*theta*eta in the eta-window at depth 1
    assert est.estimate >= 1.0
    assert abs(est.estimate - 4.0 * GOLDEN.to_float()) <= 5.0 * est.std_error


def test_u_measure_near_half_window():
    est = u_measure_lower(GOLDEN, 1, 0.49, 20_000, seed=3)
    assert est.estimate == pytest.approx(2.0, abs=0.1)


def test_u_measure_rejects_bad_eta():
    with pytest.raises(ValueError):
        u_measure_lower(GOLDEN, 1, 0.6, 100, seed=0)


def test_b_level_measure_positive():
    est = b_level_measure(GOLDEN, 0, 1.0, 20_000, seed=3)
    assert est.extras["b_length"] == 7
    assert est.estimate >= 0.05
    # and C0 must be positive and finite
    for c0 in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="C0 must be positive and finite"):
            b_level_measure(GOLDEN, 0, c0, 100, seed=3)


def test_b_level_measure_len2_analytic():
    # [2 pi C0]+1 = 2 for C0 = 0.25; |b(x,2)| = 2|cos(pi x)| and the
    # measure of {2|cos(pi x)| >= C0} is 1 - (arccos(-C0/2)-arccos(C0/2))/pi
    c0 = 0.25
    est = b_level_measure(GOLDEN, 0, c0, 40_000, seed=3)
    assert est.extras["b_length"] == 2
    analytic = 1.0 - (math.acos(-c0 / 2) - math.acos(c0 / 2)) / math.pi
    assert abs(est.estimate - analytic) <= 5.0 * est.std_error


def test_b_level_measure_nonincreasing_in_c0():
    vals = [
        b_level_measure(GOLDEN, 1, c0, 10_000, seed=4).estimate
        for c0 in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def _level_set_loop(theta, m, samples, seed, label, hit):
    # the per-sample form: one draw, m renormalized steps and one test per x
    hits = 0
    for i in range(samples):
        t, x = theta, counter_angle(seed, i, label)
        for _ in range(m):
            step = renorm_step(t, x, 1)
            t, x = step.theta_next, step.x_next
        hits += bool(hit(x))
    return hits / samples


@pytest.mark.parametrize("m", [0, 2])
def test_level_set_measures_equal_per_sample_loop(m):
    theta = angle_from_cf(construct_f_member(0.5, 4)[0])
    u = u_measure_lower(theta, m, 0.1, 600, seed=5)
    b = b_level_measure(theta, m, 1.0, 600, seed=5)
    assert u.extras["raw_fraction"] == _level_set_loop(
        theta, m, 600, 5, "umeasure", lambda x: dist_to_int(x) < 0.1
    )
    assert b.estimate == _level_set_loop(
        theta, m, 600, 5, "blevel", lambda x: abs(dirichlet_b(x, 7)) >= 1.0
    )


def test_measure_reports_deterministic():
    a = u_measure_lower(GOLDEN, 1, 0.1, 5000, seed=9)
    b = u_measure_lower(GOLDEN, 1, 0.1, 5000, seed=9)
    assert a == b


def test_chain_lower_bound_through_b():
    # the rescaled sum dominates the geometric sum at the renormalized
    # slot up to the comparison slack C*(k^3 ||theta_m|| + 1): checked on
    # seeded chains whose level angle is small enough for the comparison
    from fractions import Fraction

    from weyl_lab._rng import counter_unit
    from weyl_lab.exactangle import angle_from_fraction, dist_to_int
    from weyl_lab.weylsum import dirichlet_b, psi

    checked = 0
    for i in range(40):
        theta = angle_from_fraction(Fraction(0.05 + 0.9 * counter_unit(31, i, "uuu-t")))
        x = angle_from_fraction(Fraction(counter_unit(31, i, "uuu-x")))
        k = 1000 + int(counter_unit(31, i, "uuu-k") * 50_000)
        for m in (1, 2, 3):
            chain = renorm_chain(theta, x, k, m)
            if chain.depth < m:
                continue
            th_m = chain.thetas[m]
            k_m = chain.k_levels[m]
            if th_m.to_float() > 0.2 or k_m < 1:
                continue
            lhs = chain.sigmas[m] * psi(theta, x, k)
            rhs = abs(dirichlet_b(chain.xs[m], k_m))
            slack = 50.0 * (k_m ** 3 * dist_to_int(th_m) + 1.0)
            assert lhs >= rhs - slack
            checked += 1
    assert checked >= 20


def test_u_measure_constructed_member_stays_positive():
    # the renormalized level sets of the depth-4 construction keep mass
    # comparable to eta at every probed depth (frozen oracle values ~2)
    from weyl_lab.contfrac import angle_from_cf, construct_f_member

    cf, _ = construct_f_member(0.5, 4)
    theta = angle_from_cf(cf)
    for m in (1, 2, 3):
        est = u_measure_lower(theta, m, 0.1, 20_000, seed=3)
        assert est.estimate >= 1.5
