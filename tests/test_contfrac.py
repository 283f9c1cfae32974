import math
import random
from fractions import Fraction

import pytest

from weyl_lab.contfrac import (
    Q_CONSTRUCT_BOUND,
    ContinuedFraction,
    angle_from_cf,
    cf_expand,
    construct_f_member,
    convergents,
    f_witness,
    _quotient_power,
)
from weyl_lab.exactangle import (
    GOLDEN,
    Angle,
    angle_from_rational,
    dist_to_int_exact,
    scale_mod1,
)


def test_expand_one_third_terminates():
    cf = cf_expand(angle_from_rational(1, 3), 10)
    assert cf.quotients == (3,)


def test_expand_golden_all_ones():
    cf = cf_expand(GOLDEN, 100)
    assert cf.quotients == (1,) * 100


def test_expand_five_thirteenths():
    # Euclid by hand: 13/5 = 2 r 3; 5/3 = 1 r 2; 3/2 = 1 r 1; 2/1 = 2 r 0
    cf = cf_expand(angle_from_rational(5, 13), 10)
    assert cf.quotients == (2, 1, 1, 2)


def test_expand_rejects_zero():
    with pytest.raises(ValueError):
        cf_expand(Angle(0), 5)


def test_convergents_fibonacci():
    cv = convergents(ContinuedFraction((1, 1, 1, 1, 1)))
    assert [c.q for c in cv] == [1, 2, 3, 5, 8]


def test_convergents_single():
    cv = convergents(ContinuedFraction((2,)))
    assert (cv[0].p, cv[0].q) == (1, 2)


def test_convergents_spec_triple():
    cv = convergents(ContinuedFraction((2, 6, 610)))
    assert [c.q for c in cv] == [2, 13, 7932]
    assert cv[2].q == 610 * 13 + 2


def test_convergents_unimodular():
    rng = random.Random(3)
    for _ in range(50):
        quots = tuple(rng.randrange(1, 30) for _ in range(rng.randrange(1, 12)))
        cv = convergents(ContinuedFraction(quots))
        p_prev, q_prev = 0, 1  # (p_0, q_0)
        for l, c in enumerate(cv, start=1):
            assert c.p * q_prev - p_prev * c.q == (-1) ** (l + 1)
            p_prev, q_prev = c.p, c.q


def test_angle_from_cf_values():
    assert angle_from_cf(ContinuedFraction((2,))).to_float() == 0.5
    assert angle_from_cf(ContinuedFraction((1, 1))).to_float() == 0.5
    last = convergents(ContinuedFraction((2, 6, 610)))[-1]
    assert (last.p, last.q) == (3661, 7932)


def test_roundtrip_canonical_forms():
    rng = random.Random(4)
    for _ in range(60):
        quots = [rng.randrange(1, 50) for _ in range(rng.randrange(1, 9))]
        if quots[-1] == 1:
            quots[-1] = 2  # canonical finite form: last quotient >= 2
        cf = ContinuedFraction(tuple(quots))
        assert cf_expand(angle_from_cf(cf), len(quots)).quotients == cf.quotients


def test_best_approximation_denominator_bounds():
    # 1/(q_{l+1} + q_l) <= ||q_l theta|| <= 1/q_{l+1} in exact arithmetic,
    # with theta from a longer expansion so every tested level has a tail
    full = ContinuedFraction((2, 8, 4913, 31, 2, 9, 3))
    theta = angle_from_cf(full)
    cv = convergents(full)
    for l in range(len(cv) - 2):
        q_l, q_next = cv[l].q, cv[l + 1].q
        dist = dist_to_int_exact(scale_mod1(theta, q_l))
        assert Fraction(1, q_next + q_l) <= dist <= Fraction(1, q_next)


def test_best_approximation_property_along_convergents():
    # ||k theta|| >= ||q_{l-1} theta|| for 1 <= k < q_l (standard form of
    # the best-approximation statement)
    cf = ContinuedFraction((3, 2, 5, 4))
    theta = angle_from_cf(ContinuedFraction((3, 2, 5, 4, 7, 2)))
    cv = convergents(cf)
    for l in range(1, len(cv)):
        q_prev, q_l = cv[l - 1].q, cv[l].q
        best = dist_to_int_exact(scale_mod1(theta, q_prev))
        for k in range(1, q_l):
            assert dist_to_int_exact(scale_mod1(theta, k)) >= best


def test_construct_f_member_reference_values():
    cf, cert = construct_f_member(0.5, 3, (2,))
    assert cf.quotients == (2, 8, 4913)
    assert [c.q for c in convergents(cf)] == [2, 17, 83523]
    w = dict(cert.witnesses)
    assert w[2] == pytest.approx(17 ** 3.5 / 83523, rel=1e-9)
    # the minimum sits at l = 2 (the level-3 witness is at the grid floor)
    assert cert.min_witness == w[2]


def test_construct_f_member_depth4_witness_small():
    cf, cert = construct_f_member(0.5, 4, (2,))
    assert cf.quotients[:3] == (2, 8, 4913)
    w = dict(cert.witnesses)
    assert w[3] < 0.01
    # witnesses strictly decreasing from level 2 onward
    pairs = list(cert.witnesses)
    tail = [v for l, v in pairs if l >= 2]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_construct_f_member_truncates_past_q_bound():
    with pytest.raises(ValueError, match="^construction truncated at depth 4: next q would exceed"):
        construct_f_member(0.5, 6, (2,))


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.5])
def test_construct_f_member_rejects_eps_not_positive_and_finite(eps):
    with pytest.raises(ValueError, match="positive and finite"):
        construct_f_member(eps, 3)


def test_construct_f_member_huge_eps_truncates_before_the_power():
    # the next quotient 2**(2 + 2e10) would have 2e10 bits; the bound
    # check comes before it is formed
    with pytest.raises(ValueError, match="^construction truncated at depth 1: next q would exceed"):
        construct_f_member(1e10, 3)


def _construct_unchecked(eps, levels, seed):
    """The construction rule with only the bound check on q_next: the
    quotients, or the depth at which the next q passes the bound."""
    quotients = list(seed)
    qs = [1] + [c.q for c in convergents(ContinuedFraction(seed))]
    while len(quotients) < levels:
        a = _quotient_power(qs[-1], 2.0 + 2.0 * eps)
        if a * qs[-1] + qs[-2] > Q_CONSTRUCT_BOUND:
            return len(quotients)
        quotients.append(a)
        qs.append(a * qs[-1] + qs[-2])
    return tuple(quotients)


@pytest.mark.parametrize("seed", [(1,), (2,), (3, 5), (40,)])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5, 1.0, 1.7, 4.0])
def test_construct_f_member_early_bound_check_cuts_nothing_that_fits(eps, seed):
    # 12 levels pass the bound for every case here; the deepest that fits
    # is built in full
    depth = _construct_unchecked(eps, 12, seed)
    with pytest.raises(ValueError, match=f"^construction truncated at depth {depth}: "):
        construct_f_member(eps, 12, seed)
    cf, _ = construct_f_member(eps, depth, seed)
    assert cf.quotients == _construct_unchecked(eps, depth, seed)


def test_f_witness_golden_diverges():
    cf = cf_expand(GOLDEN, 40)
    cert = f_witness(cf, 0.5, GOLDEN)
    assert cert.partial_sum == pytest.approx(40.0)
    values = [w for _, w in cert.witnesses]
    assert values[-1] > values[0]  # growing, nothing class-F about it
    assert not cert.finite_expansion


def test_f_witness_rational_flagged():
    theta = angle_from_rational(1, 3)
    cert = f_witness(cf_expand(theta, 5), 0.5, theta)
    assert cert.finite_expansion
    assert cert.witnesses == ()  # the only level sits at the grid floor


def test_f_witness_consistency_error():
    with pytest.raises(ValueError):
        f_witness(ContinuedFraction((2, 8)), 0.5, GOLDEN)


def test_cf_text_format():
    cf = ContinuedFraction.parse("2,8,4913")
    assert cf.quotients == (2, 8, 4913)
    assert str(cf) == "2,8,4913"
