import math

import numpy as np
import pytest
from box_oracle import box_experiment_loop

from weyl_lab._rng import counter_angle
from weyl_lab.calibration import load_calibration
from weyl_lab.contfrac import angle_from_cf, cf_expand, construct_f_member
from weyl_lab.exactangle import (
    GOLDEN,
    Angle,
    angle_from_decimal,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
)
from weyl_lab.experiments import (
    UnusableLevelError,
    approx_ratio,
    b_density_gap,
    box_experiment,
    density_probe,
    derivative_check,
    find_mn,
    growth_report,
    resume_witness,
    select_qn,
    tail_measure,
)


@pytest.fixture(scope="module")
def constructed():
    cf, cert = construct_f_member(0.5, 4)
    return cf, angle_from_cf(cf), cert


def test_select_qn_retains_17_and_83523(constructed):
    cf, theta, _ = constructed
    sched = select_qn(cf, theta, 0.5)
    assert sched.q_values() == [17, 83523]
    witnesses = [w for _, _, w in sched.levels]
    assert witnesses[0] == pytest.approx(0.2425, abs=5e-4)
    assert witnesses[1] < 0.01


def test_select_qn_golden_empty():
    cf = cf_expand(GOLDEN, 40)
    with pytest.raises(UnusableLevelError):
        select_qn(cf, GOLDEN, 0.5)


def test_select_qn_rational_errors():
    theta = angle_from_rational(1, 3)
    with pytest.raises(UnusableLevelError):
        select_qn(cf_expand(theta, 3), theta, 0.5)


def test_tail_measure_q1_boundary():
    est = tail_measure(GOLDEN, 1, 0.5, 1000, seed=3)
    # |a(x,1)| = 1 and the threshold is exactly 1, so every sample hits
    assert est.estimate == 1.0
    assert est.threshold == 1.0


def test_tail_measure_scheduled_level(constructed):
    _, theta, _ = constructed
    est = tail_measure(theta, 17, 0.5, 20_000, seed=3)
    assert est.bound == pytest.approx(17 ** -0.1)
    assert est.estimate <= est.bound + 5.0 * est.std_error


def test_tail_measure_deep_level(constructed):
    _, theta, _ = constructed
    est = tail_measure(theta, 83523, 0.5, 20_000, seed=3)
    assert est.estimate <= est.bound + 5.0 * est.std_error


def test_tail_measure_monotone_in_threshold(constructed):
    _, theta, _ = constructed
    xs = [counter_angle(3, i, "tailprop") for i in range(2000)]
    from weyl_lab.weylsum import weyl_sum_over_x

    vals = np.abs(weyl_sum_over_x(theta, xs, 17))
    fracs = [float(np.mean(vals >= 17 ** e)) for e in (0.3, 0.5, 0.55, 0.7)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_tail_measure_rejects_small_samples():
    with pytest.raises(ValueError):
        tail_measure(GOLDEN, 17, 0.5, 100, seed=0)


def test_b_density_gap_m_range_two():
    # only m in {0, 1}: value set {0, 1}, so the largest gap is 1
    theta = GOLDEN
    x = angle_from_decimal("0.3")
    gap = b_density_gap(theta, 1, x, eps=0.5)
    assert gap.m_max == 1
    assert gap.largest_gap == 1.0


def test_b_density_gap_degenerate_half():
    # ||2qx|| = 1/2 exactly: |b| alternates 0, 1
    x = angle_from_rational(1, 4)
    gap = b_density_gap(GOLDEN, 1, x, eps=0.5)
    assert gap.degenerate
    assert gap.largest_gap == 1.0


def test_b_density_gap_rejects_zero_window():
    with pytest.raises(ValueError):
        b_density_gap(GOLDEN, 2, angle_from_rational(1, 2), eps=0.5)


def test_b_density_gap_success_rate_calibrated(constructed):
    # seeded draws at the deep level succeed at the calibrated rate
    from fractions import Fraction

    from weyl_lab._rng import counter_unit
    from weyl_lab.exactangle import angle_from_fraction

    _, theta, _ = constructed
    calib = load_calibration()["b_density_gap"]
    q = calib["q"]
    hits = 0
    used = 0
    i = 0
    while used < calib["draws"]:
        x = angle_from_fraction(Fraction(counter_unit(calib["seed"], i, "bgap-x")))
        i += 1
        na = dist_to_int(scale_mod1(x, 2 * q))
        if not 0.1 <= na <= 0.2:
            continue
        used += 1
        gap = b_density_gap(theta, q, x, 0.5)
        if gap.largest_gap <= gap.target_gap:
            hits += 1
    assert hits / used == pytest.approx(calib["success_rate"])


def test_find_mn_target_zero():
    fm = find_mn(GOLDEN, 17, angle_from_decimal("0.37"), target=0.0)
    assert fm.m == 0
    assert fm.product_value == 0.0


def test_find_mn_vanishing_modulus_warns():
    from weyl_lab.experiments import _find_mn_from_modulus

    fm = _find_mn_from_modulus(0.0, angle_from_decimal("0.37"), 17, 0.5, target=0.5)
    assert fm.m == 0
    assert fm.product_value == 0.0
    assert fm.status == "warning"


def test_witness_torsion_degenerate_zero():
    # 2Mx and M^2 theta both integers: the (iii) quantity vanishes exactly
    from weyl_lab.exactangle import wrap_add

    theta = angle_from_rational(1, 4)
    x = angle_from_rational(1, 4)
    big_m = 2
    value = dist_to_int(
        wrap_add(scale_mod1(theta, big_m * big_m), scale_mod1(x, 2 * big_m))
    )
    assert value == 0.0


def test_find_mn_warning_when_unreachable(constructed):
    # q = 17 gives only m <= 6 values; most x cannot reach 1/2 closely
    _, theta, _ = constructed
    fm = find_mn(theta, 17, angle_from_decimal("0.123456"))
    assert fm.status in ("ok", "warning")
    assert 0 <= fm.m <= math.ceil(17 ** 0.625)


def test_find_mn_deep_level_hits_half(constructed):
    _, theta, _ = constructed
    w = resume_witness(theta, constructed[0], x_candidates=256, seed=7)
    assert abs(w.product_value - 0.5) <= 0.05


def test_approx_ratio_m1_is_zero(constructed):
    _, theta, _ = constructed
    assert approx_ratio(theta, 100, 1, angle_from_decimal("0.3")) == 0.0


def test_approx_ratio_l1_bounded():
    calib = load_calibration()["approx_ratio"]
    r = approx_ratio(GOLDEN, 1, 17, angle_from_decimal("0.29"))
    assert r <= 1.5 * calib["max_ratio"]


def test_approx_ratio_degenerate_raises():
    # theta dyadic: l can be chosen so that ||l theta|| = 0 exactly
    with pytest.raises(ValueError):
        approx_ratio(angle_from_rational(1, 4), 4, 3, angle_from_decimal("0.3"))


def test_derivative_check_m0_and_q1():
    x = angle_from_decimal("0.55")  # ||2x|| = 0.1 in [delta/4, 2 delta]
    assert derivative_check(GOLDEN, 1, 0, x) == 0.0
    r = derivative_check(GOLDEN, 1, 1, x)
    assert r == pytest.approx(0.0, abs=1e-6)  # |a(x,1) b(2x,1)| = 1 constant


def test_derivative_check_level_17(constructed):
    _, theta, _ = constructed
    q = 17
    found = 0
    for i in range(200):
        x = counter_angle(5, i, "deriv-x")
        na = dist_to_int(scale_mod1(x, 2 * q))
        if not 0.05 <= na <= 0.4:
            continue
        for m in (1, 2, 5):
            assert derivative_check(theta, q, m, x) <= 1.1
        found += 1
        if found >= 10:
            break
    assert found >= 10


def test_derivative_check_rejects_bad_window():
    with pytest.raises(ValueError):
        derivative_check(GOLDEN, 17, 1, Angle(0))


def test_resume_witness_full_run(constructed):
    cf, theta, _ = constructed
    w = resume_witness(theta, cf, x_candidates=256, seed=7)
    assert w.q == 83523
    assert w.m_n <= math.ceil(83523 ** 0.625)
    assert w.M_n == w.m_n * w.q
    assert abs(w.product_value - 0.5) <= 0.05
    assert w.eps_n <= 0.1
    # (i) exact bound: q^-2.875 at eps = 0.5
    assert w.bound_i == pytest.approx(83523 ** -2.875)
    assert w.check_i and w.value_i <= w.bound_i
    # (iii) is covered by the measured eps_n
    assert w.check_iii and w.value_iii <= w.eps_n
    assert len(w.grid_deviations) == 33
    assert w.value_ii == max(w.grid_deviations)


def test_resume_witness_unusable_when_no_candidates(constructed):
    cf, theta, _ = constructed
    with pytest.raises(UnusableLevelError):
        resume_witness(theta, cf, x_candidates=1, seed=7)


def test_box_identity_map_trivial(constructed):
    # M_n = 0 keeps every point in place: nothing leaves the box
    cf, theta, _ = constructed
    w = resume_witness(theta, cf, x_candidates=256, seed=7)
    from dataclasses import replace

    frozen = replace(w, m_n=0, M_n=0)
    box = box_experiment(theta, frozen, samples=2000, seed=1)
    assert box.symdiff_ratio == 0.0


def test_box_full_torus_invariant(constructed):
    cf, theta, _ = constructed
    w = resume_witness(theta, cf, x_candidates=256, seed=7)
    from dataclasses import replace

    wide = replace(w, r_n=0.5)  # x-interval covers the whole circle
    box = box_experiment(theta, wide, j_interval=(0.0, 1.0), samples=2000, seed=1)
    assert box.symdiff_ratio == 0.0


@pytest.fixture(scope="module")
def deep_witness(constructed):
    cf, theta, _ = constructed
    return resume_witness(theta, cf, x_candidates=256, seed=7)


@pytest.mark.parametrize(
    "shape, j_interval",
    [("narrow", (0.25, 0.75)), ("wide-r", (0.25, 0.75)), ("full-circle", (0.0, 1.0)),
     ("narrow", (0.1, 0.35))],
)
def test_box_experiment_equals_per_sample_loop(constructed, deep_witness, shape, j_interval):
    # the array form takes the same draws and makes the same exact box test
    # as the per-sample Fraction loop it replaced
    from dataclasses import replace

    _, theta, _ = constructed
    w = deep_witness if shape == "narrow" else replace(deep_witness, r_n=0.5)
    kwargs = {"j_interval": j_interval, "samples": 3000, "seed": 1}
    box = box_experiment(theta, w, **kwargs)
    assert box == box_experiment_loop(theta, w, **kwargs)
    assert 0.0 < box.left_fraction < 1.0 or shape == "full-circle"


def test_box_experiment_deep_level(constructed):
    cf, theta, _ = constructed
    w = resume_witness(theta, cf, x_candidates=256, seed=7)
    box = box_experiment(theta, w, samples=20_000, seed=7)
    assert box.symdiff_ratio <= 0.1
    assert box.modulus_fraction >= 0.9
    assert box.taylor_tail < 1e-12


def test_symdiff_decreases_across_levels(constructed):
    # the shallow level cannot modulate finely (m <= 6), so its box leaks
    # visibly; the deep level's leak is two orders smaller
    cf, theta, _ = constructed
    deep = resume_witness(theta, cf, x_candidates=256, seed=7)
    shallow = resume_witness(
        theta, cf, x_candidates=512, seed=7, level=2, u_min=2.0, product_tol=0.45
    )
    box_shallow = box_experiment(theta, shallow, samples=20_000, seed=7)
    box_deep = box_experiment(theta, deep, samples=20_000, seed=7)
    assert box_deep.symdiff_ratio < box_shallow.symdiff_ratio


def test_density_degenerate_line():
    rep = density_probe(Angle(0), Angle(0), 2000, 2.0, 0.25)
    # the sums march along the real axis: a single row of cells
    assert 0.0 < rep.covered_fraction < 0.2
    for ix, iy, _ in rep.first_hits:
        assert iy == 0


def test_density_origin_cell_always_covered():
    rep = density_probe(GOLDEN, angle_from_decimal("0.3"), 1, 2.0, 0.25)
    assert rep.covered_fraction > 0.0
    assert rep.n_visited == 1


def test_density_first_hits_consistent(constructed):
    _, theta, _ = constructed
    x = counter_angle(7, 0, "density")
    rep = density_probe(theta, x, 50_000, 2.0, 0.25)
    assert rep.n_visited == len(rep.first_hits)
    assert all(1 <= n <= 50_000 for _, _, n in rep.first_hits)
    assert rep.covered_fraction == rep.n_visited / rep.n_disk_cells


def test_growth_theta_zero_control():
    rep = growth_report(Angle(0), [100, 1000], 32)
    assert all(v == 1.0 for v in rep.sup_ratio_linear)
    assert not rep.bounded_quotients


def test_growth_golden_shape():
    rep = growth_report(GOLDEN, [100, 1000, 10_000], 128)
    assert rep.bounded_quotients
    assert all(a > b for a, b in zip(rep.sup_ratio_linear, rep.sup_ratio_linear[1:]))
    assert max(rep.a0_peak_ratio) >= 0.5
    assert all(v <= 5.0 for v in rep.sup_ratio_sqrt)


def test_growth_rejects_bad_schedule():
    with pytest.raises(ValueError):
        growth_report(GOLDEN, [100, 100], 16)
    with pytest.raises(ValueError):
        growth_report(GOLDEN, [], 16)
    with pytest.raises(ValueError):
        growth_report(GOLDEN, [100, 1000], 0)
