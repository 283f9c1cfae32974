import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from box_oracle import box_experiment_loop

from weyl_lab import _engine, experiments
from weyl_lab._rng import counter_angle
from weyl_lab.calibration import load_calibration
from weyl_lab.contfrac import angle_from_cf, cf_expand, construct_f_member
from weyl_lab.exactangle import (
    GOLDEN,
    MODULUS,
    Angle,
    angle_from_decimal,
    angle_from_float,
    angle_from_rational,
    dist_to_int,
    scale_mod1,
)
from weyl_lab.experiments import (
    BOX_SAMPLE_BYTES,
    UnusableLevelError,
    approx_ratio,
    box_experiment,
    REFERENCE_THETA,
    density_probe,
    growth_report,
    modulus_on_interval,
    resume_witness,
    select_qn,
)
from weyl_lab.weylsum import weyl_sum, weyl_sums


@pytest.fixture(scope="module")
def constructed():
    cf, cert = construct_f_member(0.5, 4)
    return cf, angle_from_cf(cf), cert


# the deepest-level witness at seed 7; built once, it serves every test
# that measures it
@pytest.fixture(scope="module")
def deep_witness(constructed):
    cf, theta, _ = constructed
    return resume_witness(theta, cf, x_candidates=256, seed=7)


def test_select_qn_retains_17_and_83523(constructed):
    cf, theta, _ = constructed
    sched = select_qn(cf, theta, 0.5)
    assert [q for _, q, _ in sched.levels] == [17, 83523]
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


def test_modulus_tail_monotone_in_threshold(constructed):
    _, theta, _ = constructed
    xs = [counter_angle(3, i, "tailprop") for i in range(2000)]
    from weyl_lab.weylsum import weyl_sum_over_x

    vals = np.abs(weyl_sum_over_x(theta, xs, 17))
    fracs = [float(np.mean(vals >= 17 ** e)) for e in (0.3, 0.5, 0.55, 0.7)]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_find_mn_from_vanishing_modulus_picks_m0():
    from weyl_lab.experiments import _find_mn_from_modulus, modulation_cap

    fm = _find_mn_from_modulus(0.0, angle_from_decimal("0.37"), 17, 0.5)
    assert fm.m == 0
    assert fm.product_value == 0.0
    # at q = 1 the search runs over m in {0, 1} only
    assert modulation_cap(1, 0.5) == 1


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


def test_deep_witness_product_hits_half(deep_witness):
    assert abs(deep_witness.product_value - 0.5) <= 0.05


def _approx_ratio(theta, l, m, x):
    # the ratio with a(x, l) and a(x, ml) from one weyl_sums call, as a sweep
    # passes them
    return approx_ratio(theta, l, m, x, weyl_sums([(theta, x, l), (theta, x, m * l)]).tolist())


def test_approx_ratio_m1_is_zero(constructed):
    _, theta, _ = constructed
    assert _approx_ratio(theta, 100, 1, angle_from_decimal("0.3")) == 0.0


def test_approx_ratio_l1_bounded():
    calib = load_calibration()["approx_ratio"]
    r = _approx_ratio(GOLDEN, 1, 17, angle_from_decimal("0.29"))
    assert r <= 1.5 * calib["max_ratio"]


def test_approx_ratio_degenerate_raises():
    # theta dyadic: l can be chosen so that ||l theta|| = 0 exactly
    with pytest.raises(ValueError):
        _approx_ratio(angle_from_rational(1, 4), 4, 3, angle_from_decimal("0.3"))


def test_resume_witness_full_run(deep_witness):
    w = deep_witness
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


def test_box_identity_map_trivial(constructed, deep_witness):
    # M_n = 0 keeps every point in place: nothing leaves the box
    _, theta, _ = constructed
    from dataclasses import replace

    frozen = replace(deep_witness, m_n=0, M_n=0)
    box = box_experiment(theta, frozen, samples=2000, seed=1)
    assert box.symdiff_ratio == 0.0


def test_box_full_torus_invariant(constructed, deep_witness):
    _, theta, _ = constructed
    from dataclasses import replace

    wide = replace(deep_witness, r_n=0.5)  # x-interval covers the whole circle
    box = box_experiment(theta, wide, j_interval=(0.0, 1.0), samples=2000, seed=1)
    assert box.symdiff_ratio == 0.0


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


def test_box_blocks_give_the_report_of_one_block(monkeypatch, constructed, deep_witness):
    # the exact test and the Taylor moduli take each sample on its own, so
    # blocks of 7 samples give the report and the moduli of one block; at
    # r = 1e-9 the moduli spread over [0.0003, 2.6]
    from dataclasses import replace

    _, theta, _ = constructed
    w = replace(deep_witness, r_n=1e-9)
    kwargs = {"nu": 0.3, "samples": 3000, "seed": 1}
    offsets = np.linspace(-w.r_n, w.r_n, 3000)
    box = box_experiment(theta, w, **kwargs)
    mods, tail = modulus_on_interval(theta, w.x, w.M_n, offsets)
    assert 0.0 < box.modulus_fraction < 1.0
    monkeypatch.setattr(experiments, "SAMPLE_BLOCK", 7)
    assert box_experiment(theta, w, **kwargs) == box
    blocked, blocked_tail = modulus_on_interval(theta, w.x, w.M_n, offsets)
    assert blocked.tolist() == mods.tolist() and blocked_tail == tail


def test_box_peak_per_sample_is_its_charge(monkeypatch, constructed, deep_witness):
    # between 10**4 and 3 10**4 samples the box's traced peak grows per
    # sample by the bytes check_box_args charges: with blocks of 256
    # samples and a short M the draws hold the peak, not a block or the
    # moments
    from dataclasses import replace

    _, theta, _ = constructed
    w = replace(deep_witness, M_n=1000)
    monkeypatch.setattr(experiments, "SAMPLE_BLOCK", 256)
    box_experiment(theta, w, samples=10, seed=1)
    peaks = []
    for samples in (10**4, 3 * 10**4):
        tracemalloc.start()
        try:
            box_experiment(theta, w, samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    grown = (peaks[1] - peaks[0]) / (2 * 10**4)
    assert BOX_SAMPLE_BYTES - 2 < grown <= BOX_SAMPLE_BYTES


def _near(value, steps=3):
    # the double nearest a rational and its neighbours within `steps`
    # nextafter steps on either side
    t = float(value)
    out = [t]
    for toward in (-math.inf, math.inf):
        u = t
        for _ in range(steps):
            u = math.nextafter(u, toward)
            out.append(u)
    return out


_R = st.one_of(
    st.sampled_from([0.5, 1e-3, 1e-9, 1e-70, 2.0**-204, 2.0**-230]),
    st.floats(2.0**-250, 0.5),
)
_LEN = st.one_of(
    st.sampled_from([MODULUS, MODULUS // 2, 1]), st.integers(1, MODULUS)
)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
# offsets below 2**-204 snap to the grid, which 2M turns into an error of
# |2M| 2**-257 in y
@example(r=2.0**-230, len_num=MODULUS // 2, big_m=2**250 + 12345, x_edge=0,
         shift_y=MODULUS // 3, units=[(0.3, 0.6), (-0.7, 0.1)])
@given(
    r=_R,
    len_num=_LEN,
    big_m=st.one_of(st.just(0), st.integers(1, 10**7), st.integers(0, 2**1100)),
    # shift_x as a multiple of r, so that the x-edges fall inside [-r, r],
    # or anywhere
    x_edge=st.one_of(st.tuples(st.floats(-2.0, 2.0), st.integers(-(2**20), 2**20)),
                     st.integers(0, MODULUS - 1)),
    shift_y=st.integers(0, MODULUS - 1),
    units=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0, exclude_max=True)),
                   min_size=1, max_size=4),
)
def test_box_pre_pass_counts_as_the_exact_test(r, len_num, big_m, x_edge, shift_y, units):
    # offsets and y-draws on the float pre-pass's thresholds and a few
    # nextafter steps from them: the x-edges ||u + shift_x|| = r, the
    # y-edges v = 0 and v = len in y_off at each offset, and in off at each
    # y_off; the count equals the exact per-sample test's.  M past 2**1024
    # would overflow a double, unless reduced mod 2**256 first
    r_num = angle_from_float(r).numerator
    if isinstance(x_edge, tuple):
        # jittered at about r 2**-60 per step, below and at a double's ulp
        shift_x = (round(Fraction(x_edge[0]) * r_num) + x_edge[1] * ((r_num >> 60) + 1)) % MODULUS
    else:
        shift_x = x_edge
    box = (shift_x, shift_y, big_m, r_num, len_num)
    sx = (shift_x + MODULUS // 2) % MODULUS - MODULUS // 2
    offs = [a * r for a, _ in units]
    for sign in (1, -1):
        for j in (-1, 0, 1):
            # off snaps to the grid point u = round(off 2**256): the x-edge
            # in off lies at a half grid step from the edge in u
            edge = 2 * (sign * r_num - sx + j * MODULUS)
            for h in (-1, 0, 1):
                offs += _near(Fraction(edge + h, 2 * MODULUS))
    offs = [o for o in offs if abs(o) <= r]
    ys = [b * float(len_num) for _, b in units]
    samples = [(o, y) for o in offs for y in ys]
    for o in offs:
        u = angle_from_float(o).numerator
        for target in (0, len_num):
            samples += [(o, y) for y in _near((target - shift_y + 2 * big_m * u) % MODULUS) if y >= 0]
    for y in ys:
        for target in (0, len_num):
            if big_m == 0:
                continue
            # 2M U = int(y_off) + shift_y - target mod 1, near each drawn offset
            c = int(y) + shift_y - target
            for a, _ in units:
                j = round(2 * big_m * Fraction(a) * Fraction(r) - Fraction(c, MODULUS))
                edge = Fraction(c + j * MODULUS, 2 * big_m * MODULUS)
                samples += [(o, y) for o in _near(edge) if abs(o) <= r]
    offsets = np.array([o for o, _ in samples])
    y_offsets = np.array([y for _, y in samples])
    exact = sum(experiments._box_left_exact(o, y, *box) for o, y in samples)
    assert experiments._box_left(offsets, y_offsets, *box) == exact


def test_box_with_every_sample_exact_gives_the_same_report(monkeypatch, constructed, deep_witness):
    # a margin of 1 covers every gap, so each sample takes the exact test
    from dataclasses import replace

    _, theta, _ = constructed
    exact_calls = []
    exact = experiments._box_left_exact

    def counted(*args):
        exact_calls.append(args)
        return exact(*args)

    for w, j_interval in ((deep_witness, (0.25, 0.75)), (replace(deep_witness, r_n=0.5), (0.0, 1.0))):
        kwargs = {"j_interval": j_interval, "samples": 3000, "seed": 2}
        box = box_experiment(theta, w, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_BOX_MARGIN", 1.0)
            patch.setattr(experiments, "_box_left_exact", counted)
            assert box_experiment(theta, w, **kwargs) == box
    assert len(exact_calls) == 6000


def test_box_experiment_deep_level(constructed, deep_witness):
    _, theta, _ = constructed
    box = box_experiment(theta, deep_witness, samples=20_000, seed=7)
    assert box.symdiff_ratio <= 0.1
    assert box.modulus_fraction >= 0.9
    assert box.taylor_tail < 1e-12


def test_symdiff_decreases_across_levels(constructed, deep_witness):
    # the shallow level cannot modulate finely (m <= 6), so its box leaks
    # visibly; the deep level's leak is two orders smaller.  Fewer than
    # 8192 candidates find no level-2 witness at the default gates.
    cf, theta, _ = constructed
    shallow = resume_witness(theta, cf, x_candidates=8192, seed=7, level=2)
    box_shallow = box_experiment(theta, shallow, samples=20_000, seed=7)
    box_deep = box_experiment(theta, deep_witness, samples=20_000, seed=7)
    assert box_deep.symdiff_ratio < box_shallow.symdiff_ratio


def test_modulus_on_interval_of_the_empty_sum_is_zero():
    offsets = np.linspace(-1e-6, 1e-6, 5)
    mods, tail = modulus_on_interval(GOLDEN, angle_from_decimal("0.3"), 0, offsets)
    assert mods.tolist() == [0.0] * 5 and tail == 0.0


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


@pytest.mark.parametrize(
    "radius, cell",
    [(math.inf, 0.25), (math.nan, 0.25), (2.0, math.inf), (2.0, 10.0)],
    ids=["inf-radius", "nan-radius", "inf-cell", "no-cell-in-disk"],
)
def test_density_rejects_grid_without_disk_cells(radius, cell):
    with pytest.raises(ValueError):
        density_probe(GOLDEN, Angle(0), 10, radius, cell)


def test_density_first_hits_consistent(constructed):
    _, theta, _ = constructed
    x = counter_angle(7, 0, "density")
    rep = density_probe(theta, x, 50_000, 2.0, 0.25)
    assert rep.n_visited == len(rep.first_hits)
    assert all(1 <= n <= 50_000 for _, _, n in rep.first_hits)
    assert rep.covered_fraction == rep.n_visited / rep.n_disk_cells


def _density_scan(theta, x, n, radius, cell):
    # first hits read off the engine's partial sums one point at a time
    first = {}
    zs = [z for _, blk in _engine.qsum_partials(theta.numerator, x.numerator, 0, n) for z in blk.tolist()]
    for m, z in enumerate(zs, start=1):
        ix, iy = math.floor(z.real / cell), math.floor(z.imag / cell)
        if ((ix + 0.5) * cell) ** 2 + ((iy + 0.5) * cell) ** 2 <= radius * radius:
            first.setdefault((ix, iy), m)
    reach = math.ceil(radius / cell) + 1
    n_disk = sum(
        ((ix + 0.5) * cell) ** 2 + ((iy + 0.5) * cell) ** 2 <= radius * radius
        for ix in range(-reach, reach + 1)
        for iy in range(-reach, reach + 1)
    )
    return tuple(sorted((ix, iy, m) for (ix, iy), m in first.items())), n_disk


_SCAN_N = _engine.CHUNK + 1000
# disks whose radius is a whole number of cells, in dyadic and non-dyadic
# cells: their outer cells touch the square the recorder keeps most closely
_DISK_SHAPES = [(2.0, 0.25), (0.75, 0.25), (1.0, 0.1), (3.0, 0.3), (256.0, 8.0)]


@pytest.mark.parametrize(
    "theta, x, n, radius, cell",
    [
        (Angle(0), counter_angle(7, 0, "density"), _SCAN_N, 2.0, 0.25),
        (GOLDEN, angle_from_decimal("0.3"), _SCAN_N, 2.0, 0.25),
        (counter_angle(11, 0, "scan-theta"), counter_angle(11, 0, "scan-x"), _SCAN_N, 2.0, 0.25),
        (GOLDEN, angle_from_decimal("0.3"), _SCAN_N, 0.5, 0.125),
        (GOLDEN, angle_from_decimal("0.3"), _SCAN_N, 256.0, 8.0),
        (GOLDEN, angle_from_decimal("0.3"), 0, 2.0, 0.25),
    ]
    + [(Angle(0), counter_angle(7, 0, "density"), _SCAN_N, *shape) for shape in _DISK_SHAPES[1:]]
    + [(GOLDEN, angle_from_decimal("0.3"), _SCAN_N, *shape) for shape in _DISK_SHAPES[1:4]],
    ids=["theta-zero", "golden", "random", "small-disk", "second-block", "empty"]
    + [f"theta-zero-{r}-{c}" for r, c in _DISK_SHAPES[1:]]
    + [f"golden-{r}-{c}" for r, c in _DISK_SHAPES[1:4]],
)
def test_density_first_hits_match_a_scan(theta, x, n, radius, cell):
    hits, n_disk = _density_scan(theta, x, n, radius, cell)
    rep = density_probe(theta, x, n, radius, cell)
    assert rep.first_hits == hits
    assert rep.n_disk_cells == n_disk
    assert rep.n_visited == len(hits)
    assert rep.covered_fraction == len(hits) / n_disk
    if radius == 256.0 and theta == GOLDEN:
        # the walk reaches new cells after the first block
        assert any(m > _engine.CHUNK for _, _, m in hits)


@pytest.mark.parametrize("radius, cell", _DISK_SHAPES)
def test_density_square_holds_the_disk_and_indexes_the_table(radius, cell):
    # every corner of every disk cell lies strictly inside the square the
    # recorder keeps; a point one ulp inside each of its corners is recorded
    # in its own cell of the table, and a point on each corner is dropped
    with mock.patch.object(experiments, "_first_hits", wraps=experiments._first_hits) as recorder:
        density_probe(GOLDEN, Angle(0), 1, radius, cell)
    _, _, span, _, in_disk = recorder.call_args.args
    edge = (span - 1) * cell
    for i in np.nonzero(in_disk):
        corners = np.concatenate([(i - span) * cell, (i - span + 1) * cell])
        assert np.all(np.abs(corners) < edge)
    z = np.array([complex(sx * at, sy * at) for at in (np.nextafter(edge, 0), edge) for sx in (-1, 1) for sy in (-1, 1)])
    width = 2 * span + 1
    first = experiments._first_hits([(0, z)], z.size, span, cell, np.ones((width, width), dtype=bool))
    cells = [(math.floor(w.real / cell) + span, math.floor(w.imag / cell) + span, n) for n, w in enumerate(z[:4], 1)]
    assert [(ix, iy, first[ix, iy]) for ix, iy, _ in cells] == cells
    assert np.sum(first <= z.size) == 4


def _stream_first_hits(theta, x, n, radius, cell):
    # the report's first hits and disk size from the direct stream: every
    # partial sum of qsum_partials walked to n, theta = 0 too, with no
    # pruning and no early exit
    span = math.ceil(radius / cell) + 2
    width = 2 * span + 1
    centre = (np.arange(-span, span + 1) + 0.5) * cell
    in_disk = (centre[:, None] * centre[:, None] + centre[None, :] * centre[None, :]) <= radius * radius
    first = np.zeros((width, width), dtype=np.int64)
    for k0, z in _engine.qsum_partials(theta.numerator, x.numerator, 0, n):
        ix = np.floor(z.real / cell).astype(np.int64) + span
        iy = np.floor(z.imag / cell).astype(np.int64) + span
        on = np.flatnonzero((ix >= 0) & (ix < width) & (iy >= 0) & (iy < width))
        on = on[in_disk[ix[on], iy[on]]]
        flat, at = np.unique(ix[on] * width + iy[on], return_index=True)
        new = first.flat[flat] == 0
        first.flat[flat[new]] = k0 + 1 + on[at[new]]
    ix, iy = np.nonzero(first)
    return set(zip((ix - span).tolist(), (iy - span).tolist(), first[ix, iy].tolist())), int(np.sum(in_disk))


def _assert_same_hits(pruned, tol):
    # the pruned walk's report is the stream's, but for cells whose first
    # hit, in either, is a stream point within tol of a cell edge
    theta, x, cell = pruned.theta, pruned.x, pruned.cell
    hits, n_disk = _stream_first_hits(theta, x, pruned.N, pruned.radius, cell)
    assert pruned.n_disk_cells == n_disk
    for ix, iy, m in set(pruned.first_hits) ^ hits:
        k0, z = next((k0, z) for k0, z in _engine.qsum_partials(theta.numerator, x.numerator, 0, m) if k0 + z.size >= m)
        edge = np.array([z[m - 1 - k0].real, z[m - 1 - k0].imag]) / cell
        assert np.min(np.abs(edge - np.round(edge))) * cell <= tol, (ix, iy, m)


_ANGLE = st.builds(Angle, st.integers(0, MODULUS - 1))


@settings(max_examples=10, deadline=None)
@given(theta=_ANGLE, x=_ANGLE, n=st.integers(0, 2 * 10**6), shape=st.sampled_from([(2.0, 0.25), (0.5, 0.125)]))
# below one block, not a multiple of the block, theta = 0, and a disk
# wider than a block, past every partial sum at random theta; the last
# disk cell first hit at n = 176,814, inside a walked run of 8448 terms
# from 172,544; a coverage that stays below 0.3, so the walk reaches n;
# and a disk with 415 first hits after the walk's first CHUNK of terms
@example(theta=GOLDEN, x=Angle(12), n=_engine.NEAR_SIZE - 1, shape=(2.0, 0.25))
@example(theta=GOLDEN, x=angle_from_decimal("0.3"), n=300 * _engine.NEAR_SIZE + 77, shape=(2.0, 0.25))
@example(theta=Angle(0), x=counter_angle(7, 0, "density"), n=10**6 + 3, shape=(2.0, 0.25))
@example(theta=counter_angle(11, 0, "scan-theta"), x=Angle(12), n=2 * 10**6, shape=(4096.0, 64.0))
@example(theta=REFERENCE_THETA, x=counter_angle(7, 0, "density"), n=2 * 10**6, shape=(2.0, 0.25))
@example(theta=REFERENCE_THETA, x=counter_angle(40, 0, "density"), n=10**6, shape=(2.0, 0.25))
@example(theta=REFERENCE_THETA, x=counter_angle(2, 0, "density"), n=2 * 10**6, shape=(2.0, 0.25))
@example(theta=GOLDEN, x=angle_from_decimal("0.3"), n=10**6, shape=(256.0, 8.0))
def test_density_pruned_first_hits_are_the_streams(theta, x, n, shape):
    _assert_same_hits(density_probe(theta, x, n, *shape), 1e-9)


@pytest.mark.slow
def test_density_pruned_first_hits_at_1e9_terms():
    # E9's reference walk at 10**9 terms; within a start's a-priori error,
    # about 3.25 n 2**-51, of a cell edge a first hit may differ
    n, x = 10**9, counter_angle(7, 0, "density")
    t = time.perf_counter()
    pruned = density_probe(REFERENCE_THETA, x, n)
    took = time.perf_counter() - t
    print(f"pruned density at n = 1e9: {took:.1f} s")
    _assert_same_hits(pruned, 8 * n * 2.0**-51)


def test_density_walk_stops_at_the_last_first_hit():
    # E9's reference x covers the disk at n = 9,739,895: a walk of 10**9
    # terms yields no more than that and the rest of its run, and reports
    # the first hits of 10**7 terms
    pruned, walked = _engine.near_partials, []

    def counted(*args):
        for k0, z in pruned(*args):
            walked.append(z.size)
            yield k0, z

    x = counter_angle(7, 0, "density")
    with mock.patch.object(_engine, "near_partials", counted):
        rep = density_probe(REFERENCE_THETA, x, 10**9)
    assert sum(walked) <= 9_739_895 + _engine.NEAR_SIZE * _engine.NEAR_CHUNK
    assert rep.covered_fraction == 1.0
    assert rep.first_hits == density_probe(REFERENCE_THETA, x, 10**7).first_hits


_SEED_X = st.builds(lambda seed: counter_angle(seed, 0, "density"), st.integers(1, 100))


@settings(max_examples=10, deadline=None)
@given(x=st.one_of(_ANGLE, _SEED_X), n=st.integers(0, 2 * 10**6), shape=st.sampled_from([(2.0, 0.25), (0.5, 0.125)]))
# x = 1/2, 1/4 and 1/3, whose partial sums meet cell edges and corners;
# x = 2**-20, a circle of radius about 1.7e5 crossing the disk twice; and
# the walks of no term, one and two
@example(x=Angle(MODULUS // 2), n=10**4, shape=(2.0, 0.25))
@example(x=Angle(MODULUS // 4), n=10**4, shape=(2.0, 0.25))
@example(x=Angle(MODULUS // 4), n=10**4, shape=(0.5, 0.125))
@example(x=angle_from_rational(1, 3), n=10**4, shape=(2.0, 0.25))
@example(x=Angle(MODULUS >> 20), n=2 * 10**6, shape=(2.0, 0.25))
@example(x=counter_angle(7, 0, "density"), n=0, shape=(2.0, 0.25))
@example(x=counter_angle(7, 0, "density"), n=1, shape=(2.0, 0.25))
@example(x=counter_angle(7, 0, "density"), n=2, shape=(0.5, 0.125))
def test_density_control_first_hits_are_the_streams(x, n, shape):
    _assert_same_hits(density_probe(Angle(0), x, n, *shape), 1e-9)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 21))
def test_density_control_at_e9s_x_is_the_streams(seed):
    # E9's control at its 10**7 terms, against the stream walked in full
    n = 10**7
    _assert_same_hits(density_probe(Angle(0), counter_angle(seed, 0, "density"), n), 8 * n * 2.0**-51)


def test_density_control_takes_no_walk():
    x = counter_angle(7, 0, "density")
    t = time.perf_counter()
    rep = density_probe(Angle(0), x, 10**12)
    assert time.perf_counter() - t < 0.5
    assert rep.covered_fraction < 0.2


def test_first_entry_is_the_least_k_of_a_scan():
    # every a and every lo <= hi at each modulus up to 64, gcd(a, m) > 1 and
    # the intervals no multiple reaches included
    for m in range(1, 65):
        for a in range(m):
            least = {}
            for k in range(m):
                least.setdefault(a * k % m, k)
            for lo in range(m):
                want = None
                for hi in range(lo, m):
                    if hi in least and (want is None or least[hi] < want):
                        want = least[hi]
                    assert experiments.first_entry(a, m, lo, hi) == want, (a, m, lo, hi)
    # a >= m is taken mod m; and a 256-bit case deep in Euclid's steps
    assert experiments.first_entry(7 + 64, 64, 5, 5) == experiments.first_entry(7, 64, 5, 5)
    fib = [1, 2]  # consecutive Fibonacci numbers: the most steps
    while fib[-1] < MODULUS:
        fib.append(fib[-1] + fib[-2])
    a, m = fib[-2], fib[-1]
    assert experiments.first_entry(a, m, m - 1, m - 1) == (m - 1) * pow(a, -1, m) % m


def _density_peak(n):
    tracemalloc.start()
    try:
        density_probe(Angle(1), counter_angle(7, 0, "density"), n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_density_memory_does_not_grow_with_n():
    # at theta = 2**-256, k**2 theta < 2**-209 of a turn for k <= 10**7, so
    # the sums stay on theta = 0's small circle and every block is walked:
    # only n differs, and the walk holds the table, one chunk of blocks and
    # one CHUNK of terms
    _density_peak(1000)
    assert _density_peak(10**7) <= _density_peak(10**6) + 2**16


def test_growth_theta_zero_control():
    rep = growth_report(Angle(0), [100, 1000], 32)
    assert all(v == 1.0 for v in rep.sup_ratio_linear)
    assert not rep.bounded_quotients


def test_growth_golden_shape():
    ns, grid = [100, 1000, 10_000], 128
    rep = growth_report(GOLDEN, ns, grid)
    assert rep.bounded_quotients
    assert all(a > b for a, b in zip(rep.sup_ratio_linear, rep.sup_ratio_linear[1:]))
    assert max(rep.a0_peak_ratio) >= 0.5
    assert all(v <= 5.0 for v in rep.sup_ratio_sqrt)
    # each sup is the grid maximum of direct sums' moduli
    xs = [angle_from_rational(j, grid) for j in range(grid)]
    for n, ratio in zip(ns, rep.sup_ratio_linear):
        direct = max(abs(weyl_sum(GOLDEN, x, Angle(0), n)) for x in xs)
        assert abs(ratio * n - direct) <= 2 * n * 2.0**-51


def test_growth_rejects_bad_schedule():
    with pytest.raises(ValueError):
        growth_report(GOLDEN, [100, 100], 16)
    with pytest.raises(ValueError):
        growth_report(GOLDEN, [], 16)
    with pytest.raises(ValueError):
        growth_report(GOLDEN, [100, 1000], 0)
