"""The batched counter draws against the single draws they replace, and
the calibration sweeps' whole-stream instances against per-index draws."""

import numpy as np
import pytest

from weyl_lab import calibration
from weyl_lab._rng import (
    _CHUNK,
    counter_angle,
    counter_numerators,
    counter_unit,
    counter_units,
    counter_words,
)
from weyl_lab.exactangle import angle_from_float


@pytest.mark.parametrize("stream", ["", "box-x"])
@pytest.mark.parametrize("seed", [-1, 0, 2 ** 70])
# _CHUNK + 2 reaches past the first chunk boundary, with E4's 1000-1002
@pytest.mark.parametrize("n", [0, 1, 1000, _CHUNK + 2])
def test_batched_draws_equal_single_draws(n, seed, stream):
    units = counter_units(seed, n, stream)
    assert units.dtype == np.float64 and units.shape == (n,)
    assert units.tolist() == [counter_unit(seed, i, stream) for i in range(n)]
    numerators = counter_numerators(seed, n, stream)
    assert numerators == [counter_angle(seed, i, stream).numerator for i in range(n)]


@pytest.mark.parametrize("stream", ["", "parseval"])
@pytest.mark.parametrize("seed", [-1, 0, 2 ** 70])
@pytest.mark.parametrize("n", [0, 1, 1000, _CHUNK + 1])
def test_word_draws_are_the_angle_numerators(n, seed, stream):
    words = counter_words(seed, n, stream)
    assert words.dtype == np.uint64 and words.shape == (n, 4)
    for row, i in zip(words.tolist(), range(n)):
        numerator = counter_angle(seed, i, stream).numerator
        assert row == [numerator >> 64 * (3 - w) & (2**64 - 1) for w in range(4)]


def _fe_instance(seed, i):
    # the i-th (theta, x, k) of the rescaling-residual sweep, from single draws
    lo, hi = calibration.FE_K_DECADES
    theta = angle_from_float(0.05 + 0.9 * counter_unit(seed, i, "fe-theta"))
    x = angle_from_float(counter_unit(seed, i, "fe-x"))
    k = max(2, round(10 ** (lo + (hi - lo) * counter_unit(seed, i, "fe-k"))))
    return theta, x, k


def _approx_instance(seed, i):
    # the i-th (theta, l, m, x) of the product-approximation sweep, from single draws
    theta = angle_from_float(counter_unit(seed, i, "ap-theta"))
    x = angle_from_float(counter_unit(seed, i, "ap-x"))
    l = 1 + int(counter_unit(seed, i, "ap-l") * 1000)
    m = 1 + int(counter_unit(seed, i, "ap-m") * 30)
    return theta, l, m, x


def test_sweep_instances_are_the_per_index_draws():
    fe_seed, samples = calibration.FE_SWEEP_SEED, calibration.FE_SWEEP_SAMPLES
    want = [_fe_instance(fe_seed, i) for i in range(samples)]
    assert calibration._fe_starts(fe_seed) == want
    ap_seed, samples = calibration.APPROX_SWEEP_SEED, calibration.APPROX_SWEEP_SAMPLES
    want = [_approx_instance(ap_seed, i) for i in range(samples)]
    assert calibration._approx_instances(ap_seed, samples) == want
