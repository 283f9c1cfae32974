"""The batched counter draws against the single draws they replace."""

import numpy as np
import pytest

from weyl_lab._rng import counter_angle, counter_angles, counter_unit, counter_units


@pytest.mark.parametrize("stream", ["", "box-x"])
@pytest.mark.parametrize("seed", [-1, 0, 2 ** 70])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_batched_draws_equal_single_draws(n, seed, stream):
    units = counter_units(seed, n, stream)
    assert units.dtype == np.float64 and units.shape == (n,)
    assert units.tolist() == [counter_unit(seed, i, stream) for i in range(n)]
    assert counter_angles(seed, n, stream) == [counter_angle(seed, i, stream) for i in range(n)]
