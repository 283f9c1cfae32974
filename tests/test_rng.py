"""The batched counter draws against the single draws they replace."""

import numpy as np
import pytest

from weyl_lab._rng import (
    _CHUNK,
    counter_angle,
    counter_numerators,
    counter_unit,
    counter_units,
    counter_words,
)


@pytest.mark.parametrize("stream", ["", "box-x"])
@pytest.mark.parametrize("seed", [-1, 0, 2 ** 70])
@pytest.mark.parametrize("n", [0, 1, 1000])
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
