import numpy as np
import pytest

from hyperball.rng import draw


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
def test_draw_on_uint64_arrays_matches_scalar_draws(seed):
    n = 2000
    counters = np.arange(n, dtype=np.uint64)
    vector = draw(seed, counters)
    assert vector.dtype == np.uint64
    assert [int(v) for v in vector] == [draw(seed, i) for i in range(n)]

