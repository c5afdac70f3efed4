"""Radial prefix sums: box-window averages of the sharp cumulative."""

import numpy as np
import pytest

from capmono.radial import RadialPrefix


@pytest.mark.parametrize("method", ["windowed", "windowed_over_r2"])
def test_mixed_halfwidths_match_single_entries(rng, method):
    # an entry of halfwidth 0 reads the sharp value even when another entry
    # of the same call has a window
    points = rng.standard_normal((1000, 3))
    prefix = RadialPrefix(points, np.zeros(3), {"mass": np.ones(1000), "pair": rng.uniform(0, 1, (1000, 2))})
    r = np.array([1.0, 1.0, 0.4, 2.1, 1.7])
    w = np.array([0.0, 0.1, 0.0, 0.3, 0.0])
    for key in ("mass", "pair"):
        got = getattr(prefix, method)(key, r, w)
        alone = np.array([getattr(prefix, method)(key, r[k : k + 1], w[k : k + 1])[0] for k in range(len(r))])
        assert np.array_equal(got, alone)
    sharp = prefix.cumulative("mass", r)
    if method == "windowed_over_r2":
        sharp = sharp / r**2
    got = getattr(prefix, method)("mass", r, w)
    assert np.array_equal(got[w == 0], sharp[w == 0])
    assert np.all(got[w == 0] > 0)
