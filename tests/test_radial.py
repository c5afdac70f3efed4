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


def _direct_windows(points, center, f, r, w):
    """Both radius windows as direct sums over the samples, radius by radius."""
    d = np.linalg.norm(points - center, axis=1)
    flat, over_r2 = [], []
    for rk, wk in zip(r, w):
        box = np.clip((rk + wk - d) / (2 * wk), 0.0, 1.0)
        inv = np.maximum(1.0 / np.maximum(d, rk - wk) - 1.0 / (rk + wk), 0.0) / (2 * wk)
        flat.append(np.tensordot(box, f, axes=1))
        over_r2.append(np.tensordot(inv, f, axes=1))
    return np.array(flat), np.array(over_r2)


def test_windows_match_direct_sums(rng):
    # scalar and (n, 3) keys; their d- and 1/d-weighted prefixes are built
    # on the first window that reads them
    points = rng.standard_normal((1000, 3))
    center = np.array([0.1, -0.2, 0.3])
    arrays = {"mass": rng.uniform(0.5, 1.5, 1000), "vec": rng.uniform(0.5, 1.5, (1000, 3))}
    prefix = RadialPrefix(points, center, arrays)
    r = np.array([0.5, 1.0, 1.7, 2.5])
    w = np.array([0.05, 0.2, 0.3, 0.4])
    for key, f in arrays.items():
        flat, over_r2 = _direct_windows(points, center, f, r, w)
        np.testing.assert_allclose(prefix.windowed(key, r, w), flat, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(prefix.windowed_over_r2(key, r, w), over_r2, rtol=1e-12, atol=0.0)


def test_window_reads_do_not_depend_on_order(rng):
    points = rng.standard_normal((1000, 3))
    arrays = {"mass": rng.uniform(0.5, 1.5, 1000), "vec": rng.uniform(0.5, 1.5, (1000, 3))}
    r = np.array([0.5, 1.0, 1.7])
    w = np.array([0.05, 0.0, 0.3])
    first = RadialPrefix(points, np.zeros(3), arrays)
    second = RadialPrefix(points, np.zeros(3), arrays)
    for key in arrays:
        a = (first.windowed_over_r2(key, r, w), first.windowed(key, r, w))
        b = (second.windowed(key, r, w), second.windowed_over_r2(key, r, w))
        assert np.array_equal(a[0], b[1])
        assert np.array_equal(a[1], b[0])
