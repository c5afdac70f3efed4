"""Radial prefix sums: box-window averages of the sharp cumulative, and
the stable order and per-key bits of the running sums each read builds."""

import numpy as np
import pytest

from capmono import ball as bl
from capmono import halfspace as hs
from capmono.geometry import rowdot
from capmono.identity import offset_dots
from capmono.radial import RadialPrefix
from capmono.surfaces import sample_chart, spherical_cap_ball, spherical_cap_halfspace
from capmono.wetted import wetted_region


@pytest.mark.parametrize("method", ["windowed", "windowed_over_r2"])
def test_mixed_halfwidths_match_single_entries(rng, method):
    # an entry of halfwidth 0 reads the sharp value even when another entry
    # of the same call has a window
    points = rng.standard_normal((1000, 3))
    prefix = RadialPrefix(points, np.zeros(3), {"mass": np.ones(1000), "pair": rng.uniform(0, 1, 1000)})
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


@pytest.mark.parametrize("shape", [(1000, 3), (1000, 1), (999,), ()], ids=["n-by-3", "n-by-1", "short", "scalar"])
def test_keys_are_one_value_per_point(rng, shape):
    # every key is one row of the block: a key of another shape, an (n, m)
    # key among them, raises instead of being gathered
    points = rng.standard_normal((1000, 3))
    with pytest.raises(ValueError, match="one value per point"):
        RadialPrefix(points, np.zeros(3), {"mass": np.ones(1000), "bad": np.ones(shape)})


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
    # two keys; their d- and 1/d-weighted prefixes are built on the first
    # window that reads them
    points = rng.standard_normal((1000, 3))
    center = np.array([0.1, -0.2, 0.3])
    arrays = {"mass": rng.uniform(0.5, 1.5, 1000), "other": rng.uniform(0.5, 1.5, 1000)}
    prefix = RadialPrefix(points, center, arrays)
    r = np.array([0.5, 1.0, 1.7, 2.5])
    w = np.array([0.05, 0.2, 0.3, 0.4])
    for key, f in arrays.items():
        flat, over_r2 = _direct_windows(points, center, f, r, w)
        np.testing.assert_allclose(prefix.windowed(key, r, w), flat, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(prefix.windowed_over_r2(key, r, w), over_r2, rtol=1e-12, atol=0.0)


def test_window_reads_do_not_depend_on_order(rng):
    points = rng.standard_normal((1000, 3))
    arrays = {"mass": rng.uniform(0.5, 1.5, 1000), "other": rng.uniform(0.5, 1.5, 1000)}
    r = np.array([0.5, 1.0, 1.7])
    w = np.array([0.05, 0.0, 0.3])
    first = RadialPrefix(points, np.zeros(3), arrays)
    second = RadialPrefix(points, np.zeros(3), arrays)
    for key in arrays:
        a = (first.windowed_over_r2(key, r, w), first.windowed(key, r, w))
        b = (second.windowed(key, r, w), second.windowed_over_r2(key, r, w))
        assert np.array_equal(a[0], b[1])
        assert np.array_equal(a[1], b[0])


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _has_ties(dists) -> bool:
    return bool(np.any(dists[1:] == dists[:-1]))


def _zero_led_cumsum(arr):
    return np.concatenate([np.zeros((1,) + arr.shape[1:]), np.cumsum(arr, axis=0)])


@pytest.mark.parametrize("tied", [False, True])
def test_block_prefixes_match_per_key_sums(rng, tied):
    # contiguous keys and keys strided through a C- or Fortran-ordered
    # (n, 3) array: the order is the stable one, each key is kept as given,
    # and every running sum and moment a read builds has the bits of a
    # per-key gather and zero-led running sum, in whatever order the keys
    # are read, in the two scratch rows that every read reuses
    n = 3000
    if tied:
        points = rng.integers(-5, 6, (n, 3)).astype(float)
    else:
        points = rng.standard_normal((n, 3))
    center = np.array([0.5, 0.25, 0.0])
    arrays = {
        "mass": rng.uniform(0.5, 1.5, n),
        "rows": rng.standard_normal((n, 3))[:, 1],
        "cols": np.asfortranarray(rng.standard_normal((n, 3)))[:, 2],
        "sq": rng.standard_normal(n),
        "pair": rng.standard_normal((n, 2))[:, 0],
    }
    arrays["sq"][:5] = -0.0
    prefix = RadialPrefix(points, center, arrays)
    rel = points - center
    d = np.sqrt(rowdot(rel, rel))
    order = np.argsort(d, kind="stable")
    assert np.array_equal(prefix.order, order)
    assert _same_bits(prefix.dists, d[order])
    assert _has_ties(prefix.dists) == tied
    scratch = None
    for key, arr in [*arrays.items(), *reversed(arrays.items())]:
        assert prefix.keys[key] is arr, key
        expect = arr[order]
        for power, scale in ((0, None), (1, d[order]), (-1, 1.0 / np.maximum(d[order], 1e-12))):
            plain, moment = prefix._running(key, power)
            assert _same_bits(plain, _zero_led_cumsum(expect)), (key, power)
            if scale is None:
                assert moment is None
            else:
                assert _same_bits(moment, _zero_led_cumsum(expect * scale)), (key, power)
            scratch = plain if scratch is None else scratch
            assert np.shares_memory(plain, scratch), (key, power)


def _assert_stable_orders(cases):
    """Each (prefix, squared distances) pair is sorted in the stable order; returns whether any tie."""
    for prefix, d2 in cases:
        d = np.sqrt(d2)
        order = np.argsort(d, kind="stable")
        assert np.array_equal(prefix.order, order)
        assert _same_bits(prefix.dists, d[order])
    return any(_has_ties(prefix.dists) for prefix, _ in cases)


@pytest.mark.parametrize(
    "x0, tied",
    [((0.21, -0.13, 0.7), False), ((0.0, 0.0, 0.8), True), ((0.3, 0.0, 0.5), True)],
    ids=["generic", "x3-axis", "x1-plane"],
)
def test_halfspace_prefix_orders_are_stable(x0, tied):
    # probes on a symmetry axis or plane of the cap see thousands of equal
    # sample and atom distances; those prefixes take the stable sort
    surface = sample_chart(spherical_cap_halfspace(np.pi / 3), 48, 48)
    region = wetted_region(surface)
    t = hs.probe_terms(surface, region, np.array(x0))
    # η is restricted over the boundary curve's atoms
    nodes, _ = region.curve_atoms()
    cases = [
        (t.mu, offset_dots(surface.points, t.x0)[0]),
        (t.mu_hat, offset_dots(surface.points, t.x0_hat)[0]),
        (t.eta, offset_dots(nodes, t.x0)[0]),
    ]
    assert _assert_stable_orders(cases) == tied


@pytest.mark.parametrize(
    "x0, tied",
    [((0.2, 0.1, 0.4), False), ((0.0, 0.0, 0.3), True), ((0.0, 0.0, 0.0), True)],
    ids=["generic", "x3-axis", "origin"],
)
def test_ball_prefix_orders_are_stable(x0, tied):
    # the sphere's η prefixes sort the boundary curve's atoms
    surface = sample_chart(spherical_cap_ball(2 * np.pi / 3, np.pi / 3), 32, 64)
    region = wetted_region(surface)
    t = bl.probe_terms(surface, region, np.array(x0))
    if t.BRANCH == bl.ORIGIN:
        cases = [(t.mu, offset_dots(surface.points, np.zeros(3))[0])]
    else:
        nodes, _ = region.curve_atoms()
        cases = [
            (t.mu, offset_dots(surface.points, t.x0)[0]),
            (t.mu_hat, offset_dots(surface.points, t.x0_hat)[0]),
            (t.eta, offset_dots(nodes, t.x0)[0]),
            (t.eta_hat, offset_dots(nodes, t.x0_hat)[0]),
        ]
    assert _assert_stable_orders(cases) == tied
