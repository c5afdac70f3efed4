"""Winding numbers, oriented areas, rotation indices and eta integrals."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmono.errors import UndefinedWindingError
from capmono.wetted import (
    OrientedCurve,
    WettedRegion,
    curve_from_boundary,
    eta_integral,
    oriented_area,
    rotation_index,
    spherical_winding_number,
    wetted_region,
    winding_number,
)


def circle(n=256, r=1.0, ccw=True, loops=1, center=(0.0, 0.0)):
    t = np.linspace(0, loops * 2 * np.pi, loops * n, endpoint=False)
    s = 1.0 if ccw else -1.0
    pts = np.column_stack(
        [center[0] + r * np.cos(s * t), center[1] + r * np.sin(s * t), np.zeros(len(t))]
    )
    tan = np.column_stack([-s * np.sin(s * t), s * np.cos(s * t), np.zeros(len(t))])
    return OrientedCurve(pts, tan, np.full(len(t), loops * 2 * np.pi * r / len(t)))


def square(side=2.0, n_per_side=64):
    h = side / 2
    corners = np.array([[-h, -h], [h, -h], [h, h], [-h, h]])
    pts, tans = [], []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        t = np.linspace(0, 1, n_per_side, endpoint=False)
        pts.append(a + t[:, None] * (b - a))
        d = (b - a) / np.linalg.norm(b - a)
        tans.append(np.tile(d, (n_per_side, 1)))
    pts = np.column_stack([np.concatenate(pts), np.zeros(4 * n_per_side)])
    tans = np.column_stack([np.concatenate(tans), np.zeros(4 * n_per_side)])
    return OrientedCurve(pts, tans, np.full(4 * n_per_side, 4 * side / (4 * n_per_side)))


def ellipse(a=1.0, b=4.0, n=512):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = np.column_stack([a * np.cos(t), b * np.sin(t), np.zeros(n)])
    d = np.column_stack([-a * np.sin(t), b * np.cos(t), np.zeros(n)])
    sp = np.linalg.norm(d, axis=1)
    return OrientedCurve(pts, d / sp[:, None], sp * (2 * np.pi / n))


def figure_eight(n=1024, squash=0.3):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    pts = np.column_stack([np.sin(2 * t) / 2, np.sin(t) * (1 + squash * np.cos(t)), np.zeros(n)])
    d = np.gradient(pts, t, axis=0)
    sp = np.linalg.norm(d, axis=1)
    return OrientedCurve(pts, d / sp[:, None], sp * (2 * np.pi / n))


def ray_cast_winding(points_xy, probe):
    """Independent signed-crossing oracle along the horizontal ray."""
    wind = 0
    n = len(points_xy)
    px, py = probe
    for i in range(n):
        ax, ay = points_xy[i]
        bx, by = points_xy[(i + 1) % n]
        if ay <= py < by or by <= py < ay:
            xstar = ax + (py - ay) * (bx - ax) / (by - ay)
            if xstar > px:
                wind += 1 if by > ay else -1
    return wind


def test_winding_examples():
    assert winding_number(circle(), [0, 0, 0]) == 1
    assert winding_number(circle(), [3, 0, 0]) == 0
    assert winding_number(circle(loops=2), [0, 0, 0]) == 2
    assert winding_number(circle(ccw=False), [0.2, 0.1, 0]) == -1


def test_winding_on_curve_rejected():
    with pytest.raises(UndefinedWindingError):
        winding_number(circle(), [1.0, 0.0, 0.0])


def test_winding_matches_ray_casting(rng):
    for _ in range(40):
        n = rng.integers(3, 12)
        poly = rng.uniform(-1, 1, (n, 2))
        pts = np.column_stack([poly, np.zeros(n)])
        tans = np.roll(pts, -1, axis=0) - pts
        lens = np.linalg.norm(tans, axis=1)
        if np.any(lens < 1e-6):
            continue
        curve = OrientedCurve(pts, tans / lens[:, None], lens)
        for _ in range(25):
            probe = rng.uniform(-1.3, 1.3, 2)
            d = np.min(np.linalg.norm(poly - probe, axis=1))
            if d < 1e-3:
                continue
            try:
                w = winding_number(curve, [probe[0], probe[1], 0.0])
            except UndefinedWindingError:
                continue
            assert w == ray_cast_winding(poly, probe)


@pytest.mark.parametrize("chunk", [None, 3])
def test_scattered_winding_matches_ray_casting(rng, monkeypatch, chunk):
    # the scanline kernel with one row per probe, on random and disjoint
    # polygons; probes sit at vertex heights and share heights, one edge is
    # horizontal, and with _CHUNK = 3 the probes split into many blocks
    from capmono import wetted

    if chunk is not None:
        monkeypatch.setattr(wetted, "_CHUNK", chunk)
    polygons = [[rng.uniform(-1, 1, (int(rng.integers(3, 12)), 2))] for _ in range(20)]
    flat = np.array([[-0.6, 0.2], [0.5, 0.2], [0.1, 0.9], [-0.3, -0.4]])
    polygons.append([flat])
    polygons.append([flat - 1.5, rng.uniform(0.5, 1.5, (7, 2)), 0.3 * flat + [1.5, -1.0]])
    for polys in polygons:
        verts = np.concatenate(polys)
        probes = rng.uniform(-2.0, 2.0, (200, 2))
        probes[:40, 1] = rng.choice(verts[:, 1], 40)
        probes[40:80, 1] = probes[40, 1]
        got = wetted._winding_at(polys, probes)
        assert got.dtype == np.int64
        for w, probe in zip(got, probes):
            assert w == sum(ray_cast_winding(p, probe) for p in polys)


def test_oriented_area_examples():
    assert oriented_area(circle()) == pytest.approx(np.pi, abs=1e-6)
    assert oriented_area(circle(ccw=False)) == pytest.approx(-np.pi, abs=1e-6)
    assert oriented_area(square()) == pytest.approx(4.0, abs=1e-9)


def test_region_cache_is_neither_copied_nor_compared():
    # a replaced region builds its own grid, and regions with built grids
    # compare by their fields (one curve object, since curves hold arrays)
    curve = circle()
    region = WettedRegion((curve,), grid_n=32)
    assert len(region.grid()[0]) == 32 * 32
    finer = replace(region, grid_n=64)
    assert len(finer.grid()[0]) == 64 * 64
    twin = WettedRegion((curve,), grid_n=32)
    twin.grid()
    assert region == twin
    assert region != finer
    with pytest.raises(ValueError):
        replace(region, _cache={})


def test_rotation_index_examples():
    assert rotation_index(circle()) == 1
    assert rotation_index(circle(ccw=False)) == -1
    assert rotation_index(figure_eight()) == 0


def test_eta_integral_unit_circle():
    region = WettedRegion((circle(n=512),), "plane", grid_n=512)
    assert eta_integral(region) == pytest.approx(np.pi, abs=1e-3)

    def f(p):
        return 1.0 / (p[:, 0] ** 2 + p[:, 1] ** 2 + 1.0) ** 2

    assert eta_integral(region, f) == pytest.approx(np.pi / 2, abs=1e-3)


def test_eta_matches_oriented_area_on_figure_eight():
    curve = figure_eight()
    region = WettedRegion((curve,), "plane", grid_n=512)
    assert eta_integral(region) == pytest.approx(oriented_area(curve), abs=2e-4)
    assert np.min(region.grid()[2]) == -1


def test_eta_additive_over_disjoint_curves():
    c1 = circle(r=0.5, center=(-1.2, 0.0))
    c2 = circle(r=0.7, center=(1.2, 0.0))
    both = WettedRegion((c1, c2), "plane", grid_n=512)
    assert eta_integral(both) == pytest.approx(np.pi * (0.5**2 + 0.7**2), abs=2e-4)


@given(st.floats(0.3, 1.4), st.floats(-0.5, 0.5))
@settings(max_examples=10, deadline=None)
def test_eta_area_matches_disk(r, cx):
    region = WettedRegion((circle(n=256, r=r, center=(cx, 0.0)),), "plane", grid_n=256)
    assert eta_integral(region) == pytest.approx(np.pi * r * r, rel=2e-3)


def test_spherical_winding_cap(stock):
    surface, region = stock.disk(np.pi / 3)
    assert spherical_winding_number(region, [0, 0, 1]) == 1
    assert spherical_winding_number(region, [0, 0, -1]) == 0
    coarse = wetted_region(surface, sphere_level=3)
    for sample in (surface.boundary_points[0], surface.boundary_points[17]):
        with pytest.raises(UndefinedWindingError):
            spherical_winding_number(coarse, sample)
    curve = curve_from_boundary(surface)
    assert rotation_index(curve, "sphere") == 1


def test_spherical_gauss_bonnet_area_agreement():
    # eta-area of the wetted cap against the turning identity, both sides
    # computed independently
    from capmono.surfaces import geodesic_disk_ball, sample_chart

    surface = sample_chart(geodesic_disk_ball(np.pi / 3), 48, 512)
    region = wetted_region(surface, sphere_level=6)
    eta_area = eta_integral(region)
    kgt = float(np.sum(surface.boundary_kg_wetting * surface.boundary_weights))
    ind = rotation_index(curve_from_boundary(surface), "sphere")
    assert abs(eta_area - (2 * np.pi * ind - kgt)) < 1e-4


def test_total_boundary_measure(stock):
    surface, _ = stock.cap(np.pi / 2)
    assert surface.boundary_length() == pytest.approx(2 * np.pi, rel=1e-6)
    cap, _ = stock.cap(2 * np.pi / 3)
    assert cap.boundary_length() == pytest.approx(2 * np.pi * np.sin(2 * np.pi / 3), rel=1e-6)
    disk, _ = stock.disk(np.pi / 3)
    assert disk.boundary_length() == pytest.approx(np.sqrt(3) * np.pi, rel=1e-6)


def test_wind_binary_for_embedded_generators(stock):
    _, region = stock.cap(2 * np.pi / 3)
    _, _, wind, _ = region.grid()
    assert set(np.unique(wind)).issubset({0, 1})
    _, ball_region = stock.disk(np.pi / 3)
    _, _, wind_b, _ = ball_region.grid()
    assert set(np.unique(wind_b)).issubset({0, 1})


# -- restriction of eta to balls -------------------------------------------------


def _disk_corner_area(a, b, r):
    """Area of {x <= a, y <= b} intersected with the disk of radius r at 0,
    with every antiderivative value computed on its own."""

    def anti(x):
        x = np.clip(x, -r, r)
        return 0.5 * (x * np.sqrt(np.maximum(r * r - x * x, 0.0)) + r * r * np.arcsin(np.clip(x / r, -1.0, 1.0)))

    a_eff = np.clip(a, -r, r)
    c = np.sqrt(np.maximum(r * r - b * b, 0.0))
    c = np.where(np.abs(b) >= r, 0.0, c)
    # slab integral of sqrt(r^2-x^2) + clip(b, -s, s) over x in [-r, a_eff]
    e1 = np.minimum(a_eff, -c)
    e2 = np.minimum(a_eff, c)
    region1 = 2.0 * (anti(e1) - anti(-r))
    mid = np.maximum(e2 - (-c), 0.0)
    region2 = np.where(e2 > -c, anti(e2) - anti(-c) + b * mid, 0.0)
    region3 = np.where(a_eff > c, 2.0 * (anti(a_eff) - anti(c)), 0.0)
    pos = region1 + region2 + region3
    neg = region2
    out = np.where(b >= 0.0, pos, neg)
    return np.where(b <= -r, 0.0, out)


def _reference_overlap(x, y, h, r):
    """Disk overlap of h-cells from four independent corner areas."""
    h2 = 0.5 * h
    return (
        _disk_corner_area(x + h2, y + h2, r)
        - _disk_corner_area(x - h2, y + h2, r)
        - _disk_corner_area(x + h2, y - h2, r)
        + _disk_corner_area(x - h2, y - h2, r)
    )


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("n", [1, 5, 8, 9, 1000, 4099])
def test_disk_overlap_matches_four_corner_reference(n):
    # the shared corner antiderivatives give the bits of four independent
    # corner areas: on random cells, on cells straddling x = +-r or y = +-r,
    # on cells wholly below y = -r and on row edges with |b| >= r
    from capmono.wetted import _disk_cell_overlap

    rng = np.random.default_rng(n)
    h = 0.01
    r = rng.uniform(0.02, 2.0, n)
    cases = {
        "random": rng.uniform(-2.5, 2.5, (2, n)),
        "straddle-x": np.stack([r * rng.choice([-1.0, 1.0], n) + rng.uniform(-h, h, n), rng.uniform(-0.5, 0.5, n) * r]),
        "straddle-y": np.stack([rng.uniform(-0.5, 0.5, n) * r, r * rng.choice([-1.0, 1.0], n) + rng.uniform(-h, h, n)]),
        "below": np.stack([rng.uniform(-2.5, 2.5, n), -r - rng.uniform(0.5 * h, 2 * h, n)]),
        "past-rows": np.stack([rng.uniform(-2.5, 2.5, n), rng.choice([-1.0, 1.0], n) * (r + 0.5 * h)]),
        "on-grid": np.round(rng.uniform(-2.0, 2.0, (2, n)) / h) * h,
    }
    for name, (x, y) in cases.items():
        got = _disk_cell_overlap(x, y, h, r)
        assert np.array_equal(_bits(got), _bits(_reference_overlap(x, y, h, r))), name


def _restricted_nodes(region, every):
    """The nodes and weights a reference restricts η over: the region's
    wetted nodes, the set BallRestrictedEta reads, or every grid node."""
    if every:
        nodes, cellw, _, wind_aa = region.grid()
        return nodes, wind_aa * cellw
    return region.wetted_nodes()


def _reference_restriction(region, center, arrays, key, radii, every=False):
    """Ball-restricted eta the direct way, over the wetted nodes (or every
    grid node), with ``arrays`` over that node set.  On the sphere it is the
    sharp atomic sum; on the plane each call and key adds one coverage
    correction per band cell, mirroring BallRestrictedEta's plane rule
    (sorted prefix sums, a band of partial cells, exact disk overlap from
    four independent corner areas) without any of its caches."""
    nodes, base = _restricted_nodes(region, every)
    dist = np.linalg.norm(nodes - center, axis=1)
    order = np.argsort(dist, kind="stable")
    dist, nodes = dist[order], nodes[order]
    base = base[order]
    values = base if key == "mass" else np.asarray(arrays[key], dtype=float)[order] * base
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    # sphere atoms have no band of partial cells
    h = np.sqrt(float(region.grid()[1][0]))
    band = 0.71 * h if region.wetting == "plane" else 0.0
    out = []
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        if not np.isfinite(r):
            out.append(float(prefix[-1]))
            continue
        total = float(prefix[np.searchsorted(dist, r, side="left")])
        lo = np.searchsorted(dist, r - band, side="left")
        hi = np.searchsorted(dist, r + band, side="left")
        if hi > lo:
            rp2 = r**2 - center[2] ** 2
            if rp2 <= 0.0:
                frac = np.zeros(hi - lo)
            else:
                x0, y0 = nodes[lo:hi, 0] - center[0], nodes[lo:hi, 1] - center[1]
                frac = _reference_overlap(x0, y0, h, np.sqrt(rp2)) / (h * h)
            sharp = (dist[lo:hi] < r).astype(float)
            total += float(np.sum(values[lo:hi] * (frac - sharp)))
        out.append(total)
    return np.array(out)


def _reference_window(region, center, arrays, key, r, halfwidth, over_r2, every=False):
    w = np.minimum(halfwidth, 0.9 * r)
    if region.wetting == "sphere":
        # the exact box average, atom by atom: an atom at distance d counts
        # for the share of windowed radii s > d
        nodes, f = _restricted_nodes(region, every)
        if key != "mass":
            f = f * np.asarray(arrays[key], dtype=float)
        d = np.linalg.norm(nodes - center, axis=1)[:, None]
        lo, hi = r - w, r + w
        if over_r2:
            share = np.maximum(1.0 / np.maximum(d, lo) - 1.0 / hi, 0.0) / (2.0 * w)
        else:
            share = np.clip((hi - d) / (2.0 * w), 0.0, 1.0)
        return np.sum(f[:, None] * share, axis=0)
    xs, ws = np.polynomial.legendre.leggauss(5)
    out = np.zeros(len(r))
    for xk, wk in zip(xs, ws):
        s = np.maximum(r + xk * w, 1e-12)
        val = _reference_restriction(region, center, arrays, key, s, every)
        if over_r2:
            val = val / s**2
        out = out + 0.5 * wk * val
    return out


def _restriction_case(stock, ambient):
    """A region, a probe and its two centers (the plane's second center is
    another probe, the sphere's the inverted companion)."""
    if ambient == "plane":
        surface, _ = stock.cap(2 * np.pi / 3)
        region = wetted_region(surface, grid_n=256)
        x0 = np.array([0.3, -0.2, 0.5])
        return region, x0, [x0, np.array([-0.4, 0.1, 0.8])]
    surface, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    region = wetted_region(surface, sphere_level=4)
    x0 = np.array([0.2, 0.1, 0.5])
    return region, x0, [x0, x0 / np.dot(x0, x0)]


@pytest.mark.parametrize("ambient", ["plane", "sphere"])
@pytest.mark.parametrize("reverse", [False, True])
def test_ball_restriction_matches_reference(stock, ambient, reverse):
    from capmono.wetted import BallRestrictedEta

    region, x0, centers = _restriction_case(stock, ambient)
    # neither the order of the centers nor an earlier center may matter
    if reverse:
        centers = centers[::-1]
    nodes, _ = region.wetted_nodes()
    arrays = {"one": np.ones(len(nodes)), "dist2": np.sum((nodes - x0) ** 2, axis=1)}
    for center in centers:
        eta = BallRestrictedEta(region, center, arrays)
        dist = np.linalg.norm(nodes - center, axis=1)
        radii = np.quantile(dist, [0.2, 0.5, 0.8])
        hw = 0.1 * radii[:2]
        if ambient == "sphere":
            # windows past the 0.9 r clip, and past every atom
            radii = np.concatenate([radii, [dist.max()]])
            hw = np.concatenate([hw, [1.5 * radii[2], 0.5 * dist.max()]])
        for key in ("mass", *arrays):
            expect = _reference_restriction(region, center, arrays, key, [*radii, np.inf])
            assert np.array_equal(eta.cumulative(key, [*radii, np.inf]), expect)
            r = radii[: len(hw)]
            for over_r2, method in ((False, eta.windowed), (True, eta.windowed_over_r2)):
                expect = _reference_window(region, center, arrays, key, r, hw, over_r2)
                if ambient == "plane":
                    assert np.array_equal(method(key, r, hw), expect)
                else:
                    np.testing.assert_allclose(method(key, r, hw), expect, rtol=1e-12, atol=0.0)


def test_sphere_restriction_drops_zero_weight_atoms(stock):
    # most faces carry zero weight; they leave every prefix sum unchanged, so
    # the restriction over the wetted nodes must equal the one over every
    # atom bit for bit
    from capmono.radial import RadialPrefix
    from capmono.wetted import BallRestrictedEta

    surface, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    region = wetted_region(surface, sphere_level=4)
    nodes, cellw, _, wind_aa = region.grid()
    weight = wind_aa * cellw
    keep = weight != 0.0
    assert np.count_nonzero(~keep) > len(weight) // 2
    x0 = np.array([0.2, 0.1, 0.5])
    for center in (x0, x0 / np.dot(x0, x0)):
        dist2 = np.sum((nodes - center) ** 2, axis=1)
        eta = BallRestrictedEta(region, center, {"dist2": dist2[keep]})
        assert eta.n == np.count_nonzero(keep)
        every = RadialPrefix(nodes, center, {"mass": weight, "dist2": dist2 * weight})
        dist = np.sqrt(dist2)
        r = np.linspace(0.05, 1.1, 23) * dist.max()
        hw = np.linspace(0.01, 1.2, 23) * r
        for key in ("mass", "dist2"):
            assert np.array_equal(eta.cumulative(key, [*r, np.inf]), every.cumulative(key, [*r, np.inf]))
            w = np.minimum(hw, 0.9 * r)
            assert np.array_equal(eta.windowed(key, r, hw), every.windowed(key, r, w))
            assert np.array_equal(eta.windowed_over_r2(key, r, hw), every.windowed_over_r2(key, r, w))


def test_wetted_nodes_are_the_nonzero_weight_nodes_in_grid_order(stock):
    for ambient in ("plane", "sphere"):
        region, _, _ = _restriction_case(stock, ambient)
        nodes, weight = region.eta_nodes()
        keep = weight != 0.0
        wet, wet_weight = region.wetted_nodes()
        assert 0 < len(wet) < len(nodes)
        assert np.array_equal(wet, nodes[keep]) and np.array_equal(wet_weight, weight[keep])
        assert wet.flags.f_contiguous
        # extracted once and cached
        assert region.wetted_nodes()[0] is wet


def _cached_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _cached_arrays(item)


def test_plane_region_caches_the_compact_winding_not_the_grid(stock):
    # after the wetted nodes and one probe's terms, no array of the grid's
    # length is a float or a node array: the region keeps the winding as
    # int8, the band and the axes, and lays the grid out per call
    from capmono import halfspace

    surface, _ = stock.cap(2 * np.pi / 3, res=64, grid=128)
    region = wetted_region(surface, grid_n=128)
    region.wetted_nodes()
    halfspace.probe_terms(surface, region, [0.175, -0.31, 0.8])
    grid_long = [a for a in _cached_arrays(list(region._cache.values())) if a.ndim and len(a) == 128 * 128]
    assert [a.dtype for a in grid_long] == [np.dtype(np.int8)]
    assert grid_long[0].ndim == 1
    assert np.array_equal(grid_long[0], region.grid()[2])


def _traced_peak(build):
    """Peak bytes traced by tracemalloc while ``build()`` runs, above what was traced before."""
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("grid_n", [256, 512])
def test_wetted_nodes_and_probe_terms_memory_follows_the_wetted_nodes(stock, grid_n):
    # the traced peak of a grid build, its wetted-node extraction and one
    # half-space probe's terms, per grid node; tracemalloc counts numpy's
    # buffers, so the figure does not depend on the machine.  Measured
    # with numpy 2.4: 77.6 B (256^2) and 62.3 B (512^2) per node; the
    # 256^2 figure carries more of the fixed sample-measure part.  Caching
    # the laid-out grid (48 B per node) beside its wetted copy read 137.5
    # and 122.4 B.  The bound is 90 B, 16 % above the larger figure.
    from capmono import halfspace

    surface, _ = stock.cap(2 * np.pi / 3, res=64, grid=128)
    region = wetted_region(surface, grid_n=grid_n)

    def build():
        region.wetted_nodes()
        halfspace.probe_terms(surface, region, [0.175, 0.0, 0.8])

    assert _traced_peak(build) < 90 * grid_n**2


def test_ball_probe_terms_and_profile_memory_per_sample(stock):
    # the traced peak of one ball probe's terms and profile, per sample of
    # the 96 x 256 cap (24,576 samples), with the surface's shared arrays
    # and the wetted nodes built beforehand.  Measured with numpy 2.4:
    # 339 B per sample.  When each prefix restricted H.x w and the three
    # columns of H w, contracted with the center after every window,
    # instead of one coupling row per center it read 467 B, and 804 B when
    # the companion prefix also carried the six probe-independent
    # inversion keys.  The bound is 410 B, 21 % above the measured figure.
    from capmono import ball

    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    surface.mu_arrays
    region.wetted_nodes()
    x0 = [0.2, 0.1, 0.4]

    def build():
        terms = ball.probe_terms(surface, region, x0)
        ball.monotonicity_profile(surface, region, x0, np.linspace(0.25, 4.0, 40), terms=terms)

    assert _traced_peak(build) < 410 * len(surface.points)


def test_halfspace_probe_terms_and_profile_memory_per_sample(stock):
    # the half-space twin of the ball figure: one probe's terms and
    # profile per sample of the 128 x 128 cap on a 64^2 plane grid, with
    # the shared arrays and the wetted nodes built beforehand.  Measured
    # with numpy 2.4: 290 B per sample; with H.x w and the three columns
    # of H w in both prefixes instead of one coupling row per center it
    # read 386 B.  The bound is 350 B, 21 % above the measured figure.
    from capmono import halfspace

    surface, region = stock.cap(2 * np.pi / 3, res=128, grid=64)
    surface.mu_arrays
    region.wetted_nodes()
    x0 = [0.3, -0.2, 0.5]

    def build():
        terms = halfspace.probe_terms(surface, region, x0)
        halfspace.monotonicity_profile(surface, region, x0, np.linspace(0.25, 4.0, 40), terms=terms)

    assert _traced_peak(build) < 350 * len(surface.points)


def test_sphere_grid_build_memory_is_bounded(stock):
    # the traced peak of the level-5 sphere grid build on the cap-ball
    # surface, with the icosphere mesh cached beforehand.  Measured with
    # numpy 2.4: 5.6 MB, most of it one antialiasing block's subcell
    # winding.  With band faces in blocks of _CHUNK (4,096 faces of 64
    # subcells) and the band search's nearest-sample distances in blocks
    # of _CHUNK points it read 20.7 MB, and 7.1 MB with only the first
    # bounded.  The bound is 6 MB.
    from capmono import quadrature

    surface, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    quadrature.sphere_mesh(5)
    region = wetted_region(surface, sphere_level=5)
    assert _traced_peak(region.grid) < 6e6


def test_sorted_unique_is_np_unique():
    from capmono.wetted import _sorted_unique

    rng = np.random.default_rng(5)
    cases = [
        rng.integers(0, 40, 300),
        np.array([7, 7, 7]),
        np.array([3, -1, 2, -1, 3, 0]),
        np.arange(12)[::-1].copy(),
        np.empty(0, dtype=np.int64),
    ]
    for a in cases:
        got, expect = _sorted_unique(a), np.unique(a)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize("ambient", ["plane", "sphere"])
def test_compact_restriction_matches_the_full_grid(stock, ambient):
    # zero-weight nodes leave sharp prefix sums unchanged, so the sharp
    # cumulatives and the sphere's exact windows keep every bit of a
    # restriction over every grid node; the plane's band sums lose their
    # zero terms and regroup, which may move the last bits
    from capmono.radial import RadialPrefix
    from capmono.wetted import BallRestrictedEta

    region, x0, centers = _restriction_case(stock, ambient)
    nodes, weight = _restricted_nodes(region, every=True)
    keep = weight != 0.0
    for center in centers:
        dist2 = np.sum((nodes - center) ** 2, axis=1)
        full = {"dist2": dist2}
        eta = BallRestrictedEta(region, center, {"dist2": dist2[keep]})
        every = RadialPrefix(nodes, center, {"mass": weight, "dist2": dist2 * weight})
        dist = np.sqrt(dist2[keep])
        r = np.linspace(0.05, 1.1, 23) * dist.max()
        hw = np.linspace(0.01, 1.2, 23) * r
        w = np.minimum(hw, 0.9 * r)
        for key in ("mass", "dist2"):
            radii = [*r, np.inf]
            assert np.array_equal(RadialPrefix.cumulative(eta, key, radii), every.cumulative(key, radii))
            if ambient == "sphere":
                assert np.array_equal(eta.cumulative(key, radii), every.cumulative(key, radii))
                assert np.array_equal(eta.windowed(key, r, hw), every.windowed(key, r, w))
                assert np.array_equal(eta.windowed_over_r2(key, r, hw), every.windowed_over_r2(key, r, w))
                continue
            expect = _reference_restriction(region, center, full, key, radii, every=True)
            np.testing.assert_allclose(eta.cumulative(key, radii), expect, rtol=1e-12, atol=0.0)
            for over_r2, method in ((False, eta.windowed), (True, eta.windowed_over_r2)):
                expect = _reference_window(region, center, full, key, r[::4], hw[::4], over_r2, every=True)
                np.testing.assert_allclose(method(key, r[::4], hw[::4]), expect, rtol=1e-12, atol=0.0)


# only the plane restriction keeps per-radius coverage corrections to batch
@pytest.mark.parametrize("ambient", ["plane"])
@pytest.mark.parametrize("chunk", [None, 5])
def test_ball_restriction_batch_matches_single_radii(stock, monkeypatch, ambient, chunk):
    # one cumulative call fills the corrections of all its radii in one pass
    # (in blocks set by _CHUNK); each radius must read as if asked alone
    from capmono import wetted
    from capmono.wetted import BallRestrictedEta

    surface, _ = stock.cap(2 * np.pi / 3)
    region = wetted_region(surface, grid_n=256)
    x0 = np.array([0.3, -0.2, 0.5])
    nodes, _ = region.wetted_nodes()
    if chunk is not None:
        monkeypatch.setattr(wetted, "_CHUNK", chunk)
    arrays = {"dist2": np.sum((nodes - x0) ** 2, axis=1)}
    band = BallRestrictedEta(region, x0).band
    dist = np.linalg.norm(nodes - x0, axis=1)
    near = float(dist.min())
    mid = np.quantile(dist, [0.3, 0.7])
    empty = 0.5 * near
    assert empty + band < near
    # below the probe's height, yet with cells in the band: no disk cut
    low = x0[2] - 0.2 * band
    assert near < low + band
    # duplicates, inf, an empty band below and above every node
    radii = [mid[0], empty, mid[1], np.inf, mid[0], near + 0.1 * band, 50.0, mid[1], low]
    batch = BallRestrictedEta(region, x0, arrays)
    for key in ("mass", "dist2"):
        got = batch.cumulative(key, radii)
        single = BallRestrictedEta(region, x0, arrays)
        alone = np.array([single.cumulative(key, [r])[0] for r in radii])
        assert np.array_equal(got, alone)
        assert np.array_equal(got, _reference_restriction(region, x0, arrays, key, radii))


def test_gauss_rule_is_leggauss_on_first_use():
    from capmono.wetted import _gauss5

    nodes, weights = _gauss5()
    expect = np.polynomial.legendre.leggauss(5)
    assert np.array_equal(nodes, expect[0]) and np.array_equal(weights, expect[1])
    assert _gauss5()[0] is nodes


# -- the wetted grid against the direct kernels ------------------------------------


def _blocks(rows, size=512):
    return [rows[k : k + size] for k in range(0, len(rows), size)]


def _reference_near_curve(curves, nodes, band):
    """Nodes within band of any curve's sample points: coarse-to-fine over all nodes."""
    keep = np.zeros(len(nodes), dtype=bool)
    for curve in curves:
        p = curve.points
        step = max(len(p) // 128, 1)
        coarse = p[::step]
        gap = float(np.max(np.linalg.norm(np.roll(p, -step, axis=0) - p, axis=1)))
        mind = np.concatenate(
            [np.linalg.norm(q[:, None, :] - coarse[None, :, :], axis=2).min(axis=1) for q in _blocks(nodes)]
        )
        cand = np.flatnonzero(mind <= band + gap)
        if len(cand) and step > 1:
            mind2 = np.concatenate(
                [np.linalg.norm(q[:, None, :] - p[None, :, :], axis=2).min(axis=1) for q in _blocks(nodes[cand])]
            )
            seglen = float(np.max(np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)))
            cand = cand[mind2 <= band + seglen]
        keep[cand] = True
    return np.flatnonzero(keep)


def _reference_scanline(polys, xs, ys):
    """Integer winding on the grid xs x ys, one sorted crossing list per row."""
    wind = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for poly in polys:
        a, b = poly, np.roll(poly, -1, axis=0)
        ay, by = a[:, 1], b[:, 1]
        for j, y in enumerate(ys):
            up = (ay <= y) & (by > y)
            dn = (by <= y) & (ay > y)
            hit = up | dn
            if not np.any(hit):
                continue
            t = (y - ay[hit]) / (by[hit] - ay[hit])
            xstar = a[hit, 0] + t * (b[hit, 0] - a[hit, 0])
            sign = np.where(up[hit], 1, -1)
            order = np.argsort(xstar)
            suffix = np.concatenate([np.cumsum(sign[order][::-1])[::-1], [0]])
            wind[:, j] += suffix[np.searchsorted(xstar[order], xs, side="right")]
    return wind


def _reference_aa_plane(polys, cells, xs, ys, sub=8):
    """Subcell averages, one scanline per band row and subrow."""
    n = len(ys)
    ix, iy = cells // n, cells % n
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    acc = np.zeros(len(cells))
    for row in np.unique(iy):
        sel = np.flatnonzero(iy == row)
        sub_xs = (xs[ix[sel]][:, None] + offs[None, :] * hx).ravel()
        for oy in offs:
            w = _reference_scanline(polys, sub_xs, np.array([ys[row] + oy * hy]))[:, 0]
            acc[sel] += np.sum(w.reshape(len(sel), sub), axis=1)
    return acc / (sub * sub)


def _reference_crossings(polys, probes):
    """Integer winding at scattered probes: every probe against every edge,
    signed by which side of the edge the probe lies on."""
    out = np.zeros(len(probes), dtype=np.int64)
    for poly in polys:
        a, b = poly[None], np.roll(poly, -1, axis=0)[None]
        for lo in range(0, len(probes), 256):
            px, py = probes[lo : lo + 256, 0, None], probes[lo : lo + 256, 1, None]
            is_left = (b[..., 0] - a[..., 0]) * (py - a[..., 1]) - (px - a[..., 0]) * (b[..., 1] - a[..., 1])
            up = (a[..., 1] <= py) & (b[..., 1] > py) & (is_left > 0)
            dn = (b[..., 1] <= py) & (a[..., 1] > py) & (is_left < 0)
            out[lo : lo + 256] += np.sum(up, axis=1) - np.sum(dn, axis=1)
    return out


def _reference_aa_sphere(region, cells, nodes, verts, faces):
    """Subcell averages: the winding at each face centroid, carried to the
    subcell centers by the path crossings of the refined edges near the
    face, with every band face padded to the longest edge list."""
    from capmono.quadrature import barycentric_subtriangles, spherical_triangle_areas
    from capmono.wetted import _stereographic

    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (q[..., 1] - p[..., 1]) * (
            r[..., 0] - p[..., 0]
        )

    ref = region.reference_point()
    loops = region._refined_points()
    polys = [_stereographic(p, None, ref)[0] for p in loops]
    qnode, _ = _stereographic(nodes[cells], None, ref)
    w_node = _reference_crossings(polys, qnode) + region.reference_winding
    corners = verts[faces[cells]]
    sc = np.einsum("mkb,cbx->cmkx", barycentric_subtriangles(3), corners)
    sc /= np.linalg.norm(sc, axis=-1, keepdims=True)
    areas = spherical_triangle_areas(sc[:, :, 0, :], sc[:, :, 1, :], sc[:, :, 2, :])
    centers = sc.sum(axis=2)
    centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
    m = centers.shape[1]
    qsub = _stereographic(centers.reshape(-1, 3), None, ref)[0].reshape(len(cells), m, 2)
    all_a = np.concatenate(loops)
    all_b = np.concatenate([np.roll(p, -1, axis=0) for p in loops])
    pa = np.concatenate(polys)
    pb = np.concatenate([np.roll(q, -1, axis=0) for q in polys])
    reach = np.linalg.norm(nodes[cells][:, None, :] - all_a[None, :, :], axis=2)
    seglen = float(np.max(np.linalg.norm(all_b - all_a, axis=1)))
    face_diam = float(np.max(np.linalg.norm(corners - nodes[cells][:, None, :], axis=2)))
    mask = reach <= 2.0 * face_diam + 2.0 * seglen
    kmax = max(int(np.max(np.sum(mask, axis=1))), 1)
    idx = np.argsort(~mask, axis=1, kind="stable")[:, :kmax]
    valid = np.take_along_axis(mask, idx, axis=1)
    far = np.array([1e9, 1e9])
    ea = np.where(valid[..., None], pa[idx], far)[:, None, :, :]
    eb = np.where(valid[..., None], pb[idx], far)[:, None, :, :]
    delta = []
    for c in _blocks(np.arange(len(cells)), 32):
        p0, p1 = qnode[c, None, None, :], qsub[c, :, None, :]
        s1, s2 = orient(p0, p1, ea[c]), orient(p0, p1, eb[c])
        s3, s4 = orient(ea[c], eb[c], p0), orient(ea[c], eb[c], p1)
        proper = (s1 * s2 < 0) & (s3 * s4 < 0)
        delta.append(np.sum(np.where(proper, np.where(s4 > 0, 1, -1), 0), axis=-1))
    w_sub = w_node[:, None] + np.concatenate(delta)
    return np.sum(areas * w_sub, axis=1) / np.sum(areas, axis=1)


def _reference_grid(region):
    """WettedRegion.grid() by the direct kernels: the curve band from distances
    of all nodes to all curve samples (reach 0.75 sqrt(cell) on the plane),
    one scanline per row, and on the sphere dense crossing counts with band
    faces padded to the longest edge list."""
    from capmono.quadrature import plane_grid, sphere_mesh
    from capmono.wetted import _stereographic

    if region.wetting == "plane":
        nodes, cell, xs, ys = plane_grid(region._plane_bbox(), region.grid_n)
        cellw = np.full(len(nodes), cell)
        polys = [p[:, :2] for p in region._refined_points()]
        wind = _reference_scanline(polys, xs, ys).ravel()
        wind_aa = wind.astype(float)
        cells = _reference_near_curve(region.curves, nodes, 0.75 * np.sqrt(cell))
        if len(cells):
            wind_aa[cells] = _reference_aa_plane(polys, cells, xs, ys)
    else:
        verts, faces, nodes, cellw = sphere_mesh(region.sphere_level)
        # node windings of the coarse sample polygon, every probe against every edge
        ref = region.reference_point()
        far = nodes @ ref <= 1.0 - 1e-9
        polys = [_stereographic(c.points, None, ref)[0] for c in region.curves]
        wind = np.full(len(nodes), region.reference_winding, dtype=np.int64)
        wind[far] += _reference_crossings(polys, _stereographic(nodes[far], None, ref)[0])
        wind_aa = wind.astype(float)
        cells = _reference_near_curve(region.curves, nodes, 1.1 * float(np.sqrt(np.max(cellw))))
        if len(cells):
            wind_aa[cells] = _reference_aa_sphere(region, cells, nodes, verts, faces)
    return nodes, cellw, wind, wind_aa


def _grid_cases(stock):
    cap, _ = stock.cap(2 * np.pi / 3)
    disk, _ = stock.disk(np.pi / 3)
    capball, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    pair = (circle(r=0.5, center=(-1.2, 0.0)), circle(r=0.7, center=(1.2, 0.0)))
    return {
        "cap": lambda: wetted_region(cap, grid_n=512),
        "figure-eight": lambda: WettedRegion((figure_eight(),), "plane", grid_n=256),
        "disjoint": lambda: WettedRegion(pair, "plane", grid_n=256),
        # a 1 : 4 ellipse: its bounding box makes cells four times as tall as wide
        "elongated": lambda: WettedRegion((ellipse(),), "plane", grid_n=200),
        "disk-3": lambda: wetted_region(disk, sphere_level=3),
        "disk-4": lambda: wetted_region(disk, sphere_level=4),
        "capball-3": lambda: wetted_region(capball, sphere_level=3),
        "capball-4": lambda: wetted_region(capball, sphere_level=4),
    }


@pytest.mark.parametrize(
    "case",
    ["cap", "figure-eight", "disjoint", "elongated", "disk-3", "disk-4", "capball-3", "capball-4"],
)
def test_grid_matches_reference(stock, monkeypatch, case):
    from capmono import wetted

    region = _grid_cases(stock)[case]()
    bands = []
    near_curve = wetted._near_curve

    def recording(*args, **kwargs):
        bands.append(near_curve(*args, **kwargs))
        return bands[-1]

    monkeypatch.setattr(wetted, "_near_curve", recording)
    got = region.grid()
    expect = _reference_grid(region)
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    # every antialiased node lies in the band the grid searched
    _, _, wind, wind_aa = got
    assert len(bands) == 1
    assert np.isin(np.flatnonzero(wind_aa != wind), bands[0]).all()


@pytest.mark.parametrize("level", range(3, 8))
@pytest.mark.parametrize("case", ["capball", "disk"])
def test_sphere_band_matches_flat_filter(stock, monkeypatch, case, level):
    # the band found by descending the icosphere equals the filter over every
    # face centroid, and the descent measures fewer rows than there are faces
    from capmono import wetted
    from capmono.quadrature import sphere_mesh

    surface, _ = stock.capball(2 * np.pi / 3, np.pi / 3) if case == "capball" else stock.disk(np.pi / 3)
    region = wetted_region(surface, sphere_level=level)
    _, _, nodes, cellw = sphere_mesh(level)
    band = 1.1 * float(np.sqrt(np.max(cellw)))
    rows = []
    nearest = wetted._nearest_sample

    def counting(q, samples):
        rows.append(len(q))
        return nearest(q, samples)

    monkeypatch.setattr(wetted, "_nearest_sample", counting)
    got = wetted._near_curve([c.points for c in region.curves], band, level=level)
    expect = _reference_near_curve(region.curves, nodes, band)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)
    assert sum(rows) < len(nodes)


@pytest.mark.parametrize("chunk", [3, 37, 100])
def test_grid_independent_of_block_size(stock, monkeypatch, chunk):
    from capmono import quadrature, wetted

    disk, _ = stock.disk(np.pi / 3)
    cap, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    builds = {
        "plane": lambda: WettedRegion((figure_eight(n=128),), "plane", grid_n=64),
        "sphere": lambda: wetted_region(disk, sphere_level=3),
        # a band wide enough that even the default block size splits it
        "sphere-blocks": lambda: wetted_region(cap, sphere_level=5),
    }
    blocks = []
    areas = quadrature.spherical_triangle_areas

    def counting(a, b, c):
        # _aa_sphere measures the (faces, subcells) corners of one block
        if a.ndim == 3:
            blocks.append(len(a))
        return areas(a, b, c)

    monkeypatch.setattr(quadrature, "spherical_triangle_areas", counting)
    default = {name: build().grid() for name, build in builds.items() if name != "sphere-blocks"}
    blocks.clear()
    default["sphere-blocks"] = builds["sphere-blocks"]().grid()
    step = wetted._CHUNK * 4 // 64
    assert len(blocks) >= 3 and blocks[:-1] == [step] * (len(blocks) - 1) and 0 < blocks[-1] <= step
    monkeypatch.setattr(wetted, "_CHUNK", chunk)
    for name, build in builds.items():
        got = build().grid()
        assert len(got) == len(default[name]) == 4
        for a, b in zip(got, default[name]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
