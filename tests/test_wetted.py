"""Winding numbers, oriented areas, rotation indices and eta integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmono.errors import GeometryError, UndefinedWindingError
from capmono.wetted import (
    OrientedCurve,
    WettedRegion,
    curve_from_boundary,
    eta_integral,
    eta_integral_with_error,
    oriented_area,
    rotation_index,
    spherical_winding_number,
    total_boundary_measure,
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


def test_oriented_area_examples():
    assert oriented_area(circle()) == pytest.approx(np.pi, abs=1e-6)
    assert oriented_area(circle(ccw=False)) == pytest.approx(-np.pi, abs=1e-6)
    assert oriented_area(square()) == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(GeometryError):
        oriented_area(OrientedCurve(circle().points, circle().tangents, circle().weights, closed=False))


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
    val, err = eta_integral_with_error(region, f)
    assert abs(val - np.pi / 2) < max(10 * err, 1e-3)


def test_eta_matches_oriented_area_on_figure_eight():
    curve = figure_eight()
    region = WettedRegion((curve,), "plane", grid_n=512)
    assert eta_integral(region) == pytest.approx(oriented_area(curve), abs=2e-4)
    assert region.min_winding() == -1


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
    assert total_boundary_measure(surface) == pytest.approx(2 * np.pi, rel=1e-6)
    cap, _ = stock.cap(2 * np.pi / 3)
    assert total_boundary_measure(cap) == pytest.approx(2 * np.pi * np.sin(2 * np.pi / 3), rel=1e-6)
    disk, _ = stock.disk(np.pi / 3)
    assert total_boundary_measure(disk) == pytest.approx(np.sqrt(3) * np.pi, rel=1e-6)


def test_wind_binary_for_embedded_generators(stock):
    _, region = stock.cap(2 * np.pi / 3)
    _, _, wind, _ = region.grid()
    assert set(np.unique(wind)).issubset({0, 1})
    _, ball_region = stock.disk(np.pi / 3)
    _, _, wind_b, _ = ball_region.grid()
    assert set(np.unique(wind_b)).issubset({0, 1})


# -- restriction of eta to balls -------------------------------------------------


def _reference_restriction(region, center, arrays, key, radii):
    """Ball-restricted eta the direct way: fresh subcell geometry, and one
    coverage fraction per call and key.  Mirrors BallRestrictedEta's rule
    (sorted prefix sums, a band of partial cells, exact disk overlap on the
    plane and depth-3 subcells on the sphere) without any of its caches."""
    from capmono.quadrature import barycentric_subtriangles, sphere_mesh, spherical_triangle_areas
    from capmono.wetted import _disk_cell_overlap

    nodes, cellw, _, wind_aa = region.grid()
    dist = np.linalg.norm(nodes - center, axis=1)
    order = np.argsort(dist, kind="stable")
    dist, nodes = dist[order], nodes[order]
    base = (wind_aa * cellw)[order]
    values = base if key == "mass" else np.asarray(arrays[key], dtype=float)[order] * base
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    if region.wetting == "plane":
        h = np.sqrt(float(cellw[0]))
        band = 0.71 * h
    else:
        verts, faces, _, _ = sphere_mesh(region.sphere_level)
        band = 1.05 * np.sqrt(float(np.max(cellw)))
    out = []
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        if not np.isfinite(r):
            out.append(float(prefix[-1]))
            continue
        total = float(prefix[np.searchsorted(dist, r, side="left")])
        lo = np.searchsorted(dist, r - band, side="left")
        hi = np.searchsorted(dist, r + band, side="left")
        if hi > lo:
            if region.wetting == "plane":
                rp2 = r**2 - center[2] ** 2
                if rp2 <= 0.0:
                    frac = np.zeros(hi - lo)
                else:
                    x0, y0 = nodes[lo:hi, 0] - center[0], nodes[lo:hi, 1] - center[1]
                    frac = _disk_cell_overlap(x0, y0, h, np.sqrt(rp2)) / (h * h)
            else:
                sc = np.einsum("mkb,cbx->cmkx", barycentric_subtriangles(3), verts[faces[order[lo:hi]]])
                sc /= np.linalg.norm(sc, axis=-1, keepdims=True)
                areas = spherical_triangle_areas(sc[:, :, 0, :], sc[:, :, 1, :], sc[:, :, 2, :])
                sub = sc.sum(axis=2)
                sub /= np.linalg.norm(sub, axis=-1, keepdims=True)
                inside = np.linalg.norm(sub - center, axis=2) < r
                frac = np.sum(areas * inside, axis=1) / np.sum(areas, axis=1)
            sharp = (dist[lo:hi] < r).astype(float)
            total += float(np.sum(values[lo:hi] * (frac - sharp)))
        out.append(total)
    return np.array(out)


def _reference_window(region, center, arrays, key, r, halfwidth, over_r2):
    xs, ws = np.polynomial.legendre.leggauss(5)
    w = np.minimum(halfwidth, 0.9 * r)
    out = np.zeros(len(r))
    for xk, wk in zip(xs, ws):
        s = np.maximum(r + xk * w, 1e-12)
        val = _reference_restriction(region, center, arrays, key, s)
        if over_r2:
            val = val / s**2
        out = out + 0.5 * wk * val
    return out


@pytest.mark.parametrize("ambient", ["plane", "sphere"])
@pytest.mark.parametrize("reverse", [False, True])
def test_ball_restriction_matches_reference(stock, ambient, reverse):
    from capmono.wetted import BallRestrictedEta

    if ambient == "plane":
        surface, _ = stock.cap(2 * np.pi / 3)
        region = wetted_region(surface, grid_n=256)
        x0 = np.array([0.3, -0.2, 0.5])
        centers = [x0, np.array([-0.4, 0.1, 0.8])]
    else:
        surface, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
        region = wetted_region(surface, sphere_level=4)
        x0 = np.array([0.2, 0.1, 0.5])
        centers = [x0, x0 / np.dot(x0, x0)]
    # a fresh region per order, so the shared subcell store starts empty
    if reverse:
        centers = centers[::-1]
    nodes, _, _, wind_aa = region.grid()
    arrays = {"one": np.ones(len(nodes)), "dist2": np.sum((nodes - x0) ** 2, axis=1)}
    for center in centers:
        eta = BallRestrictedEta(region, center, arrays)
        dist = np.linalg.norm(nodes[wind_aa != 0] - center, axis=1)
        radii = np.quantile(dist, [0.2, 0.5, 0.8])
        hw = 0.1 * radii[:2]
        for key in ("mass", *arrays):
            expect = _reference_restriction(region, center, arrays, key, [*radii, np.inf])
            assert np.array_equal(eta.cumulative(key, [*radii, np.inf]), expect)
            for over_r2, method in ((False, eta.windowed), (True, eta.windowed_over_r2)):
                expect = _reference_window(region, center, arrays, key, radii[:2], hw, over_r2)
                assert np.array_equal(method(key, radii[:2], hw), expect)


def test_ball_restriction_shared_store_under_threads(stock):
    # more workers than cores fill one region's subcell store at once, with
    # frequent thread switches; a face read before its rows are written, or
    # a lost fill, would change some restricted mass
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from capmono.wetted import BallRestrictedEta

    surface, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    centers = [np.array([0.2 * k, 0.1, 0.5 - 0.1 * k]) for k in range(6)]
    radii = np.linspace(0.2, 1.6, 12)

    def masses(region, center):
        return BallRestrictedEta(region, center).cumulative("mass", radii)

    serial = [masses(wetted_region(surface, sphere_level=4), c) for c in centers]
    region = wetted_region(surface, sphere_level=4)
    region.grid()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(masses, region, c) for c in centers]
            shared = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, shared):
        assert np.array_equal(a, b)
