"""Winding numbers, oriented areas, rotation indices and eta integrals."""

from dataclasses import replace

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
    # the crossing-count kernel, on random and disjoint polygons; probes
    # sit at vertex heights and share heights, one edge is horizontal, and
    # with _CHUNK = 3 the probes split into many blocks
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
    # a replaced region builds its own curve atoms, and regions with built
    # atoms compare by their fields (one curve object, since curves hold arrays)
    curve = circle(n=32)
    region = WettedRegion((curve,))
    assert len(region.curve_atoms()[0]) == 32 * 8
    finer = replace(region, sphere_level=region.sphere_level + 1)
    assert finer.curve_atoms()[0] is not region.curve_atoms()[0]
    twin = WettedRegion((curve,))
    twin.curve_atoms()
    assert region == twin
    assert region != finer
    with pytest.raises(ValueError):
        replace(region, _cache={})


def test_rotation_index_examples():
    assert rotation_index(circle()) == 1
    assert rotation_index(circle(ccw=False)) == -1
    assert rotation_index(figure_eight()) == 0


def test_eta_integral_unit_circle():
    region = WettedRegion((circle(n=512),), "plane")
    assert eta_integral(region) == pytest.approx(np.pi, abs=1e-3)

    def f(p):
        return 1.0 / (p[:, 0] ** 2 + p[:, 1] ** 2 + 1.0) ** 2

    assert eta_integral(region, f) == pytest.approx(np.pi / 2, abs=1e-3)


def test_eta_matches_oriented_area_on_figure_eight():
    curve = figure_eight()
    region = WettedRegion((curve,), "plane")
    assert eta_integral(region) == pytest.approx(oriented_area(curve), abs=2e-4)
    # the two lobes wind in opposite senses
    assert sorted(winding_number(curve, [0.0, y, 0.0]) for y in (-0.6, 0.6)) == [-1, 1]


def test_eta_additive_over_disjoint_curves():
    c1 = circle(r=0.5, center=(-1.2, 0.0))
    c2 = circle(r=0.7, center=(1.2, 0.0))
    both = WettedRegion((c1, c2), "plane")
    assert eta_integral(both) == pytest.approx(np.pi * (0.5**2 + 0.7**2), abs=2e-4)


@given(st.floats(0.3, 1.4), st.floats(-0.5, 0.5))
@settings(max_examples=10, deadline=None)
def test_eta_area_matches_disk(r, cx):
    region = WettedRegion((circle(n=256, r=r, center=(cx, 0.0)),), "plane")
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
    surface, _ = stock.cap(2 * np.pi / 3)
    curve = curve_from_boundary(surface)
    lattice = [(x, y, 0.0) for x in np.linspace(-1.2, 1.2, 13) for y in np.linspace(-1.2, 1.2, 13)]
    winds = {winding_number(curve, p) for p in lattice if abs(np.hypot(p[0], p[1]) - np.sin(2 * np.pi / 3)) > 0.05}
    assert winds == {0, 1}
    _, ball_region = stock.disk(np.pi / 3)
    _, _, wind_b, _ = ball_region.grid()
    assert set(np.unique(wind_b)).issubset({0, 1})


# -- restriction of eta to balls -------------------------------------------------


def _restricted_nodes(region, every):
    """The sphere nodes and weights a reference restricts η over: the
    region's wetted nodes, the set BallRestrictedEta reads, or every grid node."""
    if every:
        nodes, cellw, _, wind_aa = region.grid()
        return nodes, wind_aa * cellw
    return region.wetted_nodes()


def _reference_restriction(region, center, arrays, key, radii, every=False):
    """Ball-restricted eta the direct way, radius by radius.

    On the sphere the sharp atomic sum over the wetted nodes (or every grid
    node), with ``arrays`` over that node set.  On the plane the Green's
    theorem sum over the curve atoms, with ``arrays`` the keys'
    antiderivatives F(rho^2): F(rho_j) times the angle increment of each
    atom inside the disk of radius r_p = sqrt(r^2 - c3^2), and F(r_p)
    times that of each atom outside."""
    out = []
    if region.wetting == "plane":
        antiderivative = {"mass": lambda rho2: 0.5 * rho2, **arrays}[key]
        points, steps = region.curve_atoms()
        rel = points[:, :2] - center[:2]
        rho2 = np.sum(rel * rel, axis=1)
        angle = (rel[:, 0] * steps[:, 1] - rel[:, 1] * steps[:, 0]) / rho2
        for r in np.atleast_1d(np.asarray(radii, dtype=float)):
            rp2 = r * r - center[2] ** 2
            inside = rho2 < rp2
            edge = antiderivative(max(rp2, 0.0)) if np.isfinite(r) else 0.0
            out.append(np.sum(antiderivative(rho2[inside]) * angle[inside]) + edge * np.sum(angle[~inside]))
        return np.array(out)
    nodes, base = _restricted_nodes(region, every)
    dist = np.linalg.norm(nodes - center, axis=1)
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    values = base[order] if key == "mass" else np.asarray(arrays[key], dtype=float)[order] * base[order]
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        out.append(float(prefix[-1] if not np.isfinite(r) else prefix[np.searchsorted(dist, r, side="left")]))
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
    """A region, a probe and its centers (on the plane two more probes, one
    on the plane; on the sphere the inverted companion)."""
    if ambient == "plane":
        surface, region = stock.cap(2 * np.pi / 3)
        x0 = np.array([0.3, -0.2, 0.5])
        return region, x0, [x0, np.array([-0.4, 0.1, 0.8]), np.array([0.3, -0.2, 0.0])]
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
    if ambient == "plane":
        # f = 1 and f = s^2 about each center, given by their antiderivatives
        nodes, _ = region.curve_atoms()
        arrays = {"one": lambda rho2: 0.5 * rho2, "fourth": lambda rho2: 0.25 * rho2**2}
    else:
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
        else:
            # a ball that misses the plane, or holds no atom
            radii = np.concatenate([radii, [0.5 * max(abs(center[2]), dist.min())]])
        for key in ("mass", *arrays):
            expect = _reference_restriction(region, center, arrays, key, [*radii, np.inf])
            got = eta.cumulative(key, [*radii, np.inf])
            if ambient == "sphere":
                assert np.array_equal(got, expect)
            else:
                np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)
            r = radii[: len(hw)]
            for over_r2, method in ((False, eta.windowed), (True, eta.windowed_over_r2)):
                expect = _reference_window(region, center, arrays, key, r, hw, over_r2)
                np.testing.assert_allclose(method(key, r, hw), expect, rtol=1e-12, atol=0.0)


def _lens_area(d, rp, big):
    """Area of the intersection of disks of radii rp and big whose centers are d apart."""
    if rp <= 0.0 or d >= rp + big:
        return 0.0
    if d <= abs(big - rp):
        return np.pi * min(big, rp) ** 2
    a = rp * rp * np.arccos((d * d + rp * rp - big * big) / (2 * d * rp))
    b = big * big * np.arccos((d * d + big * big - rp * rp) / (2 * d * big))
    return a + b - 0.5 * np.sqrt((-d + rp + big) * (d + rp - big) * (d - rp + big) * (d + rp + big))


def test_plane_eta_matches_the_lens_area(stock):
    # η(B_r(c)) on the halfspace-cap boundary (a 128 x 128 cap, theta =
    # 2 pi / 3, whose wetted region is the disk of radius sin(theta)) against
    # the closed-form lens, at 60 radii and 6 centers: inside, near and on
    # the curve, one above the plane and one outside the region.  Measured:
    # 5.8e-6; the 512^2 plane grid this replaced read 8.1e-5
    from capmono.wetted import BallRestrictedEta

    theta = 2 * np.pi / 3
    _, region = stock.cap(theta)
    centers = [(0.0, 0.0, 0.0), (0.3, -0.2, 0.0), (0.6, 0.0, 0.0), (0.2, 0.1, 0.5), (1.5, 0.3, 0.0), (0.85, 0.1, 0.2)]
    radii = np.linspace(0.06, 2.0, 60)
    worst = 0.0
    for center in map(np.array, centers):
        got = BallRestrictedEta(region, center).cumulative("mass", radii)
        d = float(np.hypot(center[0], center[1]))
        rp = np.sqrt(np.maximum(radii**2 - center[2] ** 2, 0.0))
        expect = np.array([_lens_area(d, r, np.sin(theta)) for r in rp])
        worst = max(worst, float(np.max(np.abs(got - expect))))
    assert worst <= 2e-5


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
    region, _, _ = _restriction_case(stock, "sphere")
    nodes, weight = region.eta_nodes()
    keep = weight != 0.0
    wet, wet_weight = region.wetted_nodes()
    assert 0 < len(wet) < len(nodes)
    assert np.array_equal(wet, nodes[keep]) and np.array_equal(wet_weight, weight[keep])
    assert wet.flags.f_contiguous
    # extracted once and cached
    assert region.wetted_nodes()[0] is wet
    # the plane region has no grid: its η is read from its curve atoms
    plane, _, _ = _restriction_case(stock, "plane")
    for read in (plane.grid, plane.eta_nodes, plane.wetted_nodes):
        with pytest.raises(GeometryError):
            read()
    with pytest.raises(GeometryError):
        region.curve_atoms()


def test_plane_region_caches_only_its_curve_atoms(stock):
    # probes' terms and profiles leave the plane region holding its curve
    # atoms alone, eight per boundary sample, built once for every probe
    from capmono import halfspace

    surface, _ = stock.cap(2 * np.pi / 3, res=64)
    region = wetted_region(surface)
    points, steps = region.curve_atoms()
    assert points.shape == steps.shape == (8 * len(surface.boundary_points), 3)
    assert not np.any(points[:, 2]) and not np.any(steps[:, 2])
    for x0 in ([0.175, -0.31, 0.8], [0.3, 0.2, 0.0]):
        terms = halfspace.probe_terms(surface, region, x0)
        halfspace.monotonicity_profile(surface, region, x0, np.linspace(0.25, 4.0, 8), terms=terms)
        assert terms.eta.n == len(points)
    assert list(region._cache) == ["atoms"]
    assert region.curve_atoms()[0] is points


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
    # profile per sample of the 128 x 128 cap, with the shared arrays and
    # the curve atoms built beforehand.  Measured with numpy 2.4: 230 B per
    # sample (290 B over the wetted nodes of a 64^2 plane grid); with H.x w
    # and the three columns of H w in both prefixes instead of one coupling
    # row per center it read 386 B.  The bound is 350 B.
    from capmono import halfspace

    surface, region = stock.cap(2 * np.pi / 3, res=128)
    surface.mu_arrays
    region.curve_atoms()
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


# only the sphere has a grid
@pytest.mark.parametrize("ambient", ["sphere"])
def test_compact_restriction_matches_the_full_grid(stock, ambient):
    # zero-weight sphere nodes leave sharp prefix sums unchanged, so the
    # sharp cumulatives and the exact windows keep every bit of a
    # restriction over every grid node
    from capmono.radial import RadialPrefix
    from capmono.wetted import BallRestrictedEta

    region, x0, centers = _restriction_case(stock, ambient)
    nodes, weight = _restricted_nodes(region, every=True)
    keep = weight != 0.0
    for center in centers:
        dist2 = np.sum((nodes - center) ** 2, axis=1)
        eta = BallRestrictedEta(region, center, {"dist2": dist2[keep]})
        every = RadialPrefix(nodes, center, {"mass": weight, "dist2": dist2 * weight})
        dist = np.sqrt(dist2[keep])
        r = np.linspace(0.05, 1.1, 23) * dist.max()
        hw = np.linspace(0.01, 1.2, 23) * r
        w = np.minimum(hw, 0.9 * r)
        for key in ("mass", "dist2"):
            radii = [*r, np.inf]
            assert np.array_equal(eta.cumulative(key, radii), every.cumulative(key, radii))
            assert np.array_equal(eta.windowed(key, r, hw), every.windowed(key, r, w))
            assert np.array_equal(eta.windowed_over_r2(key, r, hw), every.windowed_over_r2(key, r, w))


def test_gauss_rule_is_leggauss_on_first_use():
    # the rules are written out, so no command imports numpy.polynomial
    from capmono.wetted import _ATOM_RULE, _GAUSS

    for k, (nodes, weights) in _GAUSS.items():
        expect = np.polynomial.legendre.leggauss(k)
        assert np.array_equal(nodes, expect[0]) and np.array_equal(weights, expect[1])
        assert not nodes.flags.writeable and not weights.flags.writeable
    t, w = _ATOM_RULE
    assert len(t) == 8 and np.all((0 < t) & (t < 1)) and abs(np.sum(w) - 1.0) < 1e-15


# -- the sphere grid against the direct kernels ------------------------------------


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
    of all nodes to all curve samples, and dense crossing counts with band
    faces padded to the longest edge list."""
    from capmono.quadrature import sphere_mesh
    from capmono.wetted import _stereographic

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
    disk, _ = stock.disk(np.pi / 3)
    capball, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    return {
        "disk-3": lambda: wetted_region(disk, sphere_level=3),
        "disk-4": lambda: wetted_region(disk, sphere_level=4),
        "capball-3": lambda: wetted_region(capball, sphere_level=3),
        "capball-4": lambda: wetted_region(capball, sphere_level=4),
    }


@pytest.mark.parametrize("case", ["disk-3", "disk-4", "capball-3", "capball-4"])
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
