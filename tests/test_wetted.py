"""Winding numbers, oriented areas, rotation indices and eta integrals."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmono.errors import GeometryError, UndefinedWindingError
from capmono.quadrature import sphere_rule
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


def test_plane_winding_follows_the_hermite_curve():
    # on a 128-sample unit circle the chord midpoints sit at radius
    # cos(pi/128) = 0.9997, so the sample polygon leaves a point at radius
    # 0.9999 on a chord's mid-angle outside; the Hermite curve η follows
    # keeps it inside
    angle = np.pi / 128
    assert winding_number(circle(n=128), [0.9999 * np.cos(angle), 0.9999 * np.sin(angle), 0.0]) == 1


def test_winding_on_curve_rejected():
    with pytest.raises(UndefinedWindingError):
        winding_number(circle(), [1.0, 0.0, 0.0])


def test_winding_matches_ray_casting(rng):
    from capmono import wetted

    for _ in range(40):
        n = rng.integers(3, 12)
        poly = rng.uniform(-1, 1, (n, 2))
        pts = np.column_stack([poly, np.zeros(n)])
        tans = np.roll(pts, -1, axis=0) - pts
        lens = np.linalg.norm(tans, axis=1)
        if np.any(lens < 1e-6):
            continue
        curve = OrientedCurve(pts, tans / lens[:, None], lens)
        # the count follows the curve's Hermite loop, so the oracle casts against it
        loop = wetted._refined_loop(curve, "plane")[:, :2]
        for _ in range(25):
            probe = rng.uniform(-1.3, 1.3, 2)
            d = np.min(np.linalg.norm(poly - probe, axis=1))
            if d < 1e-3:
                continue
            try:
                w = winding_number(curve, [probe[0], probe[1], 0.0])
            except UndefinedWindingError:
                continue
            assert w == ray_cast_winding(loop, probe)


def test_scattered_winding_matches_ray_casting(rng):
    # the crossing count, on random and disjoint polygons; probes sit at
    # vertex heights and share heights, and one edge is horizontal
    from capmono import wetted

    polygons = [[rng.uniform(-1, 1, (int(rng.integers(3, 12)), 2))] for _ in range(20)]
    flat = np.array([[-0.6, 0.2], [0.5, 0.2], [0.1, 0.9], [-0.3, -0.4]])
    polygons.append([flat])
    polygons.append([flat - 1.5, rng.uniform(0.5, 1.5, (7, 2)), 0.3 * flat + [1.5, -1.0]])
    for polys in polygons:
        verts = np.concatenate(polys)
        probes = rng.uniform(-2.0, 2.0, (200, 2))
        probes[:40, 1] = rng.choice(verts[:, 1], 40)
        probes[40:80, 1] = probes[40, 1]
        for probe in probes:
            got = wetted._winding_at(polys, probe)
            assert type(got) is int
            assert got == sum(ray_cast_winding(p, probe) for p in polys)


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
    # the unit circle is the sphere's equator too
    other = replace(region, wetting="sphere")
    assert other.curve_atoms()[0] is not region.curve_atoms()[0]
    twin = WettedRegion((curve,))
    twin.curve_atoms()
    assert region == twin
    assert region != other
    with pytest.raises(ValueError):
        replace(region, _cache={})


def test_rotation_index_examples():
    assert rotation_index(circle()) == 1
    assert rotation_index(circle(ccw=False)) == -1
    assert rotation_index(figure_eight()) == 0


def test_eta_integral_unit_circle():
    from capmono.wetted import BallRestrictedEta

    region = WettedRegion((circle(n=512),), "plane")
    assert eta_integral(region) == pytest.approx(np.pi, abs=1e-3)
    # f = 1 / (1 + rho^2)^2 about the origin, given by its antiderivative
    eta = BallRestrictedEta(region, np.zeros(3), {"f": lambda rho2: 0.5 * (1.0 - 1.0 / (1.0 + rho2))})
    assert float(eta.cumulative("f", np.inf)[0]) == pytest.approx(np.pi / 2, abs=1e-3)


def test_plane_eta_integral_is_the_green_total():
    # the Green total of the atoms is the whole-plane restriction about any
    # center, on or off the plane, and the curve's oriented area
    from capmono.wetted import BallRestrictedEta

    both = (circle(r=0.5, center=(-1.2, 0.0)), circle(r=0.7, center=(1.2, 0.0)))
    for curves in ((figure_eight(),), both):
        region = WettedRegion(curves, "plane")
        total = eta_integral(region)
        for center in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.0], [0.1, 0.4, 0.7], [-1.2, 0.0, -0.3]):
            whole = float(BallRestrictedEta(region, np.array(center)).cumulative("mass", np.inf)[0])
            assert whole == pytest.approx(total, rel=1e-12)
        assert total == pytest.approx(oriented_area(curves), abs=2e-4)


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
    for sample in (surface.boundary_points[0], surface.boundary_points[17]):
        with pytest.raises(UndefinedWindingError):
            spherical_winding_number(region, sample)
    curve = curve_from_boundary(surface)
    assert rotation_index(curve, "sphere") == 1


def test_spherical_gauss_bonnet_area_agreement():
    # eta-area of the wetted cap against the turning identity, both sides
    # computed independently; the flat disk's equator has no barycenter
    # and is projected from its area vector's antipode
    from capmono.surfaces import geodesic_disk_ball, sample_chart, spherical_cap_ball

    for chart in (geodesic_disk_ball(np.pi / 3), geodesic_disk_ball(np.pi / 2), spherical_cap_ball(2 * np.pi / 3, np.pi / 3)):
        surface = sample_chart(chart, 48, 512)
        region = wetted_region(surface)
        eta_area = eta_integral(region)
        kgt = float(np.sum(surface.boundary_kg_wetting * surface.boundary_weights))
        ind = rotation_index(curve_from_boundary(surface), "sphere")
        assert ind == 1
        assert abs(eta_area - (2 * np.pi * ind - kgt)) < 1e-4


def _sphere_loop(axis, alpha, n, sign):
    """Circle of angular radius alpha about a unit axis orthogonal to e1, counterclockwise about the axis for sign 1."""
    axis = np.asarray(axis, dtype=float)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.cross(axis, e1)
    t = sign * np.linspace(0, 2 * np.pi, n, endpoint=False)
    c, s = np.cos(t)[:, None], np.sin(t)[:, None]
    pts = np.cos(alpha) * axis + np.sin(alpha) * (c * e1 + s * e2)
    return OrientedCurve(pts, sign * (c * e2 - s * e1), np.full(n, 2 * np.pi * np.sin(alpha) / n))


def test_sphere_winding_at_the_reference_point_matches_its_neighbourhood():
    # a cap loop at colatitude pi/3 and a loop of angular radius 0.02,
    # clockwise about -e3, the reference point: no curve passes between -e3
    # and a point 1e-4 from it, so both read the reference winding
    region = WettedRegion((_sphere_loop([0, 0, 1], np.pi / 3, 256, 1), _sphere_loop([0, 0, -1], 0.02, 64, -1)), "sphere")
    assert np.allclose(region.reference_point(), [0.0, 0.0, -1.0], rtol=0.0, atol=1e-15)
    assert region.reference_winding == -1
    assert spherical_winding_number(region, [0, 0, -1]) == spherical_winding_number(region, [0, 1e-4, -1]) == -1
    # the band between the loops reads 0 and the cap 1
    assert spherical_winding_number(region, [1, 0, 0]) == 0
    assert spherical_winding_number(region, [0, 0, 1]) == 1


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
    disk, ball_region = stock.disk(np.pi / 3)
    nodes, _ = sphere_rule(2)
    away = np.min(np.linalg.norm(nodes[:, None, :] - disk.boundary_points[None, :, :], axis=2), axis=1) > 0.05
    assert {spherical_winding_number(ball_region, x) for x in nodes[away]} == {0, 1}


# -- restriction of eta to balls -------------------------------------------------


def _reference_restriction(region, center, arrays, key, radii):
    """Ball-restricted eta the direct way, radius by radius, over the curve atoms.

    On the plane the Green's theorem sum, with ``arrays`` the keys'
    antiderivatives F(rho^2): F(rho_j) times the angle increment of each
    atom inside the disk of radius r_p = sqrt(r^2 - c3^2), and F(r_p)
    times that of each atom outside.  On the sphere the Stokes sum, with
    ``arrays`` the keys' antiderivatives P(u), u = 1 - x.c-hat: P(u_j)
    times the azimuth increment of each atom inside the ball, and P(u_r)
    times that of each atom outside plus 2 pi times the winding at -c-hat,
    read by ``spherical_winding_number``."""
    out = []
    points, steps = region.curve_atoms()
    if region.wetting == "plane":
        antiderivative = {"mass": lambda rho2: 0.5 * rho2, **arrays}[key]
        rel = points[:, :2] - center[:2]
        rho2 = np.sum(rel * rel, axis=1)
        angle = (rel[:, 0] * steps[:, 1] - rel[:, 1] * steps[:, 0]) / rho2
        for r in np.atleast_1d(np.asarray(radii, dtype=float)):
            rp2 = r * r - center[2] ** 2
            inside = rho2 < rp2
            edge = antiderivative(max(rp2, 0.0)) if np.isfinite(r) else 0.0
            out.append(np.sum(antiderivative(rho2[inside]) * angle[inside]) + edge * np.sum(angle[~inside]))
        return np.array(out)
    antiderivative = {"mass": lambda u: u, **arrays}[key]
    m = np.linalg.norm(center)
    axis = center / m
    t = points @ axis
    angle = np.cross(points, steps) @ axis / (1.0 - t * t)
    pole = 2 * np.pi * spherical_winding_number(region, -axis)
    dist = np.linalg.norm(points - center, axis=1)
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        inside = dist < r
        ur = min(max((r * r - (1.0 - m) ** 2) / (2.0 * m), 0.0), 2.0)
        out.append(np.sum(antiderivative(1.0 - t[inside]) * angle[inside]) + antiderivative(ur) * (np.sum(angle[~inside]) + pole))
    return np.array(out)


def _reference_window(region, center, arrays, key, r, halfwidth, over_r2):
    w = np.minimum(halfwidth, 0.9 * r)
    xs, ws = np.polynomial.legendre.leggauss(5)
    out = np.zeros(len(r))
    for xk, wk in zip(xs, ws):
        s = np.maximum(r + xk * w, 1e-12)
        val = _reference_restriction(region, center, arrays, key, s)
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
    _, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    x0 = np.array([0.2, 0.1, 0.5])
    return region, x0, [x0, x0 / np.dot(x0, x0)]


@pytest.mark.parametrize("ambient", ["plane", "sphere"])
@pytest.mark.parametrize("reverse", [False, True])
def test_ball_restriction_matches_reference(stock, ambient, reverse):
    from capmono.wetted import BallRestrictedEta

    region, x0, centers = _restriction_case(stock, ambient)
    # the sphere reference reads the winding at -c-hat, which the
    # restriction replaces by |T|: the two differ by the atoms' quadrature
    # error of |T| about two axes
    rtol = 1e-12 if ambient == "plane" else RTOL_SPHERE
    # neither the order of the centers nor an earlier center may matter
    if reverse:
        centers = centers[::-1]
    nodes, _ = region.curve_atoms()
    if ambient == "plane":
        # f = 1 and f = s^2 about each center, given by their antiderivatives
        arrays = {"one": lambda rho2: 0.5 * rho2, "fourth": lambda rho2: 0.25 * rho2**2}
    else:
        # g = 1 and g = 2 u about each center's axis
        arrays = {"one": lambda u: u, "square": lambda u: u * u}
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
            np.testing.assert_allclose(got, expect, rtol=rtol, atol=1e-15)
            r = radii[: len(hw)]
            for over_r2, method in ((False, eta.windowed), (True, eta.windowed_over_r2)):
                expect = _reference_window(region, center, arrays, key, r, hw, over_r2)
                np.testing.assert_allclose(method(key, r, hw), expect, rtol=rtol, atol=0.0)


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


# the relative gap between the sphere restriction, whose edge term reads
# |T|, and the reference, which reads the winding at -c-hat instead
RTOL_SPHERE = 1e-9


def _cap_lens(a, alpha, beta):
    """Area of the intersection of spherical caps of angular radii a and alpha whose centers are beta apart."""
    if beta >= a + alpha:
        return 0.0
    if beta <= abs(a - alpha):
        return 2 * np.pi * (1 - np.cos(min(a, alpha)))
    ca, cb, cab = np.cos(a), np.cos(alpha), np.cos(beta)
    sa, sb, sab = np.sin(a), np.sin(alpha), np.sin(beta)

    def angle(x):
        return np.arccos(np.clip(x, -1.0, 1.0))

    return 2 * (
        np.pi - angle((cab - ca * cb) / (sa * sb)) - ca * angle((cb - cab * ca) / (sab * sa)) - cb * angle((ca - cab * cb) / (sab * sb))
    )


def _sphere_center(m, colatitude, longitude=0.7):
    return m * np.array([np.sin(colatitude) * np.cos(longitude), np.sin(colatitude) * np.sin(longitude), np.cos(colatitude)])


def test_sphere_eta_matches_the_lens_area(stock):
    # η(B_r(c)) on the ball-cap boundary (96 x 256, theta = 2 pi / 3, whose
    # wetted region is the cap of angular radius pi / 3 about e3) against
    # the closed-form lens of two spherical caps, at 25 radii from where
    # the ball first meets the sphere to where it holds all of it, for
    # three distances |c| and five colatitudes of c: at pi / 3 c-hat lies
    # on the curve, at 2 pi / 3 its antipode does.  Measured: 1.3e-6; the
    # level-5 sphere grid this replaced read 5.1e-3
    from capmono.wetted import BallRestrictedEta

    _, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    worst = 0.0
    for m in (0.4, 1.0, 2.5):
        radii = np.linspace(abs(1.0 - m), 1.0 + m, 25)
        # the cap about c-hat that the ball cuts out of the sphere
        cut = np.arccos(1.0 - np.clip((radii**2 - (1.0 - m) ** 2) / (2.0 * m), 0.0, 2.0))
        for colatitude in (0.3, np.pi / 3, 2.0, 2 * np.pi / 3, np.pi - 1e-9):
            got = BallRestrictedEta(region, _sphere_center(m, colatitude)).cumulative("mass", radii)
            expect = np.array([_cap_lens(a, np.pi / 3, colatitude) for a in cut])
            worst = max(worst, float(np.max(np.abs(got - expect))))
    assert worst <= 1e-5


def _graded_panels(u0, u1, breaks, points=24, levels=12):
    """Gauss nodes and weights on [u0, u1], graded geometrically toward u0 and each break."""
    knots = {u0, u1}
    for b in (u0, *breaks):
        if u0 <= b <= u1:
            knots.add(b)
            for k in range(1, levels):
                for side in (-1, 1):
                    knots.add(min(max(b + side * 0.5**k * (u1 - u0), u0), u1))
    knots = np.array(sorted(knots))
    x, w = np.polynomial.legendre.leggauss(points)
    lo, hi = knots[:-1, None], knots[1:, None]
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel(), (0.5 * (hi - lo) * w).ravel()


def _projection_reference(center, radius, alpha=np.pi / 3):
    """int of the projection integrand over the cap {x3 >= cos alpha} cut by B_r(c), in u = 1 - x.c-hat.

    The circle u = const about c-hat meets the cap in an arc of closed-form
    length; the integrand and the arc length are integrated on panels
    graded toward u = 0 and toward the arc's tangencies.
    """
    m = np.linalg.norm(center)
    beta = np.arccos(center[2] / m)
    ur = min(max((radius**2 - (1.0 - m) ** 2) / (2.0 * m), 0.0), 2.0)
    tangencies = [1.0 - np.cos(beta - alpha), 1.0 - np.cos(beta + alpha)]
    u, w = _graded_panels(0.0, ur, tangencies)
    t = 1.0 - u
    cos_arc = (np.cos(alpha) - t * np.cos(beta)) / (np.sqrt(np.maximum(1.0 - t * t, 1e-300)) * np.sin(beta))
    arc = 2.0 * np.arccos(np.clip(cos_arc, -1.0, 1.0))
    g = ((1.0 - m * t) / ((1.0 - m) ** 2 + 2.0 * m * u)) ** 2
    return float(np.sum(g * arc * w))


def test_sphere_projection_restriction_matches_a_fine_reference(stock):
    # the ball's wetted projection key, restricted by its closed-form
    # antiderivative, against a graded quadrature of the integrand over the
    # lens.  At c = (0.1, 0.2, -0.9) the integrand peaks at 1 / (1 - |c|)^2
    # = 1.9e2 next to c-hat; an antiderivative taken by 40-point Gauss
    # quadrature was off there by 6.6e-2.  At |c| = 1 the integrand is 1/4
    # and the general closed form reads 0/0.
    from capmono.ball import _projection_antiderivative
    from capmono.wetted import BallRestrictedEta

    _, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    for center in (np.array([0.1, 0.2, -0.9]), np.array([0.6, 0.0, -0.8]), _sphere_center(1.0, np.pi / 3)):
        m = float(np.linalg.norm(center))
        eta = BallRestrictedEta(region, center, {"proj": _projection_antiderivative(m)})
        radii = np.linspace(abs(1.0 - m), 1.0 + m, 13)[1:]
        got = eta.cumulative("proj", radii)
        expect = np.array([_projection_reference(center, r) for r in radii])
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-5)
        if m == 1.0:
            np.testing.assert_allclose(got, 0.25 * eta.cumulative("mass", radii), rtol=1e-12)


def test_sphere_area_reads_the_reference_winding(stock):
    # |T| about the barycenter axis: the ball-cap's cap (winding 0 at the
    # reference point), the same curve reversed, which wets the complement
    # (winding 1 there), and the flat theta = pi / 2 disk, whose equator has
    # no barycenter and falls back to the area vector
    _, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    (curve,) = region.curves
    reverse = WettedRegion((OrientedCurve(curve.points[::-1], -curve.tangents[::-1], curve.weights[::-1]),), "sphere")
    _, flat = stock.disk(np.pi / 2)
    for wetted, winding, area in ((region, 0, np.pi), (reverse, 1, 3 * np.pi), (flat, 0, 2 * np.pi)):
        assert wetted.reference_winding == winding
        assert abs(eta_integral(wetted) - area) <= 1e-7


def test_sphere_winding_loops_hold_every_sample(stock):
    # the loops carry 8 vertices per boundary segment on its Hermite curve,
    # the first of them the segment's sample itself
    for _, region in (stock.capball(2 * np.pi / 3, np.pi / 3), stock.disk(np.pi / 3)):
        for curve, loop in zip(region.curves, region._refined_points()):
            assert loop.shape == (8 * len(curve.points), 3)
            assert loop[::8].tobytes() == curve.points.tobytes()
            assert np.max(np.abs(np.linalg.norm(loop, axis=1) - 1.0)) <= 1e-15


def test_sphere_eta_divergence_matches_a_fine_reference(stock):
    # the flux through the curve against int (div_S X - 2 X.x) deta over the
    # cap {x3 >= cos(pi/3)}, by an 800 x 1600 Gauss rule in the polar angle
    # and the azimuth, taken 100 polar rows at a time, for X = e3, x, a
    # rotation and a radial cutoff.  The cutoff's divergence has kinks, which
    # a 400 x 800 rule misreads by 2.1e-5; at 800 x 1600 the two sides
    # differ by 1.3e-7
    from capmono.fields import constant_field, position_field, radial_cutoff_field, rotation_field
    from capmono.quadrature import gauss_legendre
    from capmono.wetted import eta_divergence

    _, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    phis, wphis = gauss_legendre(800, 0.0, np.pi / 3)
    psi, wpsi = gauss_legendre(1600, 0.0, 2 * np.pi)
    fields = (
        constant_field((0.0, 0.0, 1.0)),
        position_field(),
        rotation_field([1.0, 2.0, -0.5]),
        radial_cutoff_field([0.1, -0.4, 0.6], 0.4, 1.5),
    )
    for field in fields:
        expect = 0.0
        for lo in range(0, len(phis), 100):
            phi, azimuth = (a.ravel() for a in np.meshgrid(phis[lo : lo + 100], psi, indexing="ij"))
            weights = np.outer(wphis[lo : lo + 100], wpsi).ravel() * np.sin(phi)
            x = np.column_stack([np.sin(phi) * np.cos(azimuth), np.sin(phi) * np.sin(azimuth), np.cos(phi)])
            jac = field.jacobian(x)
            div = np.trace(jac, axis1=1, axis2=2) - np.einsum("ni,nij,nj->n", x, jac, x)
            expect += float(np.sum((div - 2.0 * np.sum(field(x) * x, axis=1)) * weights))
        assert abs(eta_divergence(region, field) - expect) <= 1e-6, field.name


def test_neither_region_has_a_grid(stock):
    # η is read from the curve atoms on both wetting surfaces; the sphere's
    # atoms lie on the unit sphere with steps tangent to it
    for region, _, _ in (_restriction_case(stock, "sphere"), _restriction_case(stock, "plane")):
        with pytest.raises(GeometryError):
            region.grid()
    points, steps = _restriction_case(stock, "sphere")[0].curve_atoms()
    assert points.flags.f_contiguous and steps.flags.f_contiguous
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-15
    assert np.max(np.abs(np.sum(points * steps, axis=1))) <= 1e-15


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
        halfspace.monotonicity_profile(terms, np.linspace(0.25, 4.0, 8))
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
    eta_integral(region)
    x0 = [0.2, 0.1, 0.4]

    def build():
        terms = ball.probe_terms(surface, region, x0)
        ball.monotonicity_profile(terms, np.linspace(0.25, 4.0, 40))

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
        halfspace.monotonicity_profile(terms, np.linspace(0.25, 4.0, 40))

    assert _traced_peak(build) < 350 * len(surface.points)


def test_gauss_rule_is_leggauss_on_first_use():
    # the rules are written out, so no command imports numpy.polynomial
    from capmono.wetted import _ATOM_RULE, _GAUSS

    for k, (nodes, weights) in _GAUSS.items():
        expect = np.polynomial.legendre.leggauss(k)
        assert np.array_equal(nodes, expect[0]) and np.array_equal(weights, expect[1])
        assert not nodes.flags.writeable and not weights.flags.writeable
    t, w = _ATOM_RULE
    assert len(t) == 8 and np.all((0 < t) & (t < 1)) and abs(np.sum(w) - 1.0) < 1e-15
