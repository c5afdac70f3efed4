"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; every tolerance is pinned here.
"""

import numpy as np
import pytest

from capmono import ball as bl
from capmono import energy as en
from capmono import halfspace as hs
from capmono.errors import UndefinedWindingError
from capmono.fields import position_field
from capmono.wetted import OrientedCurve, WettedRegion, eta_integral, oriented_area, winding_number

FIVE_THETAS = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6)


def lower_bound(theta):
    return 2 * np.pi * (1 - np.cos(theta))


def _report(number, name, value, limit, ok=None):
    ok = (value <= limit) if ok is None else ok
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"(measured {value:.3e}, limit {limit:.3e})")
    assert ok, f"criterion {number}: {value:.3e} exceeds {limit:.3e}"


def test_01_cap_willmore_equality(stock):
    worst = 0.0
    for theta in FIVE_THETAS:
        surface, _ = stock.cap(theta)
        rel = abs(en.willmore_energy(surface) - lower_bound(theta)) / lower_bound(theta)
        worst = max(worst, rel)
    _report(1, "cap energy equality", worst, 1e-3)


def test_02_complementary_caps(stock):
    worst = 0.0
    for theta in (np.pi / 6, np.pi / 3):
        total = en.willmore_energy(stock.cap(theta)[0]) + en.willmore_energy(
            stock.cap(np.pi - theta)[0]
        )
        worst = max(worst, abs(total - 4 * np.pi))
    _report(2, "complementary caps sum to 4 pi", worst, 2e-3 * np.pi)


def _halfspace_identity_rms(stock, res):
    surface, region = stock.cap(2 * np.pi / 3, res=res)
    bases = (np.array([0.45, 0.2, 0.0]), np.array([0.31, -0.12, 0.47]))
    vals = []
    for a in bases:
        for sigma in (0.4, 0.7, 1.0):
            for rho in (1.5, 2.2, 3.0):
                vals.append(
                    hs.monotonicity_identity_detail(surface, region, a, sigma, rho)["normalized"]
                )
    return float(np.sqrt(np.mean(np.square(vals)))), float(np.max(np.abs(vals)))


def test_03_halfspace_identity(stock):
    _, worst = _halfspace_identity_rms(stock, 96)
    _report(3, "half-space two-radius identity (normalized)", worst, 1e-3)


def test_04_monotone_profiles(stock, rng):
    surface, region = stock.cap(2 * np.pi / 3, res=192)
    center = np.array([0, 0, -np.cos(2 * np.pi / 3)])
    grid = np.linspace(0.25, 4.0, 40)
    worst = 0.0
    found = 0
    while found < 10:
        a = rng.uniform(-1.6, 1.6, 3)
        if abs(np.linalg.norm(a - center) - 1) < 0.2:
            continue
        if abs(np.linalg.norm(a * [1, 1, -1] - center) - 1) < 0.2:
            continue
        prof = hs.monotonicity_profile(surface, region, a, grid)
        worst = min(worst, prof.min_forward_difference())
        found += 1
    acute, acute_region = stock.cap(np.pi / 3, res=192)
    center3 = np.array([0, 0, -np.cos(np.pi / 3)])
    found = 0
    while found < 10:
        a = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), 0.0])
        if abs(np.linalg.norm(a - center3) - 1) < 0.25:
            continue
        prof = hs.monotonicity_profile(acute, acute_region, a, np.linspace(0.2, 3.0, 40))
        worst = min(worst, prof.min_forward_difference())
        found += 1
    _report(4, "profile forward differences", -worst, 1e-6)


def test_05_li_yau_margins(stock):
    worst_margin = 0.0
    worst_density = 0.0
    for theta in FIVE_THETAS:
        surface, region = stock.cap(theta)
        x0 = np.array([np.sin(theta), 0.0, 0.0])
        ly = en.li_yau_margin(surface, region, x0)
        worst_margin = max(worst_margin, abs(ly.density_margin))
        worst_density = max(worst_density, abs(ly.boundary_density - 0.5))
    _report(5, "embedded-cap density margin", worst_margin, 2e-2 * np.pi)
    _report(5, "boundary density near one half", worst_density, 0.01)
    perturbed, p_region = stock.perturbed_cap(2 * np.pi / 3, 0.15, 2)
    lyp = en.li_yau_margin(perturbed, p_region, perturbed.boundary_points[0])
    _report(5, "perturbed-cap margin strictly positive", -lyp.density_margin, -1e-2, ok=lyp.density_margin > 1e-2)


def test_06_ball_area_estimate(stock):
    worst = 0.0
    worst_disk = 0.0
    for theta in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        surface, region = stock.disk(theta)
        worst = max(worst, abs(en.area_estimate_margin(surface, region)))
        worst_disk = max(worst_disk, abs(en.disk_area_margin(surface)))
    _report(6, "optimal area estimate equality", worst, 1e-3 * np.pi)
    _report(6, "disk area bound equality", worst_disk, 1e-3 * np.pi)


def test_07_balance_law(stock):
    worst = 0.0
    for build in (
        lambda: stock.disk(np.pi / 3),
        lambda: stock.disk(np.pi / 2),
        lambda: stock.capball(2 * np.pi / 3, np.pi / 3),
    ):
        surface, region = build()
        worst = max(worst, abs(bl.first_variation_residual(surface, region, position_field())))
    _report(7, "position-field balance law", worst, 1e-3)
    worst_div = 0.0
    for theta in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        surface, _ = stock.disk(theta)
        worst_div = max(worst_div, en.divergence_identity_residual(surface))
    _report(7, "minimal-disk divergence identity", worst_div, 1e-4)


def _ball_identity_values(stock, nu, nv):
    disk, disk_region = stock.disk(np.pi / 3, nu=nu, nv=nv)
    capball, cb_region = stock.capball(2 * np.pi / 3, np.pi / 3, nu=nu, nv=nv)
    contact = np.array([np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])
    vals = []
    for surface, region, interior in (
        (disk, disk_region, np.array([0.2, 0.1, 0.3])),
        (capball, cb_region, np.array([0.1, -0.2, 0.5])),
    ):
        for x0 in (contact, interior, np.zeros(3)):
            vals.append(
                bl.monotonicity_identity_detail(surface, region, x0, 0.35, 1.4)["residual"]
            )
    return vals


def test_08_ball_identity(stock):
    vals = _ball_identity_values(stock, 96, 256)
    _report(8, "ball two-radius identity (both branches)", float(np.max(np.abs(vals))), 1e-3)


def test_09_sphere_point_identity(rng):
    worst = 0.0
    count = 0
    while count < 1000:
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if np.linalg.norm(u - v) < 1e-8:
            continue
        worst = max(worst, abs(bl.sphere_point_identity_residual(u, v)))
        count += 1
    _report(9, "pointwise sphere identity (1000 pairs)", worst, 1e-12)


def _ray_cast(poly, probe):
    wind = 0
    n = len(poly)
    px, py = probe
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if ay <= py < by or by <= py < ay:
            xstar = ax + (py - ay) * (bx - ax) / (by - ay)
            if xstar > px:
                wind += 1 if by > ay else -1
    return wind


def _segment_distance(poly, probe):
    a = poly
    b = np.roll(poly, -1, axis=0)
    seg = b - a
    seg2 = np.maximum(np.sum(seg**2, axis=1), 1e-300)
    t = np.clip(np.sum((probe - a) * seg, axis=1) / seg2, 0, 1)
    foot = a + t[:, None] * seg
    return float(np.min(np.linalg.norm(foot - probe, axis=1)))


def test_10_winding_oracle(rng):
    mismatches = 0
    checked = 0
    polygons = 0
    while polygons < 100:
        n = int(rng.integers(3, 13))
        poly = rng.uniform(-1, 1, (n, 2))
        lens = np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1)
        if np.any(lens < 1e-3):
            continue
        polygons += 1
        pts = np.column_stack([poly, np.zeros(n)])
        curve = OrientedCurve(pts, np.column_stack([np.roll(poly, -1, axis=0) - poly, np.zeros(n)]) / lens[:, None], lens)
        probes = 0
        while probes < 100:
            probe = rng.uniform(-1.3, 1.3, 2)
            if _segment_distance(poly, probe) < 1e-6:
                continue
            probes += 1
            checked += 1
            try:
                w = winding_number(curve, [probe[0], probe[1], 0.0])
            except UndefinedWindingError:
                continue
            mismatches += int(w != _ray_cast(poly, probe))
    _report(10, f"winding vs ray casting ({checked} probes)", float(mismatches), 0.0)
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t), np.zeros(len(t))])
    tans = np.column_stack([-np.sin(t), np.cos(t), np.zeros(len(t))])
    circle = OrientedCurve(pts, tans, np.full(len(t), 2 * np.pi / len(t)))
    region = WettedRegion((circle,), "plane")
    gap = abs(oriented_area(circle) - eta_integral(region))
    _report(10, "oriented area vs eta mass", gap, 1e-3)


def test_11_gauss_bonnet(stock):
    worst = 0.0
    surfaces = [stock.cap(theta)[0] for theta in FIVE_THETAS]
    surfaces += [stock.disk(theta)[0] for theta in (np.pi / 3, np.pi / 2, 2 * np.pi / 3)]
    surfaces.append(stock.capball(2 * np.pi / 3, np.pi / 3)[0])
    surfaces.append(stock.perturbed_cap(2 * np.pi / 3, 0.05, 2)[0])
    for surface in surfaces:
        worst = max(worst, abs(en.gauss_bonnet_residual(surface)))
    _report(11, "disk-type total curvature", worst, 1e-3)
    worst_kg = 0.0
    for theta in FIVE_THETAS:
        surface, _ = stock.cap(theta)
        expected = np.cos(theta) * surface.boundary_kg_wetting
        worst_kg = max(worst_kg, float(np.max(np.abs(surface.boundary_kg - expected))))
    for surface in (stock.disk(np.pi / 3)[0], stock.capball(2 * np.pi / 3, np.pi / 3)[0]):
        theta = surface.theta
        expected = np.cos(theta) * surface.boundary_kg_wetting + np.sin(theta)
        worst_kg = max(worst_kg, float(np.max(np.abs(surface.boundary_kg - expected))))
    _report(11, "pointwise boundary curvature relation", worst_kg, 1e-6)


def test_12_convergence_under_refinement(stock):
    coarse_rms, _ = _halfspace_identity_rms(stock, 48)
    fine_rms, _ = _halfspace_identity_rms(stock, 96)
    ratio_hs = coarse_rms / fine_rms
    _report(12, "half-space residual shrink factor", -ratio_hs, -3.0, ok=ratio_hs >= 3.0)
    coarse = _ball_identity_values(stock, 48, 128)
    fine = _ball_identity_values(stock, 96, 256)
    ratio_ball = float(np.sqrt(np.mean(np.square(coarse))) / np.sqrt(np.mean(np.square(fine))))
    _report(12, "ball residual shrink factor", -ratio_ball, -3.0, ok=ratio_ball >= 3.0)
