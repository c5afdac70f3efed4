"""Ball monotonicity: inversion-weighted pairs, identities, first variation."""

import numpy as np
import pytest

from capmono import ball as bl
from capmono.errors import GeometryError, NoHatBallError
from capmono.fields import position_field, rotation_field, zero_field

CONTACT3 = np.array([np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])


def test_free_boundary_collapse(stock):
    # at theta = pi/2 the wetted corrections vanish term by term
    surface, region = stock.disk(np.pi / 2)
    x0 = np.array([1.0, 0.0, 0.0])
    for r in (0.4, 0.9, 1.7):
        g, g_hat = bl.free_boundary_radial_pair(surface, x0, r)
        m = bl.probe_terms(surface, region, x0).members(r)
        gt, gt_hat = m["g"], m["g_hat"]
        assert g == pytest.approx(gt[0], abs=1e-14)
        assert g_hat == pytest.approx(gt_hat[0], abs=1e-14)


def test_pair_minimal_surface_drops_curvature_terms(stock):
    surface, _ = stock.disk(np.pi / 3)
    x0 = np.array([0.0, 0.3, 0.1])
    g, _ = bl.free_boundary_radial_pair(surface, x0, 0.5)
    prefixless = np.sum(surface.weights[np.linalg.norm(surface.points - x0, axis=1) < 0.5])
    assert g == pytest.approx(prefixless / (np.pi * 0.25), rel=0.2)


def test_pair_on_sphere_centers_match(stock):
    surface, region = stock.disk(np.pi / 3)
    x0 = CONTACT3
    m = bl.probe_terms(surface, region, x0).members(0.8)
    g, g_hat = m["g"], m["g_hat"]
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(g_hat))


def test_pair_functions_base_points(stock):
    # the free pair needs the inverted companion of x0, which the origin
    # lacks; the probe's terms answer there with the origin branch's pair
    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    origin = np.zeros(3)
    with pytest.raises(NoHatBallError):
        bl.free_boundary_radial_pair(surface, origin, 0.8)
    terms = bl.probe_terms(surface, region, origin)
    assert terms.BRANCH == bl.ORIGIN
    m = terms.members(0.8)
    g, g_hat = m["g"], m["g_hat"]
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(g_hat))
    # anywhere else both take the general branch
    free = bl.free_boundary_radial_pair(surface, CONTACT3, 0.8)
    m = bl.probe_terms(surface, region, CONTACT3).members(0.8)
    capillary = m["g"], m["g_hat"]
    assert np.all(np.isfinite(free)) and np.all(np.isfinite(capillary))


def test_identity_flat_disk(stock):
    surface, region = stock.disk(np.pi / 3)
    for sigma, rho in ((0.3, 1.2), (0.5, 1.5)):
        detail = bl.monotonicity_identity_detail(bl.probe_terms(surface, region, CONTACT3), sigma, rho)
        assert abs(detail["residual"]) < 1e-3
        assert detail["branch"] == bl.GENERAL


def test_identity_origin_branch(stock):
    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    detail = bl.monotonicity_identity_detail(bl.probe_terms(surface, region, np.zeros(3)), 0.2, 1.5)
    assert detail["branch"] == bl.ORIGIN
    assert abs(detail["residual"]) < 1e-3
    # the base point sits on the generating sphere, so the square integrand
    # cancels identically
    assert abs(detail["square"]) < 1e-12


def test_origin_detail_scale_is_the_larger_increment(stock):
    # the origin identity equates one square integral with the increment of
    # g + g_hat taken as one term; split into g and g_hat, the scale would
    # pick up |delta g| and the normalized residual would shrink by orders
    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    terms = bl.probe_terms(surface, region, np.zeros(3))
    r = np.array([0.2, 1.5])
    members = terms.members(r)
    d_pair = float(np.diff(members["g"] + members["g_hat"])[0])
    d_square = float(np.diff(members["square"])[0])
    detail = bl.monotonicity_identity_detail(terms, *r)
    assert detail["branch"] == bl.ORIGIN
    assert detail["residual"] == d_square - d_pair
    assert detail["normalized"] == detail["residual"] / max(abs(d_square), abs(d_pair), 1e-12)


def test_identity_interior_point(stock):
    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    detail = bl.monotonicity_identity_detail(bl.probe_terms(surface, region, [0.2, 0.1, 0.4]), 0.3, 1.4)
    assert abs(detail["residual"]) < 1e-3


def test_identity_degenerate_pair(stock):
    surface, region = stock.disk(np.pi / 3)
    assert bl.monotonicity_identity_detail(bl.probe_terms(surface, region, [0.2, 0.0, 0.1]), 0.7, 0.7)["residual"] == 0.0


def test_profiles_monotone_obtuse_regime(stock):
    # theta in [pi/2, pi): the combined profile must not decrease
    for surface, region in (stock.disk(np.pi / 2), stock.capball(2 * np.pi / 3, np.pi / 3, nu=160, nv=384)):
        for x0 in (np.array([0.5, 0.1, 0.3]), np.array([0.2, -0.6, -0.2]), np.zeros(3)):
            prof = bl.monotonicity_profile(bl.probe_terms(surface, region, x0), np.linspace(0.2, 2.5, 40))
            assert prof.min_forward_difference() >= -1e-6, (x0, prof.branch)


def test_profile_remainder_decays(stock):
    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    prof = bl.monotonicity_profile(bl.probe_terms(surface, region, [0.4, 0.0, 0.2]), np.linspace(0.02, 0.3, 10))
    assert abs(prof.remainder[0]) < 5e-2
    assert abs(prof.remainder[0]) < abs(prof.remainder[-1]) + 5e-2


def test_first_variation_position_field(stock):
    for surface, region in (
        stock.disk(np.pi / 3),
        stock.disk(np.pi / 2),
        stock.capball(2 * np.pi / 3, np.pi / 3),
    ):
        assert abs(bl.first_variation_residual(surface, region, position_field())) < 1e-3


def test_first_variation_rotation_field(stock):
    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    for axis in ([0, 0, 1.0], [1.0, 0, 0], [0.3, -0.5, 0.8]):
        assert abs(bl.first_variation_residual(surface, region, rotation_field(axis))) < 1e-3


def test_first_variation_zero_field(stock):
    surface, region = stock.disk(np.pi / 3)
    assert bl.first_variation_residual(surface, region, zero_field()) == 0.0


def test_sphere_point_identity(rng):
    worst = 0.0
    for _ in range(1000):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if np.linalg.norm(u - v) < 1e-8:
            continue
        worst = max(worst, abs(bl.sphere_point_identity_residual(u, v)))
    assert worst < 1e-12


def test_sphere_point_identity_antipodal_and_errors():
    assert bl.sphere_point_identity_residual([1, 0, 0], [-1, 0, 0]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(GeometryError):
        bl.sphere_point_identity_residual([1, 0, 0], [1, 0, 0])
    with pytest.raises(GeometryError):
        bl.sphere_point_identity_residual([2, 0, 0], [0, 1, 0])


def test_sphere_point_identity_exact_fractions():
    # rational points on the sphere keep the computation in Q: with
    # xi(x0) = x0 each projection factor is exactly 1/4
    from fractions import Fraction

    x = (Fraction(3, 5), Fraction(4, 5), Fraction(0))
    x0 = (Fraction(0), Fraction(3, 5), Fraction(4, 5))

    def dot(a, b):
        return sum(p * q for p, q in zip(a, b))

    diff = tuple(a - b for a, b in zip(x, x0))
    term = Fraction(dot(diff, x), dot(diff, diff)) ** 2
    assert term + term == Fraction(1, 2)


def test_minimal_density_identity(stock):
    surface, region = stock.disk(np.pi / 3)
    assert abs(bl.minimal_density_identity_residual(surface, region, CONTACT3)) < 2e-2
    free, free_region = stock.disk(np.pi / 2)
    assert abs(bl.minimal_density_identity_residual(free, free_region, [1.0, 0.0, 0.0])) < 2e-2
    capball, cb_region = stock.capball(2 * np.pi / 3, np.pi / 3)
    with pytest.raises(GeometryError):
        bl.minimal_density_identity_residual(capball, cb_region, CONTACT3)


def test_limit_identities(stock):
    disk, disk_region = stock.disk(np.pi / 3)
    res = bl.limit_identity_residuals(disk, disk_region, CONTACT3)
    assert abs(res["sphere_point"]) < 2e-2
    capball, cb_region = stock.capball(2 * np.pi / 3, np.pi / 3)
    res0 = bl.limit_identity_residuals(capball, cb_region, np.zeros(3))
    assert abs(res0["origin"]) < 2e-2
    res_int = bl.limit_identity_residuals(capball, cb_region, [0.0, 0.0, 0.4])
    assert abs(res_int["general"]) < 2e-2
    res_disk_int = bl.limit_identity_residuals(disk, disk_region, [0.2, 0.0, 0.5])
    assert abs(res_disk_int["general"]) < 2e-2
