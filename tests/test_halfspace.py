"""Half-space monotonicity: radial pairs, two-radius identity, profiles."""

import numpy as np
import pytest

from capmono import halfspace as hs
from capmono.fields import constant_field, position_field, radial_cutoff_field, zero_field

THETA = 2 * np.pi / 3
CONTACT = np.array([np.sin(THETA), 0.0, 0.0])


def test_pair_symmetric_on_plane(stock):
    surface, region = stock.cap(THETA)
    m = hs.probe_terms(surface, region, CONTACT).members(1.3)
    g, g_hat = m["g"], m["g_hat"]
    assert g[0] == pytest.approx(g_hat[0], abs=1e-14)
    m = hs.probe_terms(surface, region, [0.4, -0.2, 0.0]).members(0.9)
    g2, g_hat2 = m["g"], m["g_hat"]
    assert g2[0] == pytest.approx(g_hat2[0], abs=1e-14)


def test_pair_large_radius_limit(stock):
    surface, region = stock.cap(np.pi / 2, res=96)
    m = hs.probe_terms(surface, region, [1.0, 0.0, 0.0]).members(50.0)
    g, g_hat = m["g"], m["g_hat"]
    assert g[0] + g_hat[0] == pytest.approx(1.0, abs=1e-2)


def test_identity_degenerate_pair_is_zero(stock):
    surface, region = stock.cap(THETA)
    assert hs.monotonicity_identity_detail(hs.probe_terms(surface, region, [0.3, 0.1, 0.2]), 0.8, 0.8)["residual"] == 0.0


def test_identity_on_contact_circle(stock):
    surface, region = stock.cap(THETA, res=256)
    detail = hs.monotonicity_identity_detail(hs.probe_terms(surface, region, CONTACT), 0.1, 3.0)
    assert abs(detail["residual"]) < 1e-3
    # the square and deficit terms vanish at the equality configuration
    assert abs(detail["square"]) < 1e-6
    assert detail["deficit"] == 0.0


def test_identity_interior_base_point(stock):
    surface, region = stock.cap(THETA)
    detail = hs.monotonicity_identity_detail(hs.probe_terms(surface, region, [0.0, 0.0, 0.5]), 0.2, 2.0)
    assert abs(detail["residual"]) < 1e-3
    assert detail["deficit"] != 0.0
    detail2 = hs.monotonicity_identity_detail(hs.probe_terms(surface, region, [0.31, -0.12, 0.47]), 0.2, 2.0)
    assert abs(detail2["normalized"]) < 1e-3


def test_profile_monotone_obtuse(stock, rng):
    surface, region = stock.cap(THETA, res=192)
    center = np.array([0, 0, -np.cos(THETA)])
    grid = np.linspace(0.25, 4.0, 40)
    found = 0
    while found < 6:
        a = rng.uniform(-1.6, 1.6, 3)
        if abs(np.linalg.norm(a - center) - 1) < 0.2:
            continue
        if abs(np.linalg.norm(a * [1, 1, -1] - center) - 1) < 0.2:
            continue
        prof = hs.monotonicity_profile(hs.probe_terms(surface, region, a), grid)
        assert prof.min_forward_difference() >= -1e-6
        found += 1


def test_profile_monotone_acute_on_plane(stock, rng):
    theta = np.pi / 3
    surface, region = stock.cap(theta, res=192)
    center = np.array([0, 0, -np.cos(theta)])
    grid = np.linspace(0.2, 3.0, 40)
    found = 0
    while found < 6:
        a = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), 0.0])
        if abs(np.linalg.norm(a - center) - 1) < 0.25:
            continue
        prof = hs.monotonicity_profile(hs.probe_terms(surface, region, a), grid)
        assert prof.min_forward_difference() >= -1e-6
        found += 1


def test_profile_remainder_decays(stock):
    surface, region = stock.cap(np.pi / 3, res=192)
    grid = np.concatenate([np.linspace(0.05, 0.4, 8), np.linspace(5, 40, 8)])
    prof = hs.monotonicity_profile(hs.probe_terms(surface, region, [0.4, 0.1, 0.0]), grid)
    assert np.max(np.abs(prof.remainder[:3])) < 1e-6
    assert np.max(np.abs(prof.remainder[-3:])) < 1e-2
    # remainder tail decays like 1/r^2
    assert abs(prof.remainder[-1]) < abs(prof.remainder[-8]) / 10


def test_profile_deficit_sign(stock):
    surface, region = stock.cap(THETA)
    prof = hs.monotonicity_profile(hs.probe_terms(surface, region, [0.2, 0.0, 0.5]), np.linspace(0.3, 3.0, 20))
    assert np.all(prof.deficit >= 0.0)  # theta >= pi/2
    acute, acute_region = stock.cap(np.pi / 3, res=192)
    prof2 = hs.monotonicity_profile(hs.probe_terms(acute, acute_region, [0.2, 0.0, 0.5]), np.linspace(0.3, 3.0, 20))
    assert np.all(prof2.deficit <= 0.0)


def test_profile_doubling_ratio(stock):
    surface, region = stock.cap(THETA)
    terms = hs.probe_terms(surface, region, [0.4, 0.1, 0.2])
    assert terms.doubling_ratio_max(np.linspace(0.3, 4.0, 20)) <= 1.0 + 1e-6


def test_boundary_limit_identity(stock):
    surface, region = stock.cap(THETA)
    assert abs(hs.boundary_limit_identity_residual(surface, region, CONTACT)) < 2e-2
    # outside the support the identity reduces to the total-energy statement
    assert abs(hs.boundary_limit_identity_residual(surface, region, [20.0, 0.0, 0.0])) < 1e-2
    with pytest.raises(ValueError):
        hs.boundary_limit_identity_residual(surface, region, [0.1, 0.0, 0.5])


def test_first_variation_constant_field(stock):
    surface, region = stock.cap(THETA)
    assert abs(hs.first_variation_residual(surface, region, constant_field([1.0, 0.0, 0.0]))) < 1e-3


def test_first_variation_cutoff_field(stock):
    surface, region = stock.cap(THETA)
    field = radial_cutoff_field([0.3, 0.2, 0.0], 0.5, 2.0)
    assert abs(hs.first_variation_residual(surface, region, field)) < 1e-3


def test_first_variation_position_field(stock):
    surface, region = stock.cap(THETA)
    assert abs(hs.first_variation_residual(surface, region, position_field())) < 1e-3


def test_first_variation_reads_eta_from_the_boundary_curve(stock, monkeypatch):
    # X = x on the theta = 2 pi / 3 cap: the η term is the flux of X through
    # the boundary curve, twice the Green total of η since div X = 2.
    # Scaling η by 1.01 (every curve atom's arc step) moves the residual
    # past 1e-2: the balance law is about 16 times as sensitive to η as the
    # two-radius gate
    from capmono.wetted import WettedRegion, eta_divergence, eta_integral

    surface, region = stock.cap(THETA)
    field = position_field()
    assert abs(hs.first_variation_residual(surface, region, field)) <= 1e-4
    total = 2 * eta_integral(region)
    assert abs(eta_divergence(region, field) - total) <= 1e-12 * abs(total)
    atoms = WettedRegion.curve_atoms

    def scaled(self):
        points, steps = atoms(self)
        return points, 1.01 * steps

    monkeypatch.setattr(WettedRegion, "curve_atoms", scaled)
    assert abs(hs.first_variation_residual(surface, region, field)) >= 1e-2


def test_first_variation_zero_field(stock):
    surface, region = stock.cap(THETA)
    assert hs.first_variation_residual(surface, region, zero_field()) == 0.0


def test_first_variation_rejects_non_tangent(stock):
    surface, region = stock.cap(THETA)
    with pytest.raises(ValueError):
        hs.first_variation_residual(surface, region, constant_field([0.0, 0.0, 1.0]))
