"""Energies, densities and inequality margins."""

import json

import numpy as np
import pytest

from capmono import ball as bl
from capmono import energy as en
from capmono import halfspace as hs
from capmono.errors import AmbientError, ResolutionError


def lower_bound(theta):
    return 2 * np.pi * (1 - np.cos(theta))


def test_cap_willmore_values(stock):
    cap, _ = stock.cap(2 * np.pi / 3)
    assert en.willmore_energy(cap) == pytest.approx(3 * np.pi, rel=1e-3)
    hemi, _ = stock.cap(np.pi / 2)
    assert en.willmore_energy(hemi) == pytest.approx(2 * np.pi, rel=1e-3)
    disk, _ = stock.disk(np.pi / 3)
    assert en.willmore_energy(disk) == pytest.approx(0.0, abs=1e-12)


def test_classical_form_offset(stock):
    for theta in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        cap, _ = stock.cap(theta)
        gap = en.willmore_classical(cap) - en.willmore_energy(cap)
        assert gap == pytest.approx(2 * np.pi * np.cos(theta), abs=1e-3)
    disk, _ = stock.disk(np.pi / 2)
    assert en.willmore_classical(disk) == pytest.approx(2 * np.pi, rel=1e-6)


def test_ball_energy_form(stock):
    disk, region = stock.disk(np.pi / 3)
    assert en.willmore_ball(disk, region) == pytest.approx(lower_bound(np.pi / 3), abs=1e-3)
    capball, cb_region = stock.capball(2 * np.pi / 3, np.pi / 3)
    assert en.willmore_ball(capball, cb_region) == pytest.approx(lower_bound(2 * np.pi / 3), abs=1e-3)
    halfspace_cap, hs_region = stock.cap(np.pi / 2)
    with pytest.raises(AmbientError):
        en.willmore_ball(halfspace_cap, hs_region)


def test_gauss_bonnet(stock):
    for surface, _ in (stock.cap(2 * np.pi / 3), stock.disk(np.pi / 3), stock.capball(2 * np.pi / 3, np.pi / 3)):
        assert abs(en.gauss_bonnet_residual(surface)) < 1e-3
    perturbed, _ = stock.perturbed_cap(2 * np.pi / 3, 0.05, 2)
    assert abs(en.gauss_bonnet_residual(perturbed)) < 1e-3


def test_gauss_equation(stock):
    for surface, _ in (stock.cap(np.pi / 3), stock.disk(np.pi / 3), stock.perturbed_cap(2 * np.pi / 3, 0.05, 2)):
        scale = max(en.willmore_energy(surface), 1.0)
        assert abs(en.gauss_equation_residual(surface)) < 1e-3 * scale


def test_density_values(stock):
    cap, _ = stock.cap(2 * np.pi / 3)
    apex = np.array([0.0, 0.0, 1.5])
    assert en.density(cap, apex) == pytest.approx(1.0, abs=0.02)
    boundary = np.array([np.sin(2 * np.pi / 3), 0.0, 0.0])
    assert en.density(cap, boundary) == pytest.approx(0.5, abs=0.01)
    assert en.density(cap, [5.0, 5.0, 5.0]) == 0.0


def test_density_resolution_guard(stock):
    cap, _ = stock.cap(2 * np.pi / 3)
    # a generic on-surface point: a 0.02 ball holds a handful of samples
    point = np.array([0.0, 0.0, 0.5]) + np.array(
        [np.sin(np.pi / 4) * np.cos(0.3), np.sin(np.pi / 4) * np.sin(0.3), np.cos(np.pi / 4)]
    )
    with pytest.raises(ResolutionError):
        en.density(cap, point, r_grid=np.linspace(0.02, 0.06, 4))


def _tilde_density(mono, surface, region, x0):
    """The two-ball density of mu - cos(theta) eta, read from the probe's terms."""
    return mono.probe_terms(surface, region, np.asarray(x0, dtype=float)).density()


def test_tilde_density_values(stock):
    cap, region = stock.cap(2 * np.pi / 3)
    boundary = np.array([np.sin(2 * np.pi / 3), 0.0, 0.0])
    theta_tilde = _tilde_density(hs, cap, region, boundary)
    assert theta_tilde == pytest.approx(1.5, abs=0.03)
    # normalized by 1 - cos(theta), the density is 1 at an embedded boundary point
    assert theta_tilde / (1.0 - np.cos(cap.theta)) == pytest.approx(1.0, abs=0.02)
    apex = np.array([0.0, 0.0, 1.5])
    assert _tilde_density(hs, cap, region, apex) == pytest.approx(1.0, abs=0.02)


def test_tilde_density_ball(stock):
    disk, region = stock.disk(np.pi / 3)
    contact = np.array([np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])
    assert _tilde_density(bl, disk, region, contact) == pytest.approx(0.5, abs=0.02)
    assert _tilde_density(bl, disk, region, [0.2, 0.0, 0.5]) == pytest.approx(1.0, abs=0.02)
    capball, cb_region = stock.capball(2 * np.pi / 3, np.pi / 3)
    assert _tilde_density(bl, capball, cb_region, [0.0, 0.0, 0.4]) == 0.0


@pytest.mark.parametrize("theta", [2 * np.pi / 3, np.pi / 3])
@pytest.mark.parametrize("point", [(0.3, -0.2, 0.0), (0.6, 0.0, 0.0)])
def test_tilde_density_inside_the_wetted_region(stock, theta, point):
    # off mu, on the wetted plane: every ball below the nearest sample and
    # the curve reads pi r^2 of η, so the density is -2 cos(theta) and the
    # boundary limit identity closes with it
    cap, region = stock.cap(theta)
    assert _tilde_density(hs, cap, region, point) == pytest.approx(-2 * np.cos(theta), abs=1e-3)
    assert abs(hs.boundary_limit_identity_residual(cap, region, point)) < 2e-2


def test_tilde_density_off_the_ball_supports(stock):
    # the ball-cap benchmark probe of seed 1: off mu and off the sphere, in
    # both balls below the nearest sample, so the density is exactly 0
    capball, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    probe = np.array([-0.0044, 0.375, 0.283])
    assert _tilde_density(bl, capball, region, probe) == 0.0
    assert abs(bl.limit_identity_residuals(capball, region, probe)["general"]) < 2e-2


def test_li_yau_margins(stock):
    cap, region = stock.cap(2 * np.pi / 3)
    boundary = np.array([np.sin(2 * np.pi / 3), 0.0, 0.0])
    ly = en.li_yau_margin(cap, region, boundary)
    assert abs(ly.density_margin) < 2e-2 * np.pi
    assert abs(ly.global_margin) < 1e-6
    perturbed, p_region = stock.perturbed_cap(2 * np.pi / 3, 0.15, 2)
    lyp = en.li_yau_margin(perturbed, p_region, perturbed.boundary_points[0])
    assert lyp.density_margin > 0.05
    hemi, h_region = stock.cap(np.pi / 2)
    lyh = en.li_yau_margin(hemi, h_region, np.array([1.0, 0.0, 0.0]))
    assert abs(lyh.global_margin) < 1e-6


def test_area_estimate_margins(stock):
    disk, region = stock.disk(np.pi / 3)
    assert abs(en.area_estimate_margin(disk, region)) < 1e-3
    assert abs(en.disk_area_margin(disk)) < 1e-6
    capball, cb_region = stock.capball(2 * np.pi / 3, np.pi / 3)
    with pytest.warns(UserWarning):
        en.area_estimate_margin(capball, cb_region)


def test_divergence_identity(stock):
    for theta in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
        disk, _ = stock.disk(theta)
        assert en.divergence_identity_residual(disk) < 1e-6
    capball, _ = stock.capball(2 * np.pi / 3, np.pi / 3)
    assert en.divergence_identity_residual(capball) < 1e-6
    cap, _ = stock.cap(np.pi / 2)
    with pytest.raises(AmbientError):
        en.divergence_identity_residual(cap)


# every key of the report; a ball surface adds the ball-only ones
_REPORT_KEYS = {
    "schema",
    "ambient",
    "theta",
    "willmore",
    "willmoreClassical",
    "area",
    "boundaryLength",
    "orientedWettedArea",
    "gaussBonnetResidual",
    "gaussEquationResidual",
    "contactResidual",
    "maxMeanCurvature",
    "margins",
}
_MARGIN_KEYS = {"liYauGlobal", "liYauDensity", "boundaryDensity"}
_BALL_REPORT_KEYS = {"willmoreBall", "divergenceResidual"}
_BALL_MARGIN_KEYS = {"areaEstimate", "diskArea"}


def test_energy_report_roundtrip(stock, tmp_path):
    # both ambients in one test: the exact key sets of each report, so no
    # key can be dropped or renamed unnoticed, and its JSON round trip
    from capmono import tables

    for surface, region in (stock.cap(2 * np.pi / 3), stock.disk(np.pi / 3)):
        ball = surface.ambient.kind == "ball"
        data = en.energy_report(surface, region)
        assert set(data) == _REPORT_KEYS | (_BALL_REPORT_KEYS if ball else set())
        assert set(data["margins"]) == _MARGIN_KEYS | (_BALL_MARGIN_KEYS if ball else set())
        assert data["schema"] == "capmono-energy-report/1"
        assert data["ambient"] == surface.ambient.kind
        path = tmp_path / "energy.json"
        tables.report_json(data, path)
        assert json.loads(path.read_text()) == data
        # the Li-Yau point is the first boundary sample
        ly = en.li_yau_margin(surface, region, surface.boundary_points[0])
        assert data["margins"]["boundaryDensity"] == ly.boundary_density
        assert data["margins"]["liYauDensity"] == ly.density_margin
        assert data["margins"]["liYauGlobal"] == ly.global_margin
        assert data["margins"]["liYauGlobal"] == pytest.approx(
            en.willmore_energy(surface) - lower_bound(surface.theta), abs=1e-12
        )
        if ball:
            assert data["margins"]["areaEstimate"] == pytest.approx(0.0, abs=1e-3)
            assert data["margins"]["diskArea"] == pytest.approx(0.0, abs=1e-6)


def test_complementary_caps(stock):
    w1 = en.willmore_energy(stock.cap(np.pi / 3)[0])
    w2 = en.willmore_energy(stock.cap(2 * np.pi / 3)[0])
    assert w1 + w2 == pytest.approx(4 * np.pi, abs=2e-3 * np.pi)
