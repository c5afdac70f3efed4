"""Generators, chart sampling, frames and perturbations."""

from dataclasses import replace

import numpy as np
import pytest

from capmono import tables
from capmono.errors import GeometryError, ImmersionError
from capmono.geometry import Ambient
from capmono.surfaces import (
    ParametricChart,
    SampledSurface,
    contact_angle_residual,
    geodesic_disk_ball,
    perturb_chart,
    sample_chart,
    spherical_cap_ball,
    spherical_cap_halfspace,
)
from capmono.wetted import wetted_region

THETAS = (np.pi / 6, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6)


def cap_area(theta, radius=1.0):
    return 2 * np.pi * radius**2 * (1 - np.cos(theta))


@pytest.mark.parametrize("theta", THETAS)
def test_cap_measures(stock, theta):
    surface, _ = stock.cap(theta)
    assert surface.area() == pytest.approx(cap_area(theta), rel=1e-6)
    assert surface.boundary_length() == pytest.approx(2 * np.pi * np.sin(theta), rel=1e-6)
    assert surface.metadata["contact_residual"] < 1e-10


def test_hemisphere_area_and_length():
    surface = sample_chart(spherical_cap_halfspace(np.pi / 2), 64, 64)
    assert surface.area() == pytest.approx(2 * np.pi, rel=1e-4)
    assert surface.boundary_length() == pytest.approx(2 * np.pi, rel=1e-4)


def test_cap_off_center_translation():
    surface = sample_chart(spherical_cap_halfspace(2 * np.pi / 3, 1.0, (0.7, -0.4)), 64, 64)
    assert surface.area() == pytest.approx(cap_area(2 * np.pi / 3), rel=1e-6)
    center = np.sum(
        surface.boundary_points[:, :2] * surface.boundary_weights[:, None], axis=0
    ) / surface.boundary_length()
    assert np.allclose(center, [0.7, -0.4], atol=1e-8)


def test_cap_scaling_invariance(stock):
    base, _ = stock.cap(2 * np.pi / 3)
    big = sample_chart(spherical_cap_halfspace(2 * np.pi / 3, 2.5), 96, 96)
    w_base = 0.25 * np.sum(np.sum(base.mean_curvature**2, axis=1) * base.weights)
    w_big = 0.25 * np.sum(np.sum(big.mean_curvature**2, axis=1) * big.weights)
    assert w_big == pytest.approx(w_base, rel=1e-6)


def test_flat_disk_measures():
    surface = sample_chart(geodesic_disk_ball(np.pi / 3), 64, 64)
    assert surface.area() == pytest.approx(0.75 * np.pi, rel=1e-6)
    assert surface.boundary_length() == pytest.approx(np.sqrt(3) * np.pi, rel=1e-6)
    assert np.max(np.abs(surface.mean_curvature)) < 1e-8
    assert surface.metadata["contact_residual"] < 1e-10


def test_free_boundary_disk():
    surface = sample_chart(geodesic_disk_ball(np.pi / 2), 64, 64)
    assert surface.area() == pytest.approx(np.pi, rel=1e-6)
    assert surface.boundary_length() == pytest.approx(2 * np.pi, rel=1e-6)


@pytest.mark.parametrize("theta,alpha", [(2 * np.pi / 3, np.pi / 3), (np.pi / 3, np.pi / 2), (np.pi / 2, np.pi / 4)])
def test_cap_ball_geometry(theta, alpha):
    surface = sample_chart(spherical_cap_ball(theta, alpha), 64, 128)
    s = np.sin(theta - alpha)
    rho = np.sin(alpha) / abs(s)
    assert surface.area() == pytest.approx(2 * np.pi * rho**2 * (1 - np.cos(theta - alpha)), rel=1e-6)
    assert surface.boundary_length() == pytest.approx(2 * np.pi * np.sin(alpha), rel=1e-6)
    assert surface.metadata["contact_residual"] < 1e-8
    assert np.max(np.linalg.norm(surface.points, axis=1)) <= 1.0 + 1e-8


def test_cap_ball_degenerates_to_disk():
    chart = spherical_cap_ball(np.pi / 2, np.pi / 2)
    assert chart.name == "flat-disk-ball"
    with pytest.raises(GeometryError):
        spherical_cap_ball(np.pi / 3, 1e-12)


_TABLES = (
    "points",
    "weights",
    "normals",
    "mean_curvature",
    "gauss_curvature",
    "traceless_sq",
    "boundary_points",
    "boundary_tangents",
    "boundary_conormals",
    "boundary_weights",
    "boundary_kg",
    "boundary_kg_wetting",
)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", _TABLES)
def test_non_finite_sample_entry_is_refused(name, bad):
    # each other check is a comparison, which NaN passes: an 8 x 8 cap with
    # weights[0] = nan used to construct, and its area read nan
    surface = sample_chart(spherical_cap_halfspace(2 * np.pi / 3), 8, 8)
    tables = {key: getattr(surface, key).copy() for key in _TABLES}
    SampledSurface(surface.ambient, **tables)
    tables[name].flat[0] = bad
    with pytest.raises(GeometryError, match="finite"):
        SampledSurface(surface.ambient, **tables)


def test_boundary_frame_orthonormal(stock):
    surface, _ = stock.cap(2 * np.pi / 3)
    tau, nu, mu = surface.boundary_tangents, None, surface.boundary_conormals
    assert np.max(np.abs(np.einsum("ij,ij->i", tau, mu))) < 1e-8
    assert np.max(np.abs(np.linalg.norm(tau, axis=1) - 1)) < 1e-8
    assert np.max(np.abs(np.linalg.norm(mu, axis=1) - 1)) < 1e-8


def test_curvature_perpendicular_to_tangent(stock):
    surface, _ = stock.cap(2 * np.pi / 3)
    cross = np.cross(surface.mean_curvature, surface.normals)
    assert np.max(np.linalg.norm(cross, axis=1)) < 1e-8


@pytest.mark.parametrize("theta", (np.pi / 6, np.pi / 3, 2 * np.pi / 3))
def test_boundary_curvature_relation_halfspace(theta):
    surface = sample_chart(spherical_cap_halfspace(theta), 64, 64)
    expected = np.cos(theta) * surface.boundary_kg_wetting
    assert np.max(np.abs(surface.boundary_kg - expected)) < 1e-6


@pytest.mark.parametrize(
    "builder",
    [
        lambda: geodesic_disk_ball(np.pi / 3),
        lambda: spherical_cap_ball(2 * np.pi / 3, np.pi / 3),
    ],
)
def test_boundary_curvature_relation_ball(builder):
    surface = sample_chart(builder(), 64, 128)
    theta = surface.theta
    expected = np.cos(theta) * surface.boundary_kg_wetting + np.sin(theta)
    assert np.max(np.abs(surface.boundary_kg - expected)) < 1e-6


def test_finite_difference_matches_analytic():
    chart = spherical_cap_halfspace(2 * np.pi / 3)
    analytic = sample_chart(chart, 32, 32)
    # without analytic frames, sampling takes the finite-difference path
    fd_chart = replace(chart, normal=None, mean_curvature_vec=None, gauss_curvature=None, conormal=None)
    fd = sample_chart(fd_chart, 32, 32)
    assert np.max(np.abs(fd.mean_curvature - analytic.mean_curvature)) < 1e-6
    assert np.max(np.abs(fd.normals - analytic.normals)) < 1e-9
    assert np.max(np.abs(fd.gauss_curvature - analytic.gauss_curvature)) < 1e-6


def test_fd_willmore_second_order_convergence():
    # tie the difference step to the grid so the finite-difference error is
    # the visible one; halving the step must cut the energy error ~4x
    theta = 2 * np.pi / 3
    exact = cap_area(theta)
    errs = []
    for nu in (16, 32, 64):
        chart = replace(
            spherical_cap_halfspace(theta),
            normal=None,
            mean_curvature_vec=None,
            gauss_curvature=None,
            conormal=None,
            fd_step=0.5 / nu,
        )
        surface = sample_chart(chart, max(nu, 8), max(nu, 8))
        w = 0.25 * np.sum(np.sum(surface.mean_curvature**2, axis=1) * surface.weights)
        errs.append(abs(w - exact))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_perturbation_zero_amplitude_is_same_object():
    chart = spherical_cap_halfspace(np.pi / 2)
    assert perturb_chart(chart, 0.0, 3) is chart


def test_perturbation_boundary_stays_on_plane(stock):
    surface, _ = stock.perturbed_cap(2 * np.pi / 3, 0.05, 2)
    assert np.max(np.abs(surface.boundary_points[:, 2])) < 1e-8
    assert surface.metadata["contact_residual"] > 1e-3


def test_perturbation_boundary_stays_on_sphere():
    chart = perturb_chart(geodesic_disk_ball(np.pi / 3), 0.05, 2)
    surface = sample_chart(chart, 48, 96)
    assert np.max(np.abs(np.linalg.norm(surface.boundary_points, axis=1) - 1)) < 1e-8
    assert np.max(np.linalg.norm(surface.points, axis=1)) <= 1 + 1e-8


def test_perturbed_cap_energy_strictly_above(stock):
    surface, _ = stock.perturbed_cap(2 * np.pi / 3, 0.05, 2)
    w = 0.25 * np.sum(np.sum(surface.mean_curvature**2, axis=1) * surface.weights)
    assert w > cap_area(2 * np.pi / 3) + 1e-3


def test_degenerate_chart_raises():
    ambient = Ambient("halfspace", np.pi / 2)

    def pinched(u, v):
        u = np.asarray(u, dtype=float)
        # collapses the angular direction at every radius
        return np.stack([u, np.zeros_like(u), np.zeros_like(np.asarray(v))], axis=-1)

    chart = ParametricChart(ambient=ambient, f=pinched)
    with pytest.raises(ImmersionError):
        sample_chart(chart, 8, 8)


def test_small_resolution_rejected():
    with pytest.raises(ValueError):
        sample_chart(spherical_cap_halfspace(np.pi / 2), 4, 64)


def test_contact_check_requires_boundary(stock):
    surface, _ = stock.cap(np.pi / 2)
    assert contact_angle_residual(surface) < 1e-10


_VECTOR_FIELDS = (
    "points", "normals", "mean_curvature", "boundary_points", "boundary_tangents", "boundary_conormals"
)
_SCALAR_FIELDS = (
    "weights", "gauss_curvature", "traceless_sq", "boundary_weights", "boundary_kg", "boundary_kg_wetting"
)


@pytest.mark.parametrize(
    "chart", [spherical_cap_halfspace(np.pi / 3), spherical_cap_ball(2 * np.pi / 3, np.pi / 3)], ids=["plane", "ball"]
)
def test_fields_keep_contiguous_columns(tmp_path, chart):
    # the per-probe passes read (n, 3) data one coordinate at a time; a
    # strided view (a column of the loaded 12-column table, say) would give
    # that speed back without changing a digit, so the layout is pinned
    sampled = sample_chart(chart, 16, 32)
    tables.save_surface(sampled, tmp_path / "s.tsv")
    tables.save_boundary(sampled, tmp_path / "b.tsv")
    # loaded from the binary companions, then from the text
    loaded = tables.load_surface(tmp_path / "s.tsv", tmp_path / "b.tsv")
    for companion in tmp_path.glob("*.bin"):
        companion.unlink()
    parsed = tables.load_surface(tmp_path / "s.tsv", tmp_path / "b.tsv")
    for surface in (sampled, loaded, parsed):
        for name in _VECTOR_FIELDS:
            arr = getattr(surface, name)
            assert arr.shape[1:] == (3,) and arr.flags.f_contiguous, name
        for name in _SCALAR_FIELDS:
            assert getattr(surface, name).flags.c_contiguous, name
        # the probe-independent μ arrays keep the columns and stay read-only;
        # they are the only ones a surface caches (the ball's companion builds
        # its position integrands per probe)
        for key, arr in surface.mu_arrays.items():
            assert arr.flags.f_contiguous and not arr.flags.writeable, key
        assert not hasattr(surface, "inversion_arrays")
    if chart.ambient.kind == "halfspace":
        atoms = wetted_region(loaded).curve_atoms()[0]
        assert atoms.shape[1:] == (3,) and atoms.flags.f_contiguous
