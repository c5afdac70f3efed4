"""Willmore energies, Gauss-Bonnet bookkeeping, densities and the
inequality margins they control.

The capillary Willmore energy is the bare quarter-integral of the squared
mean curvature; the classical variant adds the boundary geodesic-curvature
term, and the ball form trades that term for boundary length and oriented
wetted area.  Densities are radial mass ratios extrapolated to radius zero
by a linear fit on the smallest decade of the radius grid; ``density`` is
the area density of mu, and the probe terms read the two-ball density of
mu - cos(theta) eta on the same grids.

``energy_report`` gathers the energies, residuals and margins of one
surface into the ``capmono-energy-report/1`` dict that ``energy`` writes
as ``energy.json``; the bound 2 pi (1 - cos theta) that the global Li-Yau
margin and the area estimate subtract is stated once, in
``_willmore_bound``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AmbientError, ResolutionError
from .geometry import BALL, HALFSPACE
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .wetted import WettedRegion, curve_from_boundary, eta_integral, oriented_area

MIN_BALL_SAMPLES = 50
# radii on a density extrapolation grid, and its lower cut as a fraction of
# the surface's size sqrt(area / pi)
_DENSITY_RADII = 24
_SMALLEST_RADIUS = 0.08


def willmore_energy(surface: SampledSurface) -> float:
    """Quarter-integral of |H|^2 over the surface."""
    return 0.25 * float(np.sum(surface.mu_arrays["h2"]))


def willmore_classical(surface: SampledSurface) -> float:
    """Willmore energy plus the boundary geodesic-curvature integral."""
    return willmore_energy(surface) + float(
        np.sum(surface.boundary_kg * surface.boundary_weights)
    )


def willmore_ball(surface: SampledSurface, region: WettedRegion) -> float:
    """Ball form of the energy: W + sin(theta) |bdry| - cos(theta) |T|."""
    if surface.ambient.kind != BALL:
        raise AmbientError("the ball energy form needs a surface in the unit ball")
    theta = surface.theta
    return (
        willmore_energy(surface)
        + np.sin(theta) * surface.boundary_length()
        - np.cos(theta) * eta_integral(region)
    )


def gauss_bonnet_residual(surface: SampledSurface) -> float:
    """Total curvature plus boundary turning minus 2*pi*chi."""
    total = float(np.sum(surface.gauss_curvature * surface.weights))
    total += float(np.sum(surface.boundary_kg * surface.boundary_weights))
    return total - 2.0 * np.pi * surface.euler_characteristic


def gauss_equation_residual(surface: SampledSurface) -> float:
    """Residual of (1/4)|H|^2 - K = (1/2)|traceless II|^2 integrated.

    The pointwise Gauss equation makes this vanish identically; quadrature
    and finite-difference noise are all that remains.
    """
    val = (
        willmore_energy(surface)
        - np.sum(surface.gauss_curvature * surface.weights)
        - 0.5 * np.sum(surface.traceless_sq * surface.weights)
    )
    return float(val)


def divergence_identity_residual(surface: SampledSurface) -> float:
    """Balance-law residual 2 mu(R^3) + int H.x - sin(theta) gamma(S^2).

    For minimal surfaces the curvature term drops and this reduces to
    |2 |Sigma| - sin(theta) |bdry||.
    """
    if surface.ambient.kind != BALL:
        raise AmbientError("the divergence identity lives in the unit ball")
    hx = float(np.sum(surface.mu_arrays["hx"]))
    return abs(2.0 * surface.area() + hx - np.sin(surface.theta) * surface.boundary_length())


# -- densities -----------------------------------------------------------------


def default_radius_grid(surface: SampledSurface, x0) -> np.ndarray:
    """Radius grid for density extrapolation around a probe point.

    The lower cut keeps at least ~60 samples inside the smallest ball; the
    upper cut stays below the smallest geometric feature (the overall size
    and, for probes near the boundary, the boundary circle scale) so the
    mass ratio remains in its linear regime.
    """
    scale = np.sqrt(surface.area() / np.pi)
    r_max = 0.45 * scale
    r_min = _SMALLEST_RADIUS * scale
    x0 = np.asarray(x0, dtype=float)
    d = np.sort(np.linalg.norm(surface.points - x0, axis=1))
    k = min(60, len(d) - 1)
    if float(d[0]) < 0.5 * scale:
        r_min = max(r_min, 1.05 * float(d[k]), 1e-6)
    if len(surface.boundary_points):
        d_bdry = float(np.min(np.linalg.norm(surface.boundary_points - x0, axis=1)))
        feature = surface.boundary_length() / (2.0 * np.pi)
        if d_bdry < 0.5 * feature:
            r_max = min(r_max, 0.8 * feature)
    r_max = max(r_max, 2.5 * r_min)
    return np.linspace(r_min, r_max, _DENSITY_RADII)


def density_radii(surface: SampledSurface, x0, onset: float) -> tuple[np.ndarray, bool]:
    """Radii of a density read at x0, and whether the read is exact on them.

    ``onset`` is the radius below which every mass ratio the read sums
    already reads its r -> 0 value.  When it clears the lower cut by half
    again, the radii stay below it (up to 0.9 onset), and the read is
    exact: its rows may be read sharp.  Otherwise they are the
    ``default_radius_grid``.
    """
    r_min = _SMALLEST_RADIUS * np.sqrt(surface.area() / np.pi)
    if onset > 1.5 * r_min:
        return np.linspace(r_min, 0.9 * onset, _DENSITY_RADII), True
    return default_radius_grid(surface, x0), False


def extrapolate(r: np.ndarray, ratio: np.ndarray) -> float:
    """Least-squares linear fit on the smallest decade, evaluated at r = 0."""
    r = np.asarray(r, dtype=float)
    mask = r <= 10.0 * np.min(r) + 1e-30
    rr, yy = r[mask], np.asarray(ratio)[mask]
    if len(rr) < 2:
        return float(yy[0])
    coeff = np.polyfit(rr, yy, 1)
    return float(coeff[1])


def density(surface: SampledSurface, x0, r_grid=None) -> float:
    """Area density of the surface at a point: lim mu(B_r)/(pi r^2).

    The ratio is evaluated on the radius grid and extrapolated linearly to
    zero; the smallest radius must contain at least 50 samples.
    """
    if r_grid is None:
        r_grid = default_radius_grid(surface, x0)
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    prefix = RadialPrefix(surface.points, x0, {"mass": surface.weights})
    n_min = prefix.count(r_grid[0])
    if n_min < MIN_BALL_SAMPLES and float(prefix.cumulative("mass", r_grid[-1])) > 0:
        raise ResolutionError(
            f"only {n_min} samples inside r = {r_grid[0]:.4g}; "
            f"need at least {MIN_BALL_SAMPLES} (refine the surface or enlarge the grid)"
        )
    hw = np.minimum(prefix.auto_halfwidth(r_grid), 0.9 * r_grid)
    ratio = prefix.windowed_over_r2("mass", r_grid, hw) / np.pi
    return extrapolate(r_grid, ratio)


# -- inequality margins ----------------------------------------------------------


def _willmore_bound(theta: float) -> float:
    """The sharp lower bound 2 pi (1 - cos theta) of the capillary Willmore energy."""
    return 2.0 * (1.0 - np.cos(theta)) * np.pi


@dataclass(frozen=True)
class LiYauMargins:
    """Energy gaps of the boundary-density inequality at one boundary point."""

    energy: float
    boundary_density: float
    density_margin: float
    global_margin: float


def li_yau_margin(surface: SampledSurface, region: WettedRegion, x0) -> LiYauMargins:
    """Gap of W >= 4 (1 - cos theta) pi Theta(x0), plus the global gap.

    ``x0`` should lie on the boundary image; its density extrapolates to
    N/2 for an N-fold boundary point.
    """
    w = willmore_energy(surface)
    theta2 = density(surface, x0)
    bound = _willmore_bound(surface.theta)
    return LiYauMargins(
        energy=w,
        boundary_density=theta2,
        density_margin=w - 2.0 * bound * theta2,
        global_margin=w - bound,
    )


def area_estimate_margin(surface: SampledSurface, region: WettedRegion) -> float:
    """Gap of 2|Sigma| - cos(theta)|T| >= 2 (1 - cos theta) pi (minimal surfaces).

    Computed for any ball surface; a warning annotates non-minimal input.
    """
    if surface.ambient.kind != BALL:
        raise AmbientError("the area estimate lives in the unit ball")
    max_h = surface.max_mean_curvature()
    if max_h > 1e-6:
        warnings.warn(
            f"area estimate evaluated on a non-minimal surface (max |H| = {max_h:.3g})",
            stacklevel=2,
        )
    theta = surface.theta
    return 2.0 * surface.area() - np.cos(theta) * eta_integral(region) - _willmore_bound(theta)


def disk_area_margin(surface: SampledSurface) -> float:
    """Gap of |Sigma| >= pi sin^2(theta) for minimal ball surfaces."""
    if surface.ambient.kind != BALL:
        raise AmbientError("the disk area bound lives in the unit ball")
    return surface.area() - np.pi * np.sin(surface.theta) ** 2


# -- report ----------------------------------------------------------------------


def energy_report(surface: SampledSurface, region: WettedRegion) -> dict:
    """The ``capmono-energy-report/1`` dict of one surface and its wetted region.

    The Li-Yau density margin is taken at the first boundary sample.  Ball
    surfaces add the ball energy form, the divergence residual, and the
    area estimate and disk area margins.
    """
    if surface.ambient.kind == HALFSPACE:
        wetted = oriented_area(curve_from_boundary(surface))
    else:
        wetted = eta_integral(region)
    ly = li_yau_margin(surface, region, surface.boundary_points[0])
    margins = {
        "liYauGlobal": ly.global_margin,
        "liYauDensity": ly.density_margin,
        "boundaryDensity": ly.boundary_density,
    }
    report = {
        "schema": "capmono-energy-report/1",
        "ambient": surface.ambient.kind,
        "theta": surface.theta,
        "willmore": ly.energy,
        "willmoreClassical": willmore_classical(surface),
        "area": surface.area(),
        "boundaryLength": surface.boundary_length(),
        "orientedWettedArea": wetted,
        "gaussBonnetResidual": gauss_bonnet_residual(surface),
        "gaussEquationResidual": gauss_equation_residual(surface),
        "contactResidual": float(surface.metadata.get("contact_residual", np.nan)),
        "maxMeanCurvature": surface.max_mean_curvature(),
        "margins": margins,
    }
    if surface.ambient.kind == BALL:
        report["willmoreBall"] = willmore_ball(surface, region)
        report["divergenceResidual"] = divergence_identity_residual(surface)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            margins["areaEstimate"] = area_estimate_margin(surface, region)
        margins["diskArea"] = disk_area_margin(surface)
    return report
