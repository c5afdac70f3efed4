"""Willmore energies, Gauss-Bonnet bookkeeping, densities and the
inequality margins they control.

The capillary Willmore energy is the bare quarter-integral of the squared
mean curvature; the classical variant adds the boundary geodesic-curvature
term, and the ball form trades that term for boundary length and oriented
wetted area.  Densities are radial mass ratios extrapolated to radius zero
by a linear fit on the smallest decade of the radius grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AmbientError, NoHatBallError, ResolutionError
from .geometry import BALL, HALFSPACE, companion
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .wetted import WettedRegion, curve_from_boundary, eta_integral, oriented_area

MIN_BALL_SAMPLES = 50
# radii on a density extrapolation grid
_DENSITY_RADII = 24


def willmore_energy(surface: SampledSurface) -> float:
    """Quarter-integral of |H|^2 over the surface."""
    h2 = np.sum(surface.mean_curvature**2, axis=1)
    return 0.25 * float(np.sum(h2 * surface.weights))


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
    h2 = np.sum(surface.mean_curvature**2, axis=1)
    val = (
        0.25 * np.sum(h2 * surface.weights)
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
    hx = float(np.sum(np.sum(surface.mean_curvature * surface.points, axis=1) * surface.weights))
    return abs(2.0 * surface.area() + hx - np.sin(surface.theta) * surface.boundary_length())


# -- densities -----------------------------------------------------------------


def default_radius_grid(surface: SampledSurface, x0=None) -> np.ndarray:
    """Radius grid for density extrapolation around a probe point.

    The lower cut keeps at least ~60 samples inside the smallest ball; the
    upper cut stays below the smallest geometric feature (the overall size
    and, for probes near the boundary, the boundary circle scale) so the
    mass ratio remains in its linear regime.
    """
    scale = np.sqrt(surface.area() / np.pi)
    r_max = 0.45 * scale
    r_min = 0.08 * scale
    if x0 is not None:
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


def _extrapolate(r: np.ndarray, ratio: np.ndarray) -> float:
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
    return _extrapolate(r_grid, ratio)


def tilde_density(surface: SampledSurface, region: WettedRegion, x0, r_grid=None) -> float:
    """Reflected/inverted two-ball density of mu - cos(theta) eta at a point.

    Half-space: both balls share the radius r, the companion sitting at the
    reflected center.  Ball: the companion ball at the inversion point
    enters with weight |x0|^2, and the origin uses the plain density of mu.
    """
    x0 = np.asarray(x0, dtype=float)
    theta = surface.theta
    cos_t = np.cos(theta)
    nodes, eta_w = region.eta_nodes()
    if r_grid is None:
        # off-support probes: keep every ball below the mass onset so the
        # ratios vanish identically and the limit extrapolates to zero
        onset = _tilde_onset(surface, nodes, x0)
        r_min0 = 0.08 * np.sqrt(surface.area() / np.pi)
        if onset > 1.5 * r_min0:
            r_grid = np.linspace(r_min0, max(0.9 * onset, 2.5 * r_min0), _DENSITY_RADII)
        else:
            r_grid = default_radius_grid(surface, x0)
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    mu = RadialPrefix(surface.points, x0, {"mass": surface.weights})
    eta = RadialPrefix(nodes, x0, {"mass": eta_w})
    hw = np.minimum(mu.auto_halfwidth(r_grid), 0.9 * r_grid)
    try:
        x0_hat, divisor = companion(x0, surface.ambient)
    except NoHatBallError:
        return _extrapolate(r_grid, mu.windowed_over_r2("mass", r_grid, hw) / np.pi)
    mu_hat = RadialPrefix(surface.points, x0_hat, {"mass": surface.weights})
    eta_hat = RadialPrefix(nodes, x0_hat, {"mass": eta_w})
    r_hat = r_grid / divisor
    hw_hat = hw / divisor
    # in the ball the |x0|^2 weight cancels against 1/r^2 in the hat radius
    ratio = (
        mu.windowed_over_r2("mass", r_grid, hw)
        - cos_t * eta.windowed_over_r2("mass", r_grid, hw)
        + mu_hat.windowed_over_r2("mass", r_hat, hw_hat)
        - cos_t * eta_hat.windowed_over_r2("mass", r_hat, hw_hat)
    ) / np.pi
    return _extrapolate(r_grid, ratio)


def _tilde_onset(surface: SampledSurface, nodes: np.ndarray, x0: np.ndarray) -> float:
    """Smallest direct-ball radius at which any two-ball mass appears."""

    def dist_to(center):
        d_mu = float(np.min(np.linalg.norm(surface.points - center, axis=1)))
        d_eta = float(np.min(np.linalg.norm(nodes - center, axis=1)))
        return min(d_mu, d_eta)

    onset = dist_to(x0)
    try:
        x0_hat, divisor = companion(x0, surface.ambient)
    except NoHatBallError:
        return onset
    return min(onset, divisor * dist_to(x0_hat))


def capillary_density(surface: SampledSurface, region: WettedRegion, x0, r_grid=None) -> float:
    """Tilde density normalized by (1 - cos(theta)); 1 at embedded boundary points."""
    return tilde_density(surface, region, x0, r_grid) / (1.0 - np.cos(surface.theta))


# -- inequality margins ----------------------------------------------------------


@dataclass(frozen=True)
class LiYauMargins:
    """Energy gaps of the boundary-density inequality at one boundary point."""

    energy: float
    boundary_density: float
    density_margin: float
    global_margin: float


def li_yau_margin(surface: SampledSurface, region: WettedRegion, x0, r_grid=None) -> LiYauMargins:
    """Gap of W >= 4 (1 - cos theta) pi Theta(x0), plus the global gap.

    ``x0`` should lie on the boundary image; its density extrapolates to
    N/2 for an N-fold boundary point.
    """
    w = willmore_energy(surface)
    theta2 = density(surface, x0, r_grid)
    factor = (1.0 - np.cos(surface.theta)) * np.pi
    return LiYauMargins(
        energy=w,
        boundary_density=theta2,
        density_margin=w - 4.0 * factor * theta2,
        global_margin=w - 2.0 * factor,
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
    return (
        2.0 * surface.area()
        - np.cos(theta) * eta_integral(region)
        - 2.0 * (1.0 - np.cos(theta)) * np.pi
    )


def disk_area_margin(surface: SampledSurface) -> float:
    """Gap of |Sigma| >= pi sin^2(theta) for minimal ball surfaces."""
    if surface.ambient.kind != BALL:
        raise AmbientError("the disk area bound lives in the unit ball")
    return surface.area() - np.pi * np.sin(surface.theta) ** 2


# -- report ----------------------------------------------------------------------


@dataclass
class EnergyReport:
    """Flat record of the energies, measures and margins of one surface."""

    ambient: str
    theta: float
    willmore: float
    willmore_classical: float
    area: float
    boundary_length: float
    oriented_wetted_area: float
    gauss_bonnet_residual: float
    gauss_equation_residual: float
    contact_residual: float
    max_mean_curvature: float
    margins: dict = field(default_factory=dict)
    willmore_ball: Optional[float] = None
    divergence_residual: Optional[float] = None

    SCHEMA = "capmono-energy-report/1"

    def to_dict(self) -> dict:
        out = {
            "schema": self.SCHEMA,
            "ambient": self.ambient,
            "theta": self.theta,
            "willmore": self.willmore,
            "willmoreClassical": self.willmore_classical,
            "area": self.area,
            "boundaryLength": self.boundary_length,
            "orientedWettedArea": self.oriented_wetted_area,
            "gaussBonnetResidual": self.gauss_bonnet_residual,
            "gaussEquationResidual": self.gauss_equation_residual,
            "contactResidual": self.contact_residual,
            "maxMeanCurvature": self.max_mean_curvature,
            "margins": dict(self.margins),
        }
        if self.willmore_ball is not None:
            out["willmoreBall"] = self.willmore_ball
        if self.divergence_residual is not None:
            out["divergenceResidual"] = self.divergence_residual
        return out


def energy_report(
    surface: SampledSurface, region: WettedRegion, boundary_point=None, r_grid=None
) -> EnergyReport:
    """Assemble the full energy report for one surface and its wetted region.

    When ``boundary_point`` is given, the boundary-density margin is
    included; otherwise only the global margin appears.
    """
    if surface.ambient.kind == HALFSPACE:
        wetted = oriented_area(curve_from_boundary(surface))
    else:
        wetted = eta_integral(region)
    theta = surface.theta
    w = willmore_energy(surface)
    margins = {
        "liYauGlobal": w - 2.0 * (1.0 - np.cos(theta)) * np.pi,
    }
    report = EnergyReport(
        ambient=surface.ambient.kind,
        theta=theta,
        willmore=w,
        willmore_classical=willmore_classical(surface),
        area=surface.area(),
        boundary_length=surface.boundary_length(),
        oriented_wetted_area=wetted,
        gauss_bonnet_residual=gauss_bonnet_residual(surface),
        gauss_equation_residual=gauss_equation_residual(surface),
        contact_residual=float(surface.metadata.get("contact_residual", np.nan)),
        max_mean_curvature=surface.max_mean_curvature(),
        margins=margins,
    )
    if boundary_point is not None:
        ly = li_yau_margin(surface, region, boundary_point, r_grid)
        margins["liYauDensity"] = ly.density_margin
        report.margins["boundaryDensity"] = ly.boundary_density
    if surface.ambient.kind == BALL:
        report.willmore_ball = willmore_ball(surface, region)
        report.divergence_residual = divergence_identity_residual(surface)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            margins["areaEstimate"] = area_estimate_margin(surface, region)
        margins["diskArea"] = disk_area_margin(surface)
    return report
