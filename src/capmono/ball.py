"""Monotonicity machinery inside the unit ball.

The companion ball of B_r(x0) under spherical inversion has radius
r/|x0| and center x0/|x0|^2, and the hat member of the radial pair picks
up inversion weights: position-coupling corrections with |x0|^2 factors
and, in the capillary case, wetted-measure corrections on the sphere.
The origin is its own analytic branch, where the hat member collapses to
a constant multiple of the boundary measure.

All ball restrictions are radius-averaged over one shared window per
evaluation (see radial.RadialPrefix.windowed); the identities hold at
every radius, so they survive the averaging while the sample staircase
does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional
import warnings

import numpy as np

from .energy import density, tilde_density, willmore_energy
from .errors import AmbientError, GeometryError
from .fields import TestVectorField
from .geometry import BALL, companion, rowdot
from .identity import (
    PairTerms,
    assemble,
    center_offsets,
    nudge_off_samples,
    probe_state,
    profile_residual,
    square_weights,
    surface_variation,
)
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .wetted import BallRestrictedEta, WettedRegion, eta_integral

ORIGIN = "origin"
GENERAL = "general"


@dataclass
class BallProfile:
    """Radial-grid evaluation of the capillary radial pair in the ball.

    ``big_g`` is the monotone combination for theta in [pi/2, pi);
    ``remainder`` collects the position-coupling terms that vanish as the
    radius shrinks; ``residual`` holds normalized identity residuals over
    consecutive grid pairs.  ``branch`` is "origin" exactly when the base
    point sits at the origin.
    """

    base_point: np.ndarray
    r_grid: np.ndarray
    g_theta: np.ndarray
    g_hat_theta: np.ndarray
    big_g: np.ndarray
    remainder: np.ndarray
    residual: np.ndarray
    branch: str

    def min_forward_difference(self) -> float:
        return float(np.min(np.diff(self.big_g)))

    def worst_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))


def _projection(nodes: np.ndarray, rel: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Per-node ((x - c).x / |x - c|^2)^2, the wetted projection integrand.

    ``rel`` and ``d2`` are the nodes' ``center_offsets`` from c.
    """
    return (rowdot(rel, nodes) / np.maximum(d2, 1e-300)) ** 2


class _BallTerms(PairTerms):
    """Prefix sums of every integrand of the ball identity at one base point."""

    def __init__(self, surface: SampledSurface, region: Optional[WettedRegion], x0):
        if surface.ambient.kind != BALL:
            raise AmbientError("ball monotonicity needs a surface in the unit ball")
        super().__init__(surface, x0, RadialPrefix)
        if self.divisor < 1e-6:
            warnings.warn(
                f"base point |x0| = {self.divisor:.2e} is badly conditioned for the "
                "general branch; the origin branch starts at 1e-12",
                stacklevel=3,
            )
        self.eta = None
        self.eta_hat = None
        if region is not None:
            nodes, _ = region.eta_nodes()
            rel, d2 = center_offsets(nodes, self.x0)
            self.eta = BallRestrictedEta(region, self.x0, {"proj": _projection(nodes, rel, d2)}, d2=d2)
            rel, d2 = center_offsets(nodes, self.x0_hat)
            hat = {"proj": _projection(nodes, rel, d2), "dist2": d2}
            self.eta_hat = BallRestrictedEta(region, self.x0_hat, hat, d2=d2)

    def hat_arrays(self) -> Mapping:
        """The surface's inversion weights (``SampledSurface.inversion_arrays``)."""
        return self.surface.inversion_arrays

    # -- members of the pair -----------------------------------------------------
    #
    # every 1/r^2-weighted restriction is averaged as the whole term
    # M(s)/s^2; with s = d0 u the hat terms d0^2 M(u)/ (pi s^2) become
    # M(u)/(pi u^2), so the d0^2 prefactors cancel against q2h

    def _inversion(self, r, w):
        """Position corrections of the inverted member.

        Returns (dist2 + tangential)/pi and h_dist2_x/(2 pi), the |x - xi|^2
        and H.x-weighted terms the inversion adds to the hat member.
        """
        xi = self.x0_hat
        xi2 = np.dot(xi, xi)
        dist2 = self.q2h("x2", r, w) - 2.0 * self.q2h("x", r, w) @ xi + xi2 * self.q2h("mass", r, w)
        tangential = (
            self.q2h("x2", r, w)
            - self.q2h("x", r, w) @ xi
            - self.q2h("xnu2", r, w)
            + self.q2h("nu_xnu", r, w) @ xi
        )
        h_dist2_x = self.q2h("x2hx", r, w) - 2.0 * self.q2h("xhx", r, w) @ xi + xi2 * self.q2h("hx", r, w)
        return (dist2 + tangential) / np.pi, h_dist2_x / (2 * np.pi)

    def free_pair(self, r):
        """(g, g_hat) without wetted-measure corrections (vectorized in r)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        g = self.q2("mass", r, w) / np.pi + self.q("h2", r, w) / (16 * np.pi) + self.coupling(r, w)
        g_at_xi = (
            self.q2h("mass", r, w) / np.pi
            + self.qh("h2", r, w) / (16 * np.pi)
            + self.coupling_hat(r, w)
        )
        position, curvature = self._inversion(r, w)
        g_hat = (
            g_at_xi
            - position
            - curvature
            + self.qh("hx", r, w) / (2 * np.pi)
            + self.qh("mass", r, w) / np.pi
        )
        return g, g_hat

    def pair(self, r):
        """(g_theta, g_hat_theta): the pair with wetted-measure corrections."""
        if self.eta is None:
            raise GeometryError("capillary pair needs a wetted region")
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        g, g_hat = self.free_pair(r)
        ct = np.cos(self.theta)
        r_hat, w_hat = self.hat(r, w)
        g_theta = g - ct * self.eta.windowed_over_r2("mass", r, w) / np.pi
        g_hat_theta = (
            g_hat
            - ct * self.eta_hat.windowed_over_r2("mass", r_hat, w_hat) / np.pi
            + ct * self.eta_hat.windowed_over_r2("dist2", r_hat, w_hat) / np.pi
            - ct * self.eta_hat.windowed("mass", r_hat, w_hat) / np.pi
        )
        return g_theta, g_hat_theta

    def remainder(self, r):
        """The position-coupling remainder of the capillary pair."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        r_hat, w_hat = self.hat(r, w)
        position, curvature = self._inversion(r, w)
        rem = self.coupling(r, w) + self.coupling_hat(r, w) - position - curvature
        ct = np.cos(self.theta)
        return (
            rem
            + ct * self.eta_hat.windowed_over_r2("dist2", r_hat, w_hat) / np.pi
            - ct * self.eta_hat.windowed("mass", r_hat, w_hat) / np.pi
            + self.qh("hx", r, w) / (2 * np.pi)
            + self.qh("mass", r, w) / np.pi
        )

    def deficits(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        ct = np.cos(self.theta)
        return (
            -ct / np.pi * self.eta.windowed("proj", r, w),
            -ct / np.pi * self.eta_hat.windowed("proj", *self.hat(r, w)),
        )


# -- public operations -------------------------------------------------------


def free_boundary_radial_pair(surface: SampledSurface, x0, r: float):
    """The inversion-weighted radial pair without wetted corrections."""
    x0 = nudge_off_samples(surface, np.asarray(x0, dtype=float))
    t = _BallTerms(surface, None, x0)
    g, g_hat = t.free_pair(float(r))
    return float(g[0]), float(g_hat[0])


def capillary_radial_pair(surface: SampledSurface, region: WettedRegion, x0, r: float):
    """The radial pair with the wetted-measure corrections."""
    x0 = nudge_off_samples(surface, np.asarray(x0, dtype=float))
    t = _BallTerms(surface, region, x0)
    g, g_hat = t.pair(float(r))
    return float(g[0]), float(g_hat[0])


class _OriginTerms:
    """Origin-branch integrals: plain prefix sums about zero."""

    def __init__(self, surface: SampledSurface):
        self.surface = surface
        origin = np.zeros(3)
        rel, r2 = center_offsets(surface.points, origin)
        arrays = {**surface.mu_arrays, "sq": square_weights(surface, rel, r2)}
        self.prefix = RadialPrefix(surface.points, origin, arrays, d2=r2)

    def window(self, r):
        """Ring-commensurate averaging window shared by every origin term.

        The origin sits on the symmetry axis of every generator, so the
        sample distances cluster in rings; snapping the window edges to ring
        gaps integrates the staircase exactly.  Edges are forced monotone
        over the (sorted) radius grid so sliding averages of a monotone
        profile stay monotone.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = np.minimum(self.prefix.auto_halfwidth(r), 0.9 * r)
        lo, hi = self.prefix.snapped_window(r, w)
        lo = np.maximum.accumulate(lo)
        hi = np.maximum.accumulate(hi)
        hi = np.maximum(hi, lo + 1e-12)
        return lo, hi

    def g(self, r):
        lo, hi = self.window(r)
        return (
            self.prefix.bounds_average("mass", lo, hi, over_r2=True) / np.pi
            + self.prefix.bounds_average("h2", lo, hi) / (16 * np.pi)
            + self.prefix.bounds_average("hx", lo, hi, over_r2=True) / (2 * np.pi)
        )

    def g_hat(self, r):
        """Boundary-measure hat member, averaged in closed form on the window.

        The uniform average of min(s^-2, 1) over [a, b] is
        [(min(b,1) - min(a,1)) + 1/max(a,1) - 1/max(b,1)] / (b - a).
        """
        a, b = self.window(r)
        gamma = self.surface.boundary_length()
        coeff = -np.sin(self.surface.theta) * gamma / (2 * np.pi)
        integral = (np.minimum(b, 1.0) - np.minimum(a, 1.0)) + 1.0 / np.maximum(a, 1.0) - 1.0 / np.maximum(b, 1.0)
        avg = integral / np.maximum(b - a, 1e-300)
        return coeff * avg

    def squares(self, r):
        lo, hi = self.window(r)
        return self.prefix.bounds_average("sq", lo, hi) / np.pi

    def remainder(self, r):
        lo, hi = self.window(r)
        return self.prefix.bounds_average("hx", lo, hi, over_r2=True) / (2 * np.pi)


def probe_terms(surface: SampledSurface, region: WettedRegion, x0):
    """The restriction state at one base point: origin or general branch.

    At the origin (|x0| < 1e-12) this is the origin branch's prefix; anywhere
    else the base point is nudged off the samples and both η restrictions
    are built.  One object serves the profile and every two-radius pair of
    the probe (the ``terms=`` keyword of :func:`monotonicity_profile` and
    :func:`monotonicity_identity_detail`); ``probe`` keeps the raw base
    point, which those two functions check against theirs.
    """
    probe = np.array(x0, dtype=float)
    if np.linalg.norm(probe) < 1e-12:
        terms = _OriginTerms(surface)
    else:
        terms = _BallTerms(surface, region, nudge_off_samples(surface, probe))
    terms.probe = probe
    return terms


def monotonicity_identity_detail(
    surface: SampledSurface, region: WettedRegion, x0, sigma: float, rho: float, *, terms=None
) -> dict:
    """Identity terms, raw and normalized residuals, and the branch taken.

    The general branch equates two annulus square integrals minus two
    wetted projection integrals with the increment of the capillary pair;
    the origin branch has a single square integral against g_0 plus the
    constant boundary-measure hat term.  ``terms`` is the probe's
    :func:`probe_terms` state; without it the state is built for this call.
    Terms built for another surface or base point raise ValueError.
    """
    if not 0.0 < sigma <= rho:
        raise ValueError("need 0 < sigma <= rho")
    if sigma == rho:
        return {"residual": 0.0, "normalized": 0.0, "scale": 1.0, "branch": GENERAL}
    t = probe_state(probe_terms, surface, region, x0, terms)
    if isinstance(t, _OriginTerms):
        r = np.array([sigma, rho])
        lhs = float(np.diff(t.squares(r))[0])
        rhs = float(np.diff(t.g(r) + t.g_hat(r))[0])
        scale = max(abs(lhs), abs(rhs), 1e-12)
        return {
            "square": lhs,
            "delta_g": rhs,
            "residual": lhs - rhs,
            "normalized": (lhs - rhs) / scale,
            "scale": scale,
            "branch": ORIGIN,
        }
    return {**assemble(t.identity_terms(sigma, rho), sign=-1), "branch": GENERAL}


def monotonicity_profile(
    surface: SampledSurface, region: WettedRegion, x0, r_grid, *, terms=None
) -> BallProfile:
    """Profile of the capillary pair over a radius grid, both branches.

    ``terms`` is the probe's :func:`probe_terms` state; without it the state
    is built for this call.  Terms built for another surface or base point
    raise ValueError.
    """
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    t = probe_state(probe_terms, surface, region, x0, terms)
    if isinstance(t, _OriginTerms):
        g = t.g(r_grid)
        g_hat = t.g_hat(r_grid)
        big_g = g + g_hat
        # the origin identity has no deficit terms
        residual = profile_residual(big_g, t.squares(r_grid), np.zeros(len(r_grid)))
        return BallProfile(t.probe, r_grid, g, g_hat, big_g, t.remainder(r_grid), residual, ORIGIN)

    g_theta, g_hat_theta, big_g, remainder, _, residual = t.profile(r_grid)
    return BallProfile(t.x0, r_grid, g_theta, g_hat_theta, big_g, remainder, residual, GENERAL)


def first_variation_residual(
    surface: SampledSurface, region: WettedRegion, field: TestVectorField
) -> float:
    """Residual of the bounded first variation in the ball for any field.

    int div_Sigma X dmu - cos(theta) int div_sphere X deta + int H.X dmu
    + 2 cos(theta) int X.x deta - sin(theta) int X.x dgamma, with gamma the
    arclength measure on the boundary.
    """
    if surface.ambient.kind != BALL:
        raise AmbientError("this first variation lives in the unit ball")
    term1, term3 = surface_variation(surface, field)
    nodes, eta_w = region.eta_nodes()
    jac_s = field.jacobian(nodes)
    div_sphere = np.trace(jac_s, axis1=1, axis2=2) - np.einsum(
        "ni,nij,nj->n", nodes, jac_s, nodes
    )
    term2 = float(np.sum(div_sphere * eta_w))
    term4 = float(np.sum(np.sum(field(nodes) * nodes, axis=1) * eta_w))
    bp = surface.boundary_points
    term5 = float(np.sum(np.sum(field(bp) * bp, axis=1) * surface.boundary_weights))
    theta = surface.theta
    return term1 - np.cos(theta) * term2 + term3 + 2 * np.cos(theta) * term4 - np.sin(theta) * term5


def sphere_point_identity_residual(x, x0) -> float:
    """Residual of the half identity for two unit-sphere points.

    ((x-x0)/|x-x0|^2 . x)^2 + ((x-xi(x0))/|x-xi(x0)|^2 . x)^2 = 1/2 on the
    sphere; zero to rounding for distinct points.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9 or abs(np.linalg.norm(x0) - 1.0) > 1e-9:
        raise GeometryError("both points must lie on the unit sphere")
    if np.linalg.norm(x - x0) < 1e-12:
        raise GeometryError("the identity is undefined at coincident points")
    # extended precision, with the inputs re-projected onto the exact unit
    # sphere: the residual is sensitive to radial input error at eps/|x-x0|^2
    xl = x.astype(np.longdouble)
    xl = xl / np.sqrt(np.dot(xl, xl))
    x0l = x0.astype(np.longdouble)
    x0l = x0l / np.sqrt(np.dot(x0l, x0l))
    xil = x0l / np.dot(x0l, x0l)
    t1 = (np.dot(xl - x0l, xl) / np.dot(xl - x0l, xl - x0l)) ** 2
    t2 = (np.dot(xl - xil, xl) / np.dot(xl - xil, xl - xil)) ** 2
    return float(t1 + t2 - np.longdouble(0.5))


def minimal_density_identity_residual(surface: SampledSurface, region: WettedRegion, x0) -> float:
    """Residual of the minimal-surface density identity at a sphere point.

    (1/pi) int [|(x-x0)perp|^2/|x-x0|^4 + (inverted twin)] dmu
    = (2|Sigma| - cos(theta)|T|)/(2 pi) - (1 - cos(theta)) N(x0), with the
    multiplicity N read off the boundary density.
    """
    max_h = surface.max_mean_curvature()
    if max_h > 1e-6:
        raise GeometryError(f"identity needs a minimal surface (max |H| = {max_h:.2g})")
    x0 = np.asarray(x0, dtype=float)
    if abs(np.linalg.norm(x0) - 1.0) > 1e-6:
        raise GeometryError("the base point must lie on the unit sphere")
    x0 = nudge_off_samples(surface, x0)
    xi, _ = companion(x0, surface.ambient)
    pts, w, nu = surface.points, surface.weights, surface.normals
    lhs = 0.0
    for c in (x0, xi):
        rel = pts - c
        r2 = np.sum(rel * rel, axis=1)
        perp = np.sum(rel * nu, axis=1)
        lhs += float(np.sum(perp**2 / r2**2 * w)) / np.pi
    n_x0 = 2.0 * density(surface, x0)
    theta = surface.theta
    rhs = (2.0 * surface.area() - np.cos(theta) * eta_integral(region)) / (2 * np.pi) - (
        1.0 - np.cos(theta)
    ) * n_x0
    return lhs - rhs


def limit_identity_residuals(surface: SampledSurface, region: WettedRegion, x0) -> dict:
    """Residuals of the full-space limit identities at one base point.

    The branch is chosen by the base point: origin, a point of the unit
    sphere, or a general point; the key of the returned dict names it.
    """
    x0 = np.asarray(x0, dtype=float)
    theta = surface.theta
    gamma = surface.boundary_length()
    w_tot = willmore_energy(surface)

    def mu_square(center):
        return float(np.sum(square_weights(surface, *center_offsets(surface.points, center))))

    if np.linalg.norm(x0) < 1e-12:
        lhs = mu_square(np.zeros(3)) / np.pi
        rhs = (
            w_tot / (4 * np.pi)
            + np.sin(theta) * gamma / (2 * np.pi)
            - tilde_density(surface, region, x0)
        )
        return {"origin": lhs - rhs}

    x0 = nudge_off_samples(surface, x0)
    xi, _ = companion(x0, surface.ambient)
    nodes, eta_w = region.eta_nodes()
    eta_total = float(np.sum(eta_w))

    def eta_proj(center):
        return float(np.sum(_projection(nodes, *center_offsets(nodes, center)) * eta_w))

    lhs_mu = (mu_square(x0) + mu_square(xi)) / np.pi
    tilde = tilde_density(surface, region, x0)
    if abs(np.linalg.norm(x0) - 1.0) <= 1e-6:
        # on the sphere the two projection factors sum to 1/2 pointwise
        rhs = (
            w_tot / (2 * np.pi)
            + (np.sin(theta) * gamma - np.cos(theta) * eta_total) / (2 * np.pi)
            - tilde
        )
        return {"sphere_point": lhs_mu - rhs}
    lhs = lhs_mu - np.cos(theta) / np.pi * (eta_proj(x0) + eta_proj(xi))
    rhs = (
        w_tot / (2 * np.pi)
        + (np.sin(theta) * gamma - 2.0 * np.cos(theta) * eta_total) / (2 * np.pi)
        - tilde
    )
    return {"general": lhs - rhs}
