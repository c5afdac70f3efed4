"""Monotonicity machinery over the half-space.

The radial ratio pair (g, g_hat) combines ball-restricted area, wetted
mass, curvature energy and a curvature-position coupling, the second
member living on the reflected ball.  Their sum obeys an exact identity:
the increment between two radii equals two annulus integrals of
|H/4 + perpendicular part|^2 minus two wetted deficit integrals weighted
by -2 cos(theta) a3^2.  Everything here evaluates those pieces from one
shared sample set so the identity can be checked to quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import tilde_density
from .errors import AmbientError
from .fields import TANGENT, TestVectorField
from .geometry import HALFSPACE
from .identity import PairTerms, assemble, nudge_off_samples, probe_state, surface_variation
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .wetted import BallRestrictedEta, WettedRegion


@dataclass
class MonotonicityProfile:
    """Radial-grid evaluation of the monotone combination at one base point.

    ``big_g`` is g + g_hat (the monotone quantity for theta >= pi/2, or for
    base points on the plane); ``remainder`` the curvature-position part that
    vanishes at small radius; ``deficit`` the cumulative wetted deficit;
    ``residual`` the normalized identity residual over consecutive grid
    pairs (first entry zero).  Monotonicity is reported, never asserted:
    outside the stated regimes the profile is still produced.
    """

    base_point: np.ndarray
    r_grid: np.ndarray
    g: np.ndarray
    g_hat: np.ndarray
    big_g: np.ndarray
    remainder: np.ndarray
    deficit: np.ndarray
    residual: np.ndarray
    doubling_ratio_max: float

    def min_forward_difference(self) -> float:
        return float(np.min(np.diff(self.big_g)))

    def worst_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))


class _Terms(PairTerms):
    """Prefix sums of every integrand the identity needs, at one base point."""

    def __init__(self, surface: SampledSurface, region: WettedRegion, a):
        if surface.ambient.kind != HALFSPACE:
            raise AmbientError("half-space monotonicity needs a half-space surface")
        super().__init__(surface, a, RadialPrefix)
        a = self.x0
        nodes, _ = region.eta_nodes()
        rel = nodes - a
        r4 = np.maximum(np.sum(rel * rel, axis=1) ** 2, 1e-300)
        deficit = (a[2] ** 2 / r4) if a[2] != 0.0 else np.zeros(len(nodes))
        # eta(B_r(a)) = eta(B_hat_r(a)): plane nodes are equidistant from a
        # and its reflection, so a single restriction serves both balls
        self.eta = BallRestrictedEta(region, a, {"deficit": deficit})

    def pair(self, r):
        """The radial ratio pair (g, g_hat) at radius r (vectorized).

        Every 1/r^2-weighted restriction is averaged as the whole term
        M(s)/s^2 so the radius averaging commutes with the identity.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        ct = np.cos(self.theta)
        eta_ratio = self.eta.windowed_over_r2("mass", r, w)
        g = (
            (self.q2("mass", r, w) - ct * eta_ratio) / np.pi
            + self.q("h2", r, w) / (16 * np.pi)
            + self.coupling(r, w)
        )
        g_hat = (
            (self.q2h("mass", r, w) - ct * eta_ratio) / np.pi
            + self.qh("h2", r, w) / (16 * np.pi)
            + self.coupling_hat(r, w)
        )
        return g, g_hat

    def remainder(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        val = (
            self.q2("hx", r, w)
            - self.q2("h", r, w) @ self.x0
            + self.q2h("hx", r, w)
            - self.q2h("h", r, w) @ self.x0_hat
        )
        return val / (2 * np.pi)

    def deficits(self, r):
        """Cumulative wetted deficit terms of the two balls, averaged.

        Assembling the first variation and dividing by 2*pi gives the
        coefficient -(cos(theta)/pi) per ball, the normalization the
        ball-configuration identity carries as well.  Both balls share the
        one eta restriction, so the two terms are equal.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        dfc = -np.cos(self.theta) / np.pi * self.eta.windowed("deficit", r, w)
        return dfc, dfc


def probe_terms(surface: SampledSurface, region: WettedRegion, a) -> _Terms:
    """The restriction state at one base point, nudged off the samples.

    One object serves the profile and every two-radius pair of the probe
    (the ``terms=`` keyword of :func:`monotonicity_profile` and
    :func:`monotonicity_identity_detail`); its η restriction keeps the
    coverage corrections of every radius it has evaluated.  ``probe`` keeps
    the raw base point, which those two functions check against theirs.
    """
    probe = np.array(a, dtype=float)
    terms = _Terms(surface, region, nudge_off_samples(surface, probe))
    terms.probe = probe
    return terms


def monotonicity_identity_detail(
    surface: SampledSurface, region: WettedRegion, a, sigma: float, rho: float, *, terms=None
) -> dict:
    """All six identity terms plus raw and normalized residuals.

    ``terms`` is the probe's :func:`probe_terms` state; without it the state
    is built for this call.  Terms built for another surface or base point
    raise ValueError.
    """
    if not 0.0 < sigma <= rho:
        raise ValueError("need 0 < sigma <= rho")
    if sigma == rho:
        return {"residual": 0.0, "normalized": 0.0, "scale": 1.0}
    t = probe_state(probe_terms, surface, region, a, terms)
    return assemble(t.identity_terms(sigma, rho), sign=1)


def monotonicity_profile(
    surface: SampledSurface, region: WettedRegion, a, r_grid, *, terms=None
) -> MonotonicityProfile:
    """Profile of g, g_hat, their sum and the identity pieces over a grid.

    ``terms`` is the probe's :func:`probe_terms` state; without it the state
    is built for this call.  Terms built for another surface or base point
    raise ValueError.
    """
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    t = probe_state(probe_terms, surface, region, a, terms)
    g, g_hat, big_g, remainder, deficit, residual = t.profile(r_grid)

    # crude mass-ratio doubling bound as a sanity ratio (<= 1 when it applies)
    ct = np.cos(t.theta)
    w_grid = t.halfwidth(r_grid)
    lhs_ratio = (
        t.q2("mass", r_grid, w_grid)
        + t.q2h("mass", r_grid, w_grid)
        - 2 * ct * t.eta.windowed_over_r2("mass", r_grid, w_grid)
    ) / np.pi
    w_tot = float(t.mu.cumulative("h2", np.inf))
    bound = 3.0 * lhs_ratio + 9.0 / (8.0 * np.pi) * w_tot
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = lhs_ratio[None, :-1] / bound[1:, None]
    doubling = float(np.nanmax(np.tril(ratios))) if len(r_grid) > 1 else 0.0

    return MonotonicityProfile(
        base_point=t.x0,
        r_grid=r_grid,
        g=np.asarray(g),
        g_hat=np.asarray(g_hat),
        big_g=np.asarray(big_g),
        remainder=np.asarray(remainder),
        deficit=np.asarray(deficit),
        residual=residual,
        doubling_ratio_max=doubling,
    )


def boundary_limit_identity_residual(surface: SampledSurface, region: WettedRegion, a) -> float:
    """Residual of the full-space limit identity at a plane base point.

    (2/pi) int |H/4 + perp/(r^2)|^2 dmu = (1/(8 pi)) int |H|^2 dmu minus the
    two-ball density of mu - cos(theta) eta at the point; the density
    extrapolation dominates the error budget.
    """
    a = np.asarray(a, dtype=float)
    if abs(a[2]) > 1e-9:
        raise ValueError("the boundary limit identity needs a base point on the plane")
    t = probe_terms(surface, region, a)
    lhs = 2.0 / np.pi * float(t.mu.cumulative("sq", np.inf))
    w_tot = float(t.mu.cumulative("h2", np.inf))
    rhs = w_tot / (8.0 * np.pi) - tilde_density(surface, region, t.x0)
    return lhs - rhs


def first_variation_residual(
    surface: SampledSurface, region: WettedRegion, field: TestVectorField
) -> float:
    """Residual of the contact-angle first variation for a tangent field.

    int div_Sigma X dmu - cos(theta) int div_plane X deta + int H.X dmu,
    which vanishes for capillary pairs.
    """
    if surface.ambient.kind != HALFSPACE:
        raise AmbientError("this first variation lives over the half-space")
    if field.tangency != TANGENT:
        raise ValueError("the half-space first variation needs a plane-tangent field")
    field.verify_tangency(surface.ambient)
    term1, term3 = surface_variation(surface, field)
    nodes, eta_w = region.eta_nodes()
    jac_p = field.jacobian(nodes)
    div_plane = jac_p[:, 0, 0] + jac_p[:, 1, 1]
    term2 = float(np.sum(div_plane * eta_w))
    return term1 - np.cos(surface.theta) * term2 + term3
