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

import numpy as np

from .errors import AmbientError
from .fields import TANGENT, TestVectorField
from .geometry import HALFSPACE
from .identity import (
    PairTerms,
    Profile,
    Term,
    identity_detail,
    identity_profile,
    surface_variation,
)
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .wetted import BallRestrictedEta, WettedRegion, eta_divergence


def _deficit_antiderivative(a3: float):
    """F(rho) = rho^2 / (2 (rho^2 + a3^2)), as a function of rho^2: the antiderivative
    int_0^rho f(s) s ds of the wetted deficit density f = a3^2 / |x - a|^4.

    A base point on the plane has no deficit: its F is zero.
    """
    if a3 == 0.0:
        return np.zeros_like
    return lambda rho2: rho2 / (2.0 * (rho2 + a3 * a3))


# The half-space identity, one row per term (see identity.Term).  Plane
# points are equidistant from a and its reflection, so eta(B_r(a)) equals
# eta of the reflected ball: one restriction, read at the direct radius,
# serves both members' eta rows.  Every 1/r^2-weighted restriction is
# averaged as the whole term M(s)/s^2 so the radius averaging commutes
# with the identity.  Assembling the first variation and dividing by
# 2 pi gives the deficit coefficient -cos(theta)/pi per ball, the
# normalization the ball identity carries as well.
_TABLE = (
    #    member         source    key        over_r2  coeff               remainder
    Term("g",           "mu",     "mass",    True,    1 / np.pi),
    Term("g",           "eta",    "mass",    True,    -1 / np.pi),
    Term("g",           "mu",     "h2",      False,   1 / (16 * np.pi)),
    Term("g",           "mu",     "hxc",     True,    1 / (2 * np.pi),    True),
    Term("g_hat",       "mu_hat", "mass",    True,    1 / np.pi),
    Term("g_hat",       "eta",    "mass",    True,    -1 / np.pi),
    Term("g_hat",       "mu_hat", "h2",      False,   1 / (16 * np.pi)),
    Term("g_hat",       "mu_hat", "hxc",     True,    1 / (2 * np.pi),    True),
    Term("square",      "mu",     "sq",      False,   1 / np.pi),
    Term("square_hat",  "mu_hat", "sq",      False,   1 / np.pi),
    Term("deficit",     "eta",    "deficit", False,   -1 / np.pi),
    Term("deficit_hat", "eta",    "deficit", False,   -1 / np.pi),
)


class _Terms(PairTerms):
    """Prefix sums of every integrand the identity needs, at one base point."""

    SIGN = 1
    BRANCH = None
    TABLE = _TABLE

    def __init__(self, surface: SampledSurface, region: WettedRegion, probe):
        if surface.ambient.kind != HALFSPACE:
            raise AmbientError("half-space monotonicity needs a half-space surface")
        super().__init__(surface, probe, RadialPrefix)
        self.eta = BallRestrictedEta(region, self.x0, {"deficit": _deficit_antiderivative(self.x0[2])})

    def doubling_ratio_max(self, r_grid) -> float:
        """Largest crude mass-ratio doubling ratio over a sorted grid (<= 1 when it applies)."""
        masses = self.members(r_grid, [row for row in self.TABLE if row.key == "mass"])
        lhs_ratio = masses["g"] + masses["g_hat"]
        w_tot = float(self.mu.cumulative("h2", np.inf))
        bound = 3.0 * lhs_ratio + 9.0 / (8.0 * np.pi) * w_tot
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = lhs_ratio[None, :-1] / bound[1:, None]
        return float(np.nanmax(np.tril(ratios))) if len(r_grid) > 1 else 0.0


def probe_terms(surface: SampledSurface, region: WettedRegion, a) -> _Terms:
    """The restriction state at one base point, nudged off the samples.

    One object serves the profile and every two-radius pair of the probe
    (the ``terms=`` keyword of :func:`monotonicity_profile` and
    :func:`monotonicity_identity_detail`).  ``probe`` keeps the raw base
    point, which those two functions check against theirs.
    """
    return _Terms(surface, region, a)


def monotonicity_identity_detail(
    surface: SampledSurface, region: WettedRegion, a, sigma: float, rho: float, *, terms=None
) -> dict:
    """All six identity terms, raw and normalized residuals (:func:`identity.identity_detail`)."""
    return identity_detail(probe_terms, surface, region, a, sigma, rho, terms)


def monotonicity_profile(surface: SampledSurface, region: WettedRegion, a, r_grid, *, terms=None) -> Profile:
    """Profile of g, g_hat, their sum and the identity pieces over a grid (:func:`identity.identity_profile`)."""
    return identity_profile(probe_terms, surface, region, a, r_grid, terms)


def boundary_limit_identity_residual(surface: SampledSurface, region: WettedRegion, a) -> float:
    """Residual of the full-space limit identity at a plane base point.

    (2/pi) int |H/4 + perp/(r^2)|^2 dmu = (1/(8 pi)) int |H|^2 dmu minus the
    two-ball density of mu - cos(theta) eta at the point (the probe terms'
    ``density``); the density extrapolation dominates the error budget.
    """
    a = np.asarray(a, dtype=float)
    if abs(a[2]) > 1e-9:
        raise ValueError("the boundary limit identity needs a base point on the plane")
    t = probe_terms(surface, region, a)
    lhs = 2.0 / np.pi * float(t.mu.cumulative("sq", np.inf))
    w_tot = float(t.mu.cumulative("h2", np.inf))
    rhs = w_tot / (8.0 * np.pi) - t.density()
    return lhs - rhs


def first_variation_residual(
    surface: SampledSurface, region: WettedRegion, field: TestVectorField
) -> float:
    """Residual of the contact-angle first variation for a tangent field.

    int div_Sigma X dmu - cos(theta) int div_plane X deta + int H.X dmu,
    which vanishes for capillary pairs.  The η term is the flux of X out
    through the boundary curve (:func:`wetted.eta_divergence`).
    """
    if surface.ambient.kind != HALFSPACE:
        raise AmbientError("this first variation lives over the half-space")
    if field.tangency != TANGENT:
        raise ValueError("the half-space first variation needs a plane-tangent field")
    field.verify_tangency(surface.ambient)
    term1, term3 = surface_variation(surface, field)
    return term1 - np.cos(surface.theta) * eta_divergence(region, field) + term3
