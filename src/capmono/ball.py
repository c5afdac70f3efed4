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

from typing import Mapping, Optional
import warnings

import numpy as np

from .energy import density, density_radii, extrapolate, willmore_energy
from .errors import AmbientError, GeometryError
from .fields import TestVectorField
from .geometry import BALL, rowdot
# the identity front end is imported under the names the CLI calls
from .identity import (  # noqa: F401
    TERM_KEYS,
    PairTerms,
    ProbeTerms,
    Term,
    center_arrays,
    offset_dots,
    first_variation,
    monotonicity_identity_detail,
    monotonicity_profile,
)
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .wetted import BallRestrictedEta, WettedRegion, eta_integral

ORIGIN = "origin"
GENERAL = "general"


def _projection_antiderivative(m: float):
    """P(u) = int_0^u g for the wetted projection integrand g = ((x - c).x / |x - c|^2)^2.

    c is a center at distance m from the origin, and u = 1 - x.c-hat on the
    unit sphere (see ``wetted.BallRestrictedEta``).  With D = |x - c|^2 =
    (1 - m)^2 + 2 m u and k = 1 - m^2, (x - c).x = (D + k) / 2, so
    g = 1/4 + k / (2 D) + k^2 / (4 D^2), which integrates in closed form.
    At m = 1, g is 1/4 and P = u/4; near it the last term carries a mass of
    about 1/2 within |1 - m| of c-hat, inside every ball that reaches the
    sphere.
    """
    if m == 1.0:
        return lambda u: 0.25 * u
    k = (1.0 - m) * (1.0 + m)
    d0 = (1.0 - m) ** 2
    return lambda u: 0.25 * u + k / (4.0 * m) * np.log1p(2.0 * m * u / d0) + (1.0 + m) ** 2 * u / (4.0 * (d0 + 2.0 * m * u))


def _dist2_antiderivative(m: float):
    """P(u) = int_0^u |x - c|^2 for |x - c|^2 = (1 - m)^2 + 2 m u, with m and u as above."""
    d0 = (1.0 - m) ** 2
    return lambda u: d0 * u + m * u * u


# The ball identity, one row per term (see identity.Term).  The hat
# member is g about the inverted center xi plus the inversion's position
# corrections (the ``pos`` and ``hpos`` keys of _BallTerms.hat_arrays), the
# H.x and mass terms, and the wetted corrections on the sphere.  Every
# 1/r^2-weighted restriction is averaged as the whole term M(s)/s^2; with
# s = d0 u the hat terms d0^2 M(u)/(pi s^2) become M(u)/(pi u^2), so the
# d0^2 prefactors cancel.  The free-boundary pair is the mu and mu_hat
# rows of g and g_hat.
_TABLE = (
    #    member         source     key      over_r2  coeff               remainder
    Term("g",           "mu",      "mass",  True,    1 / np.pi),
    Term("g",           "mu",      "h2",    False,   1 / (16 * np.pi)),
    Term("g",           "mu",      "hxc",   True,    1 / (2 * np.pi),    True),
    Term("g",           "eta",     "mass",  True,    -1 / np.pi),
    Term("g_hat",       "mu_hat",  "mass",  True,    1 / np.pi),
    Term("g_hat",       "mu_hat",  "h2",    False,   1 / (16 * np.pi)),
    Term("g_hat",       "mu_hat",  "hxc",   True,    1 / (2 * np.pi),    True),
    Term("g_hat",       "mu_hat",  "pos",   True,    -1 / np.pi,         True),
    Term("g_hat",       "mu_hat",  "hpos",  True,    -1 / (2 * np.pi),   True),
    Term("g_hat",       "mu_hat",  "hx",    False,   1 / (2 * np.pi),    True),
    Term("g_hat",       "mu_hat",  "mass",  False,   1 / np.pi,          True),
    Term("g_hat",       "eta_hat", "mass",  True,    -1 / np.pi),
    Term("g_hat",       "eta_hat", "dist2", True,    1 / np.pi,          True),
    Term("g_hat",       "eta_hat", "mass",  False,   -1 / np.pi,         True),
    Term("square",      "mu",      "sq",    False,   1 / np.pi),
    Term("square_hat",  "mu_hat",  "sq",    False,   1 / np.pi),
    Term("deficit",     "eta",     "proj",  False,   -1 / np.pi),
    Term("deficit_hat", "eta_hat", "proj",  False,   -1 / np.pi),
)
_FREE_ROWS = tuple(row for row in _TABLE if row.member in ("g", "g_hat") and row.source in ("mu", "mu_hat"))


class _BallTerms(PairTerms):
    """Prefix sums of every integrand of the ball identity at one base point."""

    SIGN = -1
    BRANCH = GENERAL
    TABLE = _TABLE
    HAT_FIELDS = ("points",)

    def __init__(self, surface: SampledSurface, region: Optional[WettedRegion], probe):
        if surface.ambient.kind != BALL:
            raise AmbientError("ball monotonicity needs a surface in the unit ball")
        super().__init__(surface, probe, RadialPrefix)
        if self.divisor < 1e-6:
            warnings.warn(
                f"base point |x0| = {self.divisor:.2e} is badly conditioned for the "
                "general branch; the origin branch starts at 1e-12",
                stacklevel=3,
            )
        self.eta = None
        self.eta_hat = None
        if region is not None:
            m = float(np.linalg.norm(self.x0))
            self.eta = BallRestrictedEta(region, self.x0, {"proj": _projection_antiderivative(m)})
            m = float(np.linalg.norm(self.x0_hat))
            hat = {"proj": _projection_antiderivative(m), "dist2": _dist2_antiderivative(m)}
            self.eta_hat = BallRestrictedEta(region, self.x0_hat, hat)

    def hat_arrays(self, r2: np.ndarray, nu_rel: np.ndarray, x_rel: np.ndarray) -> Mapping:
        """The inverted member's keys of the companion prefix about xi = ``x0_hat``.

        ``pos`` is (|x - xi|^2 + x.(x - xi) - (x.nu)(nu.(x - xi))) w and
        ``hpos`` is |x - xi|^2 (H.x) w.  xi is fixed per probe, so each
        sample's contraction with it is made once, here, and the companion
        prefix restricts two rows instead of twelve rows of
        probe-independent position weights (|x|^2, x, (x.nu)^2, nu (x.nu),
        and |x|^2 and x times H.x) contracted with xi after every
        restriction.  The shared ``hx`` = (H.x) w is the one key the
        direct prefix does not hold: only the inverted member reads it,
        windowed.  ``r2``, ``nu_rel`` and ``x_rel`` are the samples'
        |x - xi|^2, nu.(x - xi) and x.(x - xi).
        """
        surface = self.surface
        hx = surface.mu_arrays["hx"]
        tangential = x_rel - rowdot(surface.points, surface.normals) * nu_rel
        return {"hx": hx, "pos": (r2 + tangential) * surface.weights, "hpos": r2 * hx}


# -- public operations -------------------------------------------------------


def free_boundary_radial_pair(surface: SampledSurface, x0, r: float):
    """The inversion-weighted radial pair without wetted corrections.

    Only general-branch base points are accepted: the pair needs the
    inverted companion of x0, so at the origin (|x0| < 1e-12) it raises
    NoHatBallError.  The origin branch has no wetted-free variant.
    """
    members = _BallTerms(surface, None, x0).members(float(r), _FREE_ROWS)
    return float(members["g"][0]), float(members["g_hat"][0])


class _OriginTerms(ProbeTerms):
    """Origin-branch integrals: plain prefix sums of the ``center_arrays``
    about zero, where the coupling ``hxc`` is H.x w.

    The identity has one square integral against the increment of
    g + g_hat (the constant boundary-measure hat member), and no companion
    square or deficit terms; those members are zeros.  The profile reports
    the raw probe as its base point.
    """

    SIGN = -1
    BRANCH = ORIGIN

    def __init__(self, surface: SampledSurface, probe):
        self.surface = surface
        self.probe = probe
        origin = np.zeros(3)
        dots = offset_dots(surface.points, origin, surface.mean_curvature, surface.normals)
        self.mu = RadialPrefix(surface.points, origin, center_arrays(surface, *dots), d2=dots[0])

    @property
    def base_point(self) -> np.ndarray:
        return self.probe

    def window(self, r):
        """Ring-commensurate averaging window shared by every origin term.

        The origin sits on the symmetry axis of every generator, so the
        sample distances cluster in rings; snapping the window edges to ring
        gaps integrates the staircase exactly.  Edges are forced monotone
        over the (sorted) radius grid so sliding averages of a monotone
        profile stay monotone.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = np.minimum(self.mu.auto_halfwidth(r), 0.9 * r)
        lo, hi = self.mu.snapped_window(r, w)
        lo = np.maximum.accumulate(lo)
        hi = np.maximum.accumulate(hi)
        hi = np.maximum(hi, lo + 1e-12)
        return lo, hi

    def members(self, r) -> dict:
        """g_0, the boundary-measure hat member, the square and R on the window.

        The uniform average of min(s^-2, 1) over [a, b] is
        [(min(b,1) - min(a,1)) + 1/max(a,1) - 1/max(b,1)] / (b - a).  The
        companion square and both deficits are zeros.
        """
        a, b = self.window(r)
        coupling = self.mu.bounds_average("hxc", a, b, over_r2=True) / (2 * np.pi)
        g = (
            self.mu.bounds_average("mass", a, b, over_r2=True) / np.pi
            + self.mu.bounds_average("h2", a, b) / (16 * np.pi)
            + coupling
        )
        coeff = -np.sin(self.surface.theta) * self.surface.boundary_length() / (2 * np.pi)
        integral = (np.minimum(b, 1.0) - np.minimum(a, 1.0)) + 1.0 / np.maximum(a, 1.0) - 1.0 / np.maximum(b, 1.0)
        zeros = np.zeros(len(a))
        return {
            "g": g,
            "g_hat": coeff * (integral / np.maximum(b - a, 1e-300)),
            "square": self.mu.bounds_average("sq", a, b) / np.pi,
            "square_hat": zeros,
            "deficit": zeros,
            "deficit_hat": zeros,
            "remainder": coupling,
        }

    def density(self) -> float:
        """The density of mu at the origin, which has no companion ball, read on ``energy.density_radii``."""
        r, exact = density_radii(self.surface, self.probe, self.mu.onset())
        w = 0.0 if exact else np.minimum(self.mu.auto_halfwidth(r), 0.9 * r)
        return extrapolate(r, self.mu.windowed_over_r2("mass", r, w) / np.pi)

    def identity_terms(self, sigma: float, rho: float) -> dict:
        """The increments of g + g_hat (as ``delta_g``) and of the square; the rest are 0.

        The pair enters as one term, so the normalizing scale is the larger
        of the two increments, not of g's and g_hat's apart.
        """
        members = self.members(np.array([sigma, rho]))
        terms = dict.fromkeys(TERM_KEYS, 0.0)
        terms["delta_g"] = float(np.diff(members["g"] + members["g_hat"])[0])
        terms["square"] = float(np.diff(members["square"])[0])
        return terms


def probe_terms(surface: SampledSurface, region: WettedRegion, x0):
    """The restriction state at one base point: origin or general branch.

    At the origin (|x0| < 1e-12) this is the origin branch's prefix; anywhere
    else the base point is nudged off the samples and both η restrictions
    are built.  One object serves the profile and every two-radius pair of
    the probe: :func:`monotonicity_profile` and
    :func:`monotonicity_identity_detail` take it, and its ``pair(r)`` is
    the capillary radial pair (g, g_hat) with the wetted corrections, the
    origin branch's at the origin.
    """
    probe = np.array(x0, dtype=float)
    if np.linalg.norm(probe) < 1e-12:
        return _OriginTerms(surface, probe)
    return _BallTerms(surface, region, probe)


def first_variation_residual(
    surface: SampledSurface, region: WettedRegion, field: TestVectorField
) -> float:
    """Residual of the bounded first variation in the ball for any field.

    int div_Sigma X dmu - cos(theta) int div_sphere X deta + int H.X dmu
    + 2 cos(theta) int X.x deta - sin(theta) int X.x dgamma, with gamma the
    arclength measure on the boundary.  On the unit sphere div X =
    div X^T + 2 X.x, so the two η terms are -cos(theta) times the flux of X
    out through the boundary curve (:func:`identity.first_variation`).
    """
    if surface.ambient.kind != BALL:
        raise AmbientError("this first variation lives in the unit ball")
    bp = surface.boundary_points
    term5 = float(np.sum(np.sum(field(bp) * bp, axis=1) * surface.boundary_weights))
    return first_variation(surface, region, field) - np.sin(surface.theta) * term5


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
    # on a minimal surface the square integrand is |(x - c)perp|^2 / |x - c|^4
    t = probe_terms(surface, region, x0)
    lhs = float(t.mu.cumulative("sq", np.inf) + t.mu_hat.cumulative("sq", np.inf)) / np.pi
    n_x0 = 2.0 * density(surface, t.x0)
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
    theta = surface.theta
    gamma = surface.boundary_length()
    w_tot = willmore_energy(surface)
    t = probe_terms(surface, region, x0)
    lhs_mu = float(t.mu.cumulative("sq", np.inf)) / np.pi
    if t.BRANCH == ORIGIN:
        rhs = w_tot / (4 * np.pi) + np.sin(theta) * gamma / (2 * np.pi) - t.density()
        return {"origin": lhs_mu - rhs}

    lhs_mu += float(t.mu_hat.cumulative("sq", np.inf)) / np.pi
    eta_total = eta_integral(region)
    # on the sphere the two projection factors sum to 1/2 pointwise, so the
    # projection integrals give half the wetted area
    on_sphere = abs(np.linalg.norm(t.x0) - 1.0) <= 1e-6
    proj = 0.0
    if not on_sphere:
        proj = float(t.eta.cumulative("proj", np.inf)[0] + t.eta_hat.cumulative("proj", np.inf)[0])
    lhs = lhs_mu - np.cos(theta) / np.pi * proj
    rhs = (
        w_tot / (2 * np.pi)
        + (np.sin(theta) * gamma - (1.0 if on_sphere else 2.0) * np.cos(theta) * eta_total) / (2 * np.pi)
        - t.density()
    )
    return {"sphere_point" if on_sphere else "general": lhs - rhs}
