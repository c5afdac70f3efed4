"""The two-radius monotonicity identity, stated once for both ambients.

Over the half-space and in the unit ball, the increment of the radial pair
(g, g_hat) between two radii equals the annulus integrals of
|H/4 + (x - x0)perp/r^2|^2 about the base point and its companion, plus
the wetted deficit terms.  Only the companion differs between the
ambients (:func:`geometry.companion`): B_r(x0) is paired with the ball of
radius r / divisor about the reflected or inverted center.

This module holds what the ambients share: the base-point nudge, the
square integrand, one radius window for every term, the assembly of
identity residuals and the surface terms of the first variation.  Each
ambient module keeps its own pair, remainder and deficit terms.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .fields import TestVectorField
from .geometry import companion
from .surfaces import SampledSurface

_OFFSET = 1e-6

TERM_KEYS = ("delta_g", "delta_g_hat", "square", "square_hat", "deficit", "deficit_hat")


def nudge_off_samples(surface: SampledSurface, a: np.ndarray) -> np.ndarray:
    """Shift a base point off an exactly coincident sample.

    Offsets by 1e-6 along the boundary tangent at the nearest boundary
    sample; the integrands are bounded on smooth surfaces, the shift only
    dodges 0/0 at exact coincidence.
    """
    d = np.linalg.norm(surface.points - a, axis=1)
    db = np.linalg.norm(surface.boundary_points - a, axis=1)
    if min(d.min(initial=np.inf), db.min(initial=np.inf)) > 1e-9:
        return a
    k = int(np.argmin(db))
    return a + _OFFSET * surface.boundary_tangents[k]


def probe_state(build, surface: SampledSurface, region, a, terms):
    """The probe's terms: ``terms`` when given, else ``build(surface, region, a)``.

    Given terms must come from ``build`` (an ambient's ``probe_terms``) on
    this surface and this raw base point, which they record as ``probe``;
    terms of another probe would report its numbers under this one's name.
    """
    if terms is None:
        return build(surface, region, a)
    if terms.surface is not surface or not np.array_equal(terms.probe, np.asarray(a, dtype=float)):
        raise ValueError("terms were built for another surface or base point")
    return terms


def square_weights(surface: SampledSurface, center) -> np.ndarray:
    """Per-sample |H/4 + ((x - c).nu / |x - c|^2) nu|^2 times the area weight."""
    h, nu = surface.mean_curvature, surface.normals
    rel = surface.points - center
    r2 = np.sum(rel * rel, axis=1)
    perp = np.sum(rel * nu, axis=1)
    return np.sum((0.25 * h + (perp / r2)[:, None] * nu) ** 2, axis=1) * surface.weights


def surface_variation(surface: SampledSurface, field: TestVectorField) -> tuple[float, float]:
    """The surface terms int div_Sigma X dmu and int H.X dmu of a first variation."""
    pts = surface.points
    jac = field.jacobian(pts)
    nu = surface.normals
    div_sigma = np.trace(jac, axis1=1, axis2=2) - np.einsum("ni,nij,nj->n", nu, jac, nu)
    hx = np.sum(surface.mean_curvature * field(pts), axis=1)
    return float(np.sum(div_sigma * surface.weights)), float(np.sum(hx * surface.weights))


def profile_residual(big_g: np.ndarray, sq: np.ndarray, dfc: np.ndarray) -> np.ndarray:
    """Normalized identity residual over consecutive grid pairs (first entry zero).

    Each step of big_g - sq - dfc is normalized by the step terms, floored
    at a fraction of the profile scale so that empty annuli report ~0
    instead of 0/0 noise.
    """
    residual = np.zeros(len(big_g))
    steps = np.diff(big_g) - np.diff(sq) - np.diff(dfc)
    floor = 1e-2 * max(float(np.max(np.abs(big_g))), float(np.max(np.abs(sq))), 1e-10)
    scales = np.maximum.reduce(
        [np.abs(np.diff(big_g)), np.abs(np.diff(sq)), np.abs(np.diff(dfc)), np.full(len(big_g) - 1, floor)]
    )
    residual[1:] = steps / scales
    return residual


def assemble(terms: dict, sign: int) -> dict:
    """The six identity terms plus raw and normalized residuals.

    The residual is the increment of the pair minus the square and deficit
    terms for ``sign = 1``, and its negative for ``sign = -1`` (computed by
    swapping the operands, so an exact zero stays +0.0).  It is normalized
    by the largest term, floored at 1e-12.
    """
    increment = terms["delta_g"] + terms["delta_g_hat"]
    squares = terms["square"] + terms["square_hat"] + terms["deficit"] + terms["deficit_hat"]
    res = float(increment - squares) if sign > 0 else float(squares - increment)
    scale = max(max(abs(v) for v in terms.values()), 1e-12)
    return {**terms, "residual": res, "normalized": res / scale, "scale": scale}


class PairTerms:
    """Prefix sums about a base point and its companion, read in one window.

    ``prefix`` builds the two prefixes; the ambient modules pass their own
    ``RadialPrefix`` name, so instrumentation that replaces that name (as
    ``perfbench/tracing.py`` does) sees every construction.  The companion
    prefix carries the shared arrays plus the ambient's ``hat_arrays``.
    Hat reads (``qh``, ``q2h``) take the direct radius and window and
    divide both by the divisor (``hat``).  Subclasses supply ``pair``,
    ``remainder`` and ``deficits``.
    """

    def __init__(self, surface: SampledSurface, x0, prefix):
        self.surface = surface
        self.theta = surface.theta
        self.x0 = np.asarray(x0, dtype=float)
        self.x0_hat, self.divisor = companion(self.x0, surface.ambient)
        shared = surface.mu_arrays
        self.mu = prefix(surface.points, self.x0, {**shared, "sq": square_weights(surface, self.x0)})
        hat = {**shared, "sq": square_weights(surface, self.x0_hat), **self.hat_arrays(shared)}
        self.mu_hat = prefix(surface.points, self.x0_hat, hat)

    def hat_arrays(self, shared: Mapping) -> dict:
        """Ambient-specific keys of the companion prefix (none by default)."""
        return {}

    def halfwidth(self, r):
        """Radius-averaging window: one shared width per radius.

        Every term of one evaluation, direct or companion, is averaged over
        the same window so the two-radius identity survives the averaging
        exactly.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        s = self.divisor
        w = np.maximum(self.mu.auto_halfwidth(r), s * self.mu_hat.auto_halfwidth(r / s))
        return np.minimum(w, 0.9 * r)

    def q(self, key, r, w):
        return self.mu.windowed(key, r, w)

    def q2(self, key, r, w):
        return self.mu.windowed_over_r2(key, r, w)

    def hat(self, r, w):
        """The companion's radius and window for the direct r and w."""
        return r / self.divisor, w / self.divisor

    def qh(self, key, r, w):
        return self.mu_hat.windowed(key, *self.hat(r, w))

    def q2h(self, key, r, w):
        # avg_s M(s/d)/s^2 = avg_u M(u)/u^2 / d^2 : returned WITHOUT the
        # 1/d^2, i.e. this is avg of M(u)/u^2 in the hat radius u = s/d
        return self.mu_hat.windowed_over_r2(key, *self.hat(r, w))

    def coupling(self, r, w):
        """Curvature-position coupling int H.(x - x0) / (2 pi s^2), averaged."""
        return (self.q2("hx", r, w) - self.q2("h", r, w) @ self.x0) / (2 * np.pi)

    def coupling_hat(self, r, w):
        """The coupling about the companion center, in the hat radius."""
        return (self.q2h("hx", r, w) - self.q2h("h", r, w) @ self.x0_hat) / (2 * np.pi)

    def squares(self, r):
        """Cumulative square integrals for the direct and companion balls."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        return self.q("sq", r, w) / np.pi, self.qh("sq", r, w) / np.pi

    def identity_terms(self, sigma: float, rho: float) -> dict:
        """Increments over [sigma, rho] of the pair, squares and deficits."""
        r = np.array([sigma, rho])
        members = (*self.pair(r), *self.squares(r), *self.deficits(r))
        return {key: float(np.diff(v)[0]) for key, v in zip(TERM_KEYS, members)}

    def profile(self, r_grid):
        """(g, g_hat, big_g, remainder, deficit, residual) over a sorted grid."""
        g, g_hat = self.pair(r_grid)
        big_g = g + g_hat
        remainder = self.remainder(r_grid)
        sq_direct, sq_hat = self.squares(r_grid)
        dfc_direct, dfc_hat = self.deficits(r_grid)
        dfc = dfc_direct + dfc_hat
        return g, g_hat, big_g, remainder, dfc, profile_residual(big_g, sq_direct + sq_hat, dfc)
