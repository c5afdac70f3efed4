"""The two-radius monotonicity identity, stated once for both ambients.

Over the half-space and in the unit ball, the increment of the radial pair
(g, g_hat) between two radii equals the annulus integrals of
|H/4 + (x - x0)perp/r^2|^2 about the base point and its companion, plus
the wetted deficit terms.  Only the companion differs between the
ambients (:func:`geometry.companion`): B_r(x0) is paired with the ball of
radius r / divisor about the reflected or inverted center.

This module holds what the ambients share: the base-point nudge, the
integrands restricted about each center, one radius window for every
term, the :class:`Term` rows and their one evaluator, the probe terms
protocol, the profile record, the front end of the identity detail and
the profile, and the surface terms of the first variation.  Each ambient
module states its identity once, as a table of :class:`Term` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import GeometryError
from .fields import TestVectorField
from .geometry import companion, rowdot, rownorm
from .surfaces import SampledSurface

_OFFSET = 1e-6

MEMBERS = ("g", "g_hat", "square", "square_hat", "deficit", "deficit_hat")
TERM_KEYS = ("delta_g", "delta_g_hat", "square", "square_hat", "deficit", "deficit_hat")


class Term(NamedTuple):
    """One row of an ambient's identity table.

    The row adds ``coeff`` times the radius average of ``key``'s cumulative
    on ``source`` (of the cumulative over s^2 when ``over_r2``) to
    ``member``, one of :data:`MEMBERS`.  The sources are the sample
    prefixes ``mu`` and ``mu_hat`` and the wetted restrictions ``eta`` and
    ``eta_hat``; a hat source is read at the companion's radius and window,
    and an η row's coefficient is multiplied by cos(theta).  The rows
    marked ``remainder`` sum to the profile's R.
    """

    member: str
    source: str
    key: str
    over_r2: bool
    coeff: float
    remainder: bool = False


def nudge_off_samples(surface: SampledSurface, a: np.ndarray) -> np.ndarray:
    """Shift a base point off an exactly coincident sample.

    Offsets by 1e-6 along the boundary tangent at the nearest boundary
    sample; the integrands are bounded on smooth surfaces, the shift only
    dodges 0/0 at exact coincidence.
    """
    d = rownorm(surface.points - a)
    db = rownorm(surface.boundary_points - a)
    if min(d.min(initial=np.inf), db.min(initial=np.inf)) > 1e-9:
        return a
    k = int(np.argmin(db))
    return a + _OFFSET * surface.boundary_tangents[k]


def _probe_state(build, surface: SampledSurface, region, a, terms):
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


def center_offsets(points: np.ndarray, center) -> tuple[np.ndarray, np.ndarray]:
    """Offsets x - c of the points from a center and their squared lengths.

    One pass per center serves the integrands of :func:`center_arrays` and
    the distance sort (the ``d2=`` of ``RadialPrefix``).
    """
    rel = points - center
    return rel, rowdot(rel, rel)


def center_arrays(surface: SampledSurface, rel: np.ndarray, r2: np.ndarray) -> dict:
    """The keys every μ prefix restricts about its center c.

    The surface's shared ``mass`` and ``h2``, and two integrands built from
    the samples' :func:`center_offsets` ``rel`` and ``r2`` from c: the
    coupling ``hxc`` = H.(x - c) w and the square ``sq`` =
    |H/4 + ((x - c).nu / |x - c|^2) nu|^2 w, w the area weight.
    """
    h, nu, w = surface.mean_curvature, surface.normals, surface.weights
    hxc = rowdot(h, rel) * w
    v = 0.25 * h + (rowdot(rel, nu) / r2)[:, None] * nu
    return {"mass": surface.mu_arrays["mass"], "h2": surface.mu_arrays["h2"], "sq": rowdot(v, v) * w, "hxc": hxc}


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


@dataclass
class Profile:
    """Radial-grid evaluation of the monotone combination at one base point.

    ``big_g`` is g + g_hat (the monotone quantity for theta >= pi/2, or for
    half-space base points on the plane); ``remainder`` the
    curvature-position part that vanishes at small radius; ``deficit`` the
    cumulative wetted deficit of both balls; ``residual`` the normalized
    identity residual over consecutive grid pairs (first entry zero).
    ``branch`` is None in the half-space and names the ball's branch,
    "origin" or "general".  Monotonicity is reported, never asserted:
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
    branch: Optional[str] = None

    def min_forward_difference(self) -> float:
        return float(np.min(np.diff(self.big_g)))

    def worst_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))


class ProbeTerms:
    """The restriction state of one probe, the one interface of every branch.

    A subclass declares ``SIGN`` (the :func:`assemble` sign) and ``BRANCH``
    (the profile's and the detail's branch label) and supplies
    ``members``, which maps each of :data:`MEMBERS` and ``"remainder"`` to
    its values over the radii, and ``base_point``.  ``surface`` and
    ``probe`` (the raw base point) name the probe the state was built for.
    """

    SIGN: int
    BRANCH: Optional[str]

    def pair(self, r):
        """The radial pair (g, g_hat) over the radii."""
        members = self.members(r)
        return members["g"], members["g_hat"]

    def identity_terms(self, sigma: float, rho: float) -> dict:
        """Increments over [sigma, rho] of the pair, squares and deficits."""
        members = self.members(np.array([sigma, rho]))
        return {key: float(np.diff(members[m])[0]) for key, m in zip(TERM_KEYS, MEMBERS)}

    def profile(self, r_grid) -> Profile:
        """The pair, remainder, deficits and identity residual over a sorted grid."""
        m = self.members(r_grid)
        big_g = m["g"] + m["g_hat"]
        dfc = m["deficit"] + m["deficit_hat"]
        residual = profile_residual(big_g, m["square"] + m["square_hat"], dfc)
        return Profile(self.base_point, r_grid, m["g"], m["g_hat"], big_g, m["remainder"], dfc, residual, self.BRANCH)


def identity_detail(build, surface: SampledSurface, region, a, sigma: float, rho: float, terms=None) -> dict:
    """The identity terms over [sigma, rho], the residuals and the branch.

    ``build`` is the ambient's ``probe_terms``; ``terms`` the probe's state
    from it, built for this call when None.  Terms built for another
    surface or base point raise ValueError.
    """
    if not 0.0 < sigma <= rho:
        raise ValueError("need 0 < sigma <= rho")
    t = _probe_state(build, surface, region, a, terms)
    if sigma == rho:
        return {"residual": 0.0, "normalized": 0.0, "scale": 1.0, "branch": t.BRANCH}
    return {**assemble(t.identity_terms(sigma, rho), t.SIGN), "branch": t.BRANCH}


def identity_profile(build, surface: SampledSurface, region, a, r_grid, terms=None) -> Profile:
    """The probe's :class:`Profile` over the sorted grid; ``build`` and ``terms`` as above."""
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    return _probe_state(build, surface, region, a, terms).profile(r_grid)


class PairTerms(ProbeTerms):
    """Prefix sums about a base point and its companion, read in one window.

    ``prefix`` builds the two prefixes; the ambient modules pass their own
    ``RadialPrefix`` name, so instrumentation that replaces that name (as
    ``perfbench/tracing.py`` does) sees every construction.  Each prefix
    restricts the :func:`center_arrays` about its own center, one row per
    key, and the companion prefix adds the ambient's ``hat_arrays``, built
    from the same offsets.  Subclasses declare the identity as ``TABLE``,
    a tuple of :class:`Term` rows, and build the η restrictions the rows
    read (``eta``, and ``eta_hat`` where the companion needs its own); the
    base point is ``x0``, the probe nudged off the samples.
    """

    TABLE: tuple

    def __init__(self, surface: SampledSurface, probe, prefix):
        self.surface = surface
        self.theta = surface.theta
        self.probe = np.array(probe, dtype=float)
        self.x0 = nudge_off_samples(surface, self.probe)
        self.x0_hat, self.divisor = companion(self.x0, surface.ambient)
        pts = surface.points
        rel, r2 = center_offsets(pts, self.x0)
        self.mu = prefix(pts, self.x0, center_arrays(surface, rel, r2), d2=r2)
        rel, r2 = center_offsets(pts, self.x0_hat)
        hat = {**center_arrays(surface, rel, r2), **self.hat_arrays(rel, r2)}
        self.mu_hat = prefix(pts, self.x0_hat, hat, d2=r2)

    @property
    def base_point(self) -> np.ndarray:
        return self.x0

    def hat_arrays(self, rel: np.ndarray, r2: np.ndarray) -> Mapping:
        """Ambient-specific keys of the companion prefix (none by default).

        ``rel`` and ``r2`` are the samples' :func:`center_offsets` from the
        companion center.
        """
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

    def members(self, r, rows=None) -> dict:
        """Each member of the identity and the remainder over the radii.

        Sums ``rows`` (the whole ``TABLE`` by default) into the members of
        :data:`MEMBERS` and the rows marked ``remainder`` into
        ``"remainder"``; a member no row feeds is zero.  The window is
        computed once, and each (source, key, over_r2) is read once: a hat
        source at the companion radius r / divisor and window w / divisor.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = self.halfwidth(r)
        hat = (r / self.divisor, w / self.divisor)
        ct = np.cos(self.theta)
        out = {name: np.zeros(len(r)) for name in (*MEMBERS, "remainder")}
        reads: dict = {}
        for row in self.TABLE if rows is None else rows:
            at = (row.source, row.key, row.over_r2)
            if at not in reads:
                prefix = getattr(self, row.source)
                if prefix is None:
                    raise GeometryError("capillary pair needs a wetted region")
                read = prefix.windowed_over_r2 if row.over_r2 else prefix.windowed
                reads[at] = read(row.key, *(hat if row.source.endswith("_hat") else (r, w)))
            term = (row.coeff * ct if row.source.startswith("eta") else row.coeff) * reads[at]
            out[row.member] += term
            if row.remainder:
                out["remainder"] += term
        return out
