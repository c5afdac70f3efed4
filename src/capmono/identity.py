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
protocol, the profile record, the two-ball density, and the first
variation up to the ball's boundary term.  Each ambient module states its
identity once, as a table of :class:`Term` rows, and builds a probe's
terms (its ``probe_terms``); the one front end here,
:func:`monotonicity_profile` and :func:`monotonicity_identity_detail`,
takes those terms and serves both ambients, which import it under the
same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import GeometryError
from .energy import density_radii, extrapolate
from .fields import TestVectorField
from .geometry import companion, rownorm
from .surfaces import SampledSurface
from .wetted import WettedRegion, eta_divergence

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


def nudge_off_samples(surface: SampledSurface, a: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Shift a base point off an exactly coincident sample.

    Offsets by 1e-6 along the boundary tangent at the nearest boundary
    sample; the integrands are bounded on smooth surfaces, the shift only
    dodges 0/0 at exact coincidence.  ``d2`` holds the squared distances
    of the samples from a (the first of its :func:`offset_dots`); a is
    returned itself when it is not shifted.
    """
    db = rownorm(surface.boundary_points - a)
    if min(np.sqrt(d2.min(initial=np.inf)), db.min(initial=np.inf)) > 1e-9:
        return a
    k = int(np.argmin(db))
    return a + _OFFSET * surface.boundary_tangents[k]


def offset_dots(points: np.ndarray, center, *fields: np.ndarray) -> list:
    """|x - c|^2 and each field's F.(x - c), per point x, in one pass over the offsets.

    The offsets x - c are made one coordinate at a time and dropped, so no
    (n, 3) temporary is made; each sum adds its three products onto +0.0
    in coordinate order, as :func:`geometry.rowdot` does, so it has the
    bits of ``rowdot(F, points - c)``.  The squared distances serve the
    distance sort (the ``d2=`` of ``RadialPrefix``) and the probe's nudge
    check, the dots the integrands of :func:`center_arrays` and the
    ambient's ``hat_arrays``.
    """
    sums = [np.zeros(len(points)) for _ in range(len(fields) + 1)]
    for k in range(3):
        offset = points[:, k] - center[k]
        for total, column in zip(sums, (offset, *(f[:, k] for f in fields))):
            total += column * offset
    return sums


def center_arrays(surface: SampledSurface, r2: np.ndarray, h_rel: np.ndarray, nu_rel: np.ndarray) -> dict:
    """The keys every μ prefix restricts about its center c.

    The surface's shared ``mass`` and ``h2``, and two integrands built from
    the samples' :func:`offset_dots` from c, r2 = |x - c|^2, h_rel =
    H.(x - c) and nu_rel = nu.(x - c): the coupling ``hxc`` = H.(x - c) w
    and the square ``sq`` = |H/4 + ((x - c).nu / |x - c|^2) nu|^2 w, w the
    area weight, summed one coordinate at a time in the order of
    :func:`geometry.rowdot`.
    """
    h, nu, w = surface.mean_curvature, surface.normals, surface.weights
    scale = nu_rel / r2
    sq = np.zeros(len(w))
    for k in range(3):
        v = 0.25 * h[:, k] + scale * nu[:, k]
        sq += v * v
    sq *= w
    return {"mass": surface.mu_arrays["mass"], "h2": surface.mu_arrays["h2"], "sq": sq, "hxc": h_rel * w}


def first_variation(surface: SampledSurface, region: WettedRegion, field: TestVectorField) -> float:
    """The first variation both ambients share, for the field X.

    int div_Sigma X dmu - cos(theta) int div X deta + int H.X dmu, with the
    η term read as the flux of X out through the boundary curve
    (:func:`wetted.eta_divergence`).
    """
    pts = surface.points
    jac = field.jacobian(pts)
    nu = surface.normals
    div_sigma = np.trace(jac, axis1=1, axis2=2) - np.einsum("ni,nij,nj->n", nu, jac, nu)
    hx = np.sum(surface.mean_curvature * field(pts), axis=1)
    term1, term3 = float(np.sum(div_sigma * surface.weights)), float(np.sum(hx * surface.weights))
    return term1 - np.cos(surface.theta) * eta_divergence(region, field) + term3


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
    its values over the radii, ``base_point`` and ``density``, the
    two-ball density of mu - cos(theta) eta that the limit identities
    read.  The state is the one handle of the probe:
    :func:`monotonicity_profile` and :func:`monotonicity_identity_detail`
    take it, and nothing else about the probe.
    """

    SIGN: int
    BRANCH: Optional[str]

    def read_ahead(self, r) -> None:
        """Evaluate the members at all these radii at once, for later calls
        to read; a branch that keeps no members does nothing."""

    def identity_terms(self, sigma: float, rho: float) -> dict:
        """Increments over [sigma, rho] of the pair, squares and deficits."""
        members = self.members(np.array([sigma, rho]))
        return {key: float(np.diff(members[m])[0]) for key, m in zip(TERM_KEYS, MEMBERS)}


def monotonicity_identity_detail(terms: ProbeTerms, sigma: float, rho: float) -> dict:
    """The identity terms of the probe over [sigma, rho], the residuals and the branch.

    ``terms`` is the probe's state, from its ambient's ``probe_terms``.
    """
    if not 0.0 < sigma <= rho:
        raise ValueError("need 0 < sigma <= rho")
    if sigma == rho:
        return {"residual": 0.0, "normalized": 0.0, "scale": 1.0, "branch": terms.BRANCH}
    return {**assemble(terms.identity_terms(sigma, rho), terms.SIGN), "branch": terms.BRANCH}


def monotonicity_profile(terms: ProbeTerms, r_grid) -> Profile:
    """The pair, remainder, deficits and identity residual of the probe over the sorted grid."""
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    m = terms.members(r_grid)
    big_g = m["g"] + m["g_hat"]
    dfc = m["deficit"] + m["deficit_hat"]
    residual = profile_residual(big_g, m["square"] + m["square_hat"], dfc)
    return Profile(terms.base_point, r_grid, m["g"], m["g_hat"], big_g, m["remainder"], dfc, residual, terms.BRANCH)


class PairTerms(ProbeTerms):
    """Distance sorts about a base point and its companion, read in one window.

    ``prefix`` builds the two prefixes; the ambient modules pass their own
    ``RadialPrefix`` name, so instrumentation that replaces that name (as
    ``perfbench/tracing.py`` does) sees every construction.  Each prefix
    restricts the :func:`center_arrays` about its own center, one key per
    integrand, and the companion prefix adds the ambient's ``hat_arrays``,
    built from the same :func:`offset_dots` pass; one center's offsets are
    dropped before the next center's are made.  Subclasses declare the
    identity as ``TABLE``, a tuple of :class:`Term` rows, and build the η
    restrictions the rows read (``eta``, and ``eta_hat`` where the
    companion needs its own); the base point is ``x0``, the probe nudged
    off the samples.
    """

    TABLE: tuple
    # the surface fields F whose dots F.(x - c) about the companion c
    # ``hat_arrays`` reads, in this order, after r2 and nu.(x - c)
    HAT_FIELDS: tuple = ()

    def __init__(self, surface: SampledSurface, probe, prefix):
        self.surface = surface
        self.theta = surface.theta
        pts, fields = surface.points, (surface.mean_curvature, surface.normals)
        probe = np.array(probe, dtype=float)
        dots = offset_dots(pts, probe, *fields)
        self.x0 = nudge_off_samples(surface, probe, dots[0])
        if self.x0 is not probe:
            dots = offset_dots(pts, self.x0, *fields)
        # each dot is dropped once its keys are built, before the sort, and
        # the squared distances once the sort is made
        r2, keys = dots[0], center_arrays(surface, *dots)
        del dots
        self.mu = prefix(pts, self.x0, keys, d2=r2)
        del r2
        self.x0_hat, self.divisor = companion(self.x0, surface.ambient)
        hat_fields = (getattr(surface, name) for name in self.HAT_FIELDS)
        r2, h_rel, nu_rel, *more = offset_dots(pts, self.x0_hat, *fields, *hat_fields)
        keys = {**center_arrays(surface, r2, h_rel, nu_rel), **self.hat_arrays(r2, nu_rel, *more)}
        del h_rel, nu_rel, more
        self.mu_hat = prefix(pts, self.x0_hat, keys, d2=r2)
        # the members of the default reads, kept at every radius seen, ascending
        self._radii = np.empty(0)
        self._kept = {name: np.empty(0) for name in (*MEMBERS, "remainder")}

    @property
    def base_point(self) -> np.ndarray:
        return self.x0

    def hat_arrays(self, r2: np.ndarray, nu_rel: np.ndarray, *dots: np.ndarray) -> Mapping:
        """Ambient-specific keys of the companion prefix (none by default).

        ``r2``, ``nu_rel`` and ``dots`` are the samples' :func:`offset_dots`
        from the companion center c: |x - c|^2, nu.(x - c) and F.(x - c)
        for each of ``HAT_FIELDS``.
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

    def read_ahead(self, r) -> None:
        """Evaluate the default members at the radii not yet kept, in one
        call, and keep them with the others, ascending by radius."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        _, seen = self._kept_at(r)
        if seen.all():
            return
        fresh = np.sort(r[~seen])
        values = self._evaluate(fresh, self.TABLE, self.halfwidth(fresh))
        if not len(self._radii):
            self._radii, self._kept = fresh, values
            return
        at = np.searchsorted(self._radii, fresh)
        self._radii = np.insert(self._radii, at, fresh)
        self._kept = {name: np.insert(kept, at, values[name]) for name, kept in self._kept.items()}

    def _kept_at(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each radius sits among the kept radii, and whether it is kept."""
        at = np.searchsorted(self._radii, r)
        seen = at < len(self._radii)
        seen[seen] = self._radii[at[seen]] == r[seen]
        return at, seen

    def members(self, r, rows=None, halfwidth=None) -> dict:
        """Each member of the identity and the remainder over the radii.

        Sums ``rows`` (the whole ``TABLE`` by default) into the members of
        :data:`MEMBERS` and the rows marked ``remainder`` into
        ``"remainder"``; a member no row feeds is zero.  The window is
        ``halfwidth`` when given, else :meth:`halfwidth`.  With the default
        rows and window every radius is evaluated once (:meth:`read_ahead`)
        and its values are kept for later calls.  Every value depends on
        its own radius alone, so it has the same bits whichever radii share
        its call.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if rows is not None or halfwidth is not None:
            w = self.halfwidth(r) if halfwidth is None else np.broadcast_to(halfwidth, r.shape)
            return self._evaluate(r, self.TABLE if rows is None else rows, w)
        at, seen = self._kept_at(r)
        if not seen.all():
            self.read_ahead(r)
            at = np.searchsorted(self._radii, r)
        return {name: kept[at] for name, kept in self._kept.items()}

    def _evaluate(self, r: np.ndarray, rows, w: np.ndarray) -> dict:
        """The rows summed into the members over the radii r in the window w.

        Each (source, key, over_r2) is read once: a hat source at the
        companion radius r / divisor and window w / divisor.
        """
        hat = (r / self.divisor, w / self.divisor)
        ct = np.cos(self.theta)
        out = {name: np.zeros(len(r)) for name in (*MEMBERS, "remainder")}
        reads: dict = {}
        for row in rows:
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

    def density(self) -> float:
        """The two-ball density of mu - cos(theta) eta at the base point.

        The table's mass-ratio rows (the ``mass`` rows over r^2 of g and
        g_hat), read on :func:`energy.density_radii` and fitted to r -> 0
        (:func:`energy.extrapolate`).  The read's onset is the smallest of
        its sources' ``onset``, a hat source's times the divisor: below it
        every row reads its r -> 0 value, so radii below it are read
        sharp, and off the support of mu and eta the density is exact.
        """
        rows = [row for row in self.TABLE if row.key == "mass" and row.over_r2]
        onset = min(
            getattr(self, row.source).onset() * (self.divisor if row.source.endswith("_hat") else 1.0) for row in rows
        )
        r, exact = density_radii(self.surface, self.x0, onset)
        m = self.members(r, rows, 0.0 if exact else None)
        return extrapolate(r, m["g"] + m["g_hat"])
