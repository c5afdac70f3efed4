"""The wetted-region measure on the wetting surface.

The boundary image of a capillary immersion encloses a region of the
wetting surface; this module carries the winding measure η of that
region, winding numbers, oriented areas and rotation indices.

η is read from the boundary curve alone, on the plane and on the sphere.
η is the winding-weighted area the curve encloses, so every integral of
it the verifier takes is a line integral over the curve: by Green's
theorem on the plane, and on the sphere by Stokes' theorem, for
integrands that depend on x only through x.c-hat about an axis c-hat.
The curve atoms of :meth:`WettedRegion.curve_atoms`, Gauss points on the
cubic Hermite curve through the boundary samples, carry each ball
restriction (:class:`BallRestrictedEta`), the total |T|
(:func:`eta_integral`) and the divergence integrals of first variations
(:func:`eta_divergence`).  A winding number is one signed crossing count
at one point against loops through the same Hermite curve, on the plane
and on the sphere, where both are projected from the region's one
reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GeometryError, UndefinedWindingError
# these names exist only for perfbench/tracing.py, which wraps all three
# here; none of them is called
from .quadrature import plane_grid, sphere_mesh, sphere_rule  # noqa: F401
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .geometry import BALL, hermite_basis, rowdot, rownorm

PLANE = "plane"
SPHERE = "sphere"

# every winding loop carries 2**_CURVE_REFINE vertices per boundary
# segment, on its Hermite curve
_CURVE_REFINE = 3
# Gauss points per boundary segment of the curve atoms
_ATOM_POINTS = 8


@dataclass(frozen=True)
class OrientedCurve:
    """Closed oriented curve given by quadrature samples.

    ``points`` (m, 3), ``tangents`` (m, 3) unit, ``weights`` (m,) arclength
    weights.  Samples are interpreted cyclically: consecutive samples (and
    the wrap-around pair) bound the polygon edges used for winding counts,
    so no repeated closing point is stored.  ``points`` and ``tangents``
    are stored row-major: the stereographic projection multiplies them by
    vectors, and a matrix product rounds differently on column-major arrays.
    """

    points: np.ndarray
    tangents: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.ascontiguousarray(self.points, dtype=float))
        object.__setattr__(self, "tangents", np.ascontiguousarray(self.tangents, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if len(self.points) < 3:
            raise GeometryError("a curve needs at least three samples")
        gap = float(np.linalg.norm(self.points[0] - self.points[-1]))
        lim = max(4.0 * float(np.max(np.linalg.norm(np.diff(self.points, axis=0), axis=1))), 1e-8)
        if gap > lim:
            raise GeometryError("closed curve does not return to its start")

    def length(self) -> float:
        return float(np.sum(self.weights))


def curve_from_boundary(surface: SampledSurface) -> OrientedCurve:
    return OrientedCurve(
        surface.boundary_points, surface.boundary_tangents, surface.boundary_weights
    )


# -- winding --------------------------------------------------------------------
#
# Every integer winding in this module, on the plane and on the sphere, is
# the one signed half-open horizontal-ray crossing count of ``_winding_at``
# (on the sphere after the stereographic projection).


def _winding_at(polys: Sequence[np.ndarray], q: np.ndarray) -> int:
    """Exact integer winding of closed 2d polygons at the point q.

    Signed horizontal-ray crossing count with half-open vertex handling: an
    edge crosses the line y = q_y when min(ay, by) <= q_y < max(ay, by),
    and counts when it crosses strictly to the right of q.
    """
    a = np.concatenate(polys)
    b = np.concatenate([np.roll(p, -1, axis=0) for p in polys])
    x, y = q
    cross = (np.minimum(a[:, 1], b[:, 1]) <= y) & (y < np.maximum(a[:, 1], b[:, 1]))
    a, b = a[cross], b[cross]
    t = (y - a[:, 1]) / (b[:, 1] - a[:, 1])
    xstar = a[:, 0] + t * (b[:, 0] - a[:, 0])
    return int(np.sum(np.where(b[:, 1] > a[:, 1], 1, -1)[xstar > x]))


def _min_distance(poly: np.ndarray, q: np.ndarray) -> float:
    """Distance of the point q to the closed polygon ``poly``, in its dimension."""
    seg = np.roll(poly, -1, axis=0) - poly
    t = np.clip(np.sum((q - poly) * seg, axis=1) / np.maximum(np.sum(seg * seg, axis=1), 1e-300), 0.0, 1.0)
    return float(np.min(np.linalg.norm(q - (poly + t[:, None] * seg), axis=1)))


def winding_number(curve: OrientedCurve, x) -> int:
    """Winding number of a closed planar curve about a point.

    The signed crossing count, along a horizontal ray, of the curve's
    winding loop (:func:`_refined_loop`), the Hermite curve η follows;
    raises if the point sits on the loop (distance below 1e-9).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))[0, :2]
    poly = _refined_loop(curve, PLANE)[:, :2]
    if _min_distance(poly, x) <= 1e-9:
        raise UndefinedWindingError("winding number undefined on the curve")
    return _winding_at([poly], x)


def oriented_area(curves: OrientedCurve | Sequence[OrientedCurve]) -> float:
    """Signed area enclosed by closed planar curves: (1/2) sum of (x dy - y dx).

    Multiply wound regions count with multiplicity, so this equals the total
    mass of the winding measure with its signs.
    """
    if isinstance(curves, OrientedCurve):
        curves = [curves]
    total = 0.0
    for c in curves:
        x, y = c.points[:, 0], c.points[:, 1]
        tx, ty = c.tangents[:, 0], c.tangents[:, 1]
        total += 0.5 * float(np.sum((x * ty - y * tx) * c.weights))
    return total


def rotation_index(curve: OrientedCurve, wetting: str = PLANE) -> int:
    """Total turning of an immersed closed curve divided by 2*pi.

    Sphere curves are first carried to the plane by the stereographic
    projection from the one-curve region's ``reference_point()``, the
    point every sphere winding is projected from; tangents are pushed
    forward through the projection differential.  A curve through that
    point raises GeometryError.
    """
    if wetting == PLANE:
        t2 = curve.tangents[:, :2]
    elif wetting == SPHERE:
        _, t2 = _stereographic(curve.points, curve.tangents, WettedRegion((curve,), SPHERE).reference_point())
    else:
        raise GeometryError(f"unknown wetting surface {wetting!r}")
    nxt = np.roll(t2, -1, axis=0)
    ang = np.arctan2(
        t2[:, 0] * nxt[:, 1] - t2[:, 1] * nxt[:, 0],
        np.sum(t2 * nxt, axis=1),
    )
    w = float(np.sum(ang)) / (2.0 * np.pi)
    k = round(w)
    if abs(w - k) >= 0.1:
        raise UndefinedWindingError(f"turning sum {w:.4f} too far from an integer")
    return int(k)


# -- stereographic helpers -----------------------------------------------------


def _pole_basis(pole: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # e1 x e2 = -pole, so projection from the pole preserves the orientation
    # induced by the outward sphere normal
    ref = np.array([1.0, 0.0, 0.0])
    if abs(pole[0]) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(ref, pole)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e1, pole)
    return e1, e2


def _stereographic(points: np.ndarray, tangents: Optional[np.ndarray], pole: np.ndarray):
    """Project S^2 minus the pole to the plane, preserving orientation.

    Returns planar points (and pushforward tangent directions when tangents
    are given).  Planar winding numbers of projected curves equal spherical
    winding differences against the pole.
    """
    e1, e2 = _pole_basis(pole)
    den = 1.0 - points @ pole
    if np.any(den < 1e-12):
        raise GeometryError("stereographic projection pole lies on the data")
    q = np.stack([(points @ e) / den for e in (e1, e2)], axis=1)
    if tangents is None:
        return q, None
    tp = tangents @ pole
    t2 = np.stack([(tangents @ e) / den + (points @ e) * tp / den**2 for e in (e1, e2)], axis=1)
    norms = np.linalg.norm(t2, axis=1, keepdims=True)
    return q, t2 / norms


def _projected_winding(loops: Sequence[np.ndarray], x: np.ndarray, ref: np.ndarray) -> int:
    """Raw winding of sphere loops at the point x, counted after projecting both from ref."""
    polys = [_stereographic(p, None, ref)[0] for p in loops]
    q, _ = _stereographic(x[None, :], None, ref)
    return _winding_at(polys, q[0])


def spherical_winding_number(region: "WettedRegion", x) -> int:
    """Winding of the region's curves about a point of the unit sphere.

    Counts signed crossings along the path from the region's
    ``reference_point()``, whose winding ``reference_winding`` is fixed by
    the wetted side, to x: the stereographic projection from the reference
    point turns that count into a planar winding number, which is added
    to ``reference_winding``.  A point within the projection's pole test
    (1 - x.ref below 1e-12) is the reference point and reads
    ``reference_winding``.  Raises UndefinedWindingError if the point
    sits on the curve loops (distance below 1e-9), and GeometryError if
    the curve passes through the reference point.
    """
    if region.wetting != SPHERE:
        raise GeometryError("spherical winding needs a sphere region")
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    loops = region._refined_points()
    if min(_min_distance(p, x) for p in loops) <= 1e-9:
        raise UndefinedWindingError("winding number undefined on the curve")
    ref = region.reference_point()
    if (1.0 - x[None, :] @ ref)[0] < 1e-12:
        return region.reference_winding
    return _projected_winding(loops, x, ref) + region.reference_winding


# -- the Hermite curve ---------------------------------------------------------


def _hermite_ends(curve: OrientedCurve) -> np.ndarray:
    """End values (4, m, 3) of each segment's Hermite curve: its two samples and their unit tangents times the chord."""
    p, t = curve.points, curve.tangents
    chord = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)[:, None]
    return np.stack([p, chord * t, np.roll(p, -1, axis=0), chord * np.roll(t, -1, axis=0)])


def _refined_loop(curve: OrientedCurve, wetting: str) -> np.ndarray:
    """The curve's winding loop: each sample, then its segment's Hermite curve at k / 2**_CURVE_REFINE, 0 < k < 2**_CURVE_REFINE.

    The curve is that of :meth:`WettedRegion.curve_atoms`, normalised onto
    S^2 on the sphere, so every winding counts the curve η follows, to
    fourth order in the sample spacing, not the inscribed sample polygon.
    """
    n = 2**_CURVE_REFINE
    basis, _ = hermite_basis(np.arange(1, n) / n)
    inner = np.einsum("bk,bmx->mkx", basis, _hermite_ends(curve))
    if wetting == SPHERE:
        inner /= np.linalg.norm(inner, axis=2, keepdims=True)
    return np.concatenate([curve.points[:, None, :], inner], axis=1).reshape(-1, 3)


# -- wetted region --------------------------------------------------------------


@dataclass
class WettedRegion:
    """Winding-weighted region of the wetting surface.

    ``wetting`` is ``"plane"`` or ``"sphere"``.  The region is read from
    its curves alone (:meth:`curve_atoms`) and has no grid.  On the sphere
    the winding offset is anchored by the orientation convention (the
    wetted side lies to the left of the curve).

    The region caches its curve atoms and, on the sphere, the winding at
    its reference point and its total area |T| (:func:`eta_integral`).
    """

    curves: tuple
    wetting: str = PLANE
    # built arrays, never copied by dataclasses.replace nor compared by ==
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.curves = tuple(self.curves)
        if self.wetting not in (PLANE, SPHERE):
            raise GeometryError(f"unknown wetting surface {self.wetting!r}")

    # -- reference (sphere) ---------------------------------------------------

    def barycenter_direction(self) -> np.ndarray:
        pts = np.concatenate([c.points * c.weights[:, None] for c in self.curves])
        b = np.sum(pts, axis=0)
        n = np.linalg.norm(b)
        if n < 1e-9:
            # balanced curves (e.g. great circles): fall back to the area vector
            b = np.zeros(3)
            for c in self.curves:
                b += np.sum(np.cross(c.points, c.tangents) * c.weights[:, None], axis=0)
            n = np.linalg.norm(b)
            if n < 1e-12:
                raise GeometryError("cannot orient the wetted side of a degenerate curve")
        return b / n

    def reference_point(self) -> np.ndarray:
        """The antipode of ``barycenter_direction()``: the one point every sphere winding is projected from."""
        return -self.barycenter_direction()

    @property
    def reference_winding(self) -> int:
        """Winding at the antipodal reference point.

        The wetted side is the side immediately left of the oriented curve
        (the outward wetting normal is tau x N there), so a short step to
        the left of the first curve must land at winding one; the reference
        offset follows from its raw projected winding.
        """
        if "ref_wind" not in self._cache:
            c = self.curves[0]
            p, tau = c.points[0], c.tangents[0]
            left = np.cross(p, tau)
            left /= np.linalg.norm(left)
            scale = c.length() / (2 * np.pi)
            loops, ref = self._refined_points(), self.reference_point()
            raws = []
            for delta in (0.03 * scale, 0.08 * scale):
                test = p + delta * left
                raws.append(_projected_winding(loops, test / np.linalg.norm(test), ref))
            if raws[0] != raws[1]:
                raise GeometryError("cannot fix the wetted side of the curve")
            self._cache["ref_wind"] = 1 - raws[0]
        return self._cache["ref_wind"]

    # -- the curve atoms ---------------------------------------------------------

    def curve_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The curve atoms: points and arc steps, built once and cached.

        Each curve segment, between consecutive samples and the wrap-around
        pair, carries ``_ATOM_POINTS`` Gauss points on the cubic Hermite
        curve through its two samples and their unit tangents (scaled by
        the chord, :func:`_hermite_ends`).  On the plane ``points``
        (m, 3) are those Gauss points at x3 = 0 and ``steps`` (m, 3) the
        curve's derivative there times the Gauss weight; on the sphere the
        points are normalised onto S^2 and ``steps`` is the derivative of
        the normalised curve times the weight.  Both are Fortran-ordered.

        On the plane, by Green's theorem with F(rho) = int_0^rho f(s) s ds
        about the foot of c, the integral of f(|x - c|) against η is the
        sum of F(rho_j) ((x_j - c) x steps_j)_3 / rho_j^2.  On the sphere,
        by Stokes' theorem with P(t) = int_t^1 g(s) ds, the integral of
        g(x.c-hat) against η is the sum of P(t_j) c-hat.(x_j x steps_j) /
        (1 - t_j^2), t_j = x_j.c-hat, plus 2 pi P(-1) times the winding at
        -c-hat.  :class:`BallRestrictedEta` restricts these sums to balls,
        :func:`eta_integral` reads them whole, and :func:`eta_divergence`
        reads the flux of a field through the curve.
        """
        if "atoms" not in self._cache:
            basis, slope = hermite_basis(_ATOM_RULE[0])
            slope = slope * _ATOM_RULE[1]
            points, steps = [], []
            for c in self.curves:
                ends = _hermite_ends(c)
                points.append(np.einsum("bk,bmx->mkx", basis, ends).reshape(-1, 3))
                steps.append(np.einsum("bk,bmx->mkx", slope, ends).reshape(-1, 3))
            points, steps = (np.asfortranarray(np.concatenate(parts)) for parts in (points, steps))
            if self.wetting == PLANE:
                points[:, 2] = 0.0
                steps[:, 2] = 0.0
            else:
                norm = rownorm(points)[:, None]
                points = np.asfortranarray(points / norm)
                steps = np.asfortranarray((steps - rowdot(points, steps)[:, None] * points) / norm)
            self._cache["atoms"] = (points, steps)
        return self._cache["atoms"]

    # perfbench/tracing.py wraps this name; the region has no grid to build
    def grid(self):
        raise GeometryError("the wetted measure is read from its curves; it has no grid")

    def _refined_points(self) -> list[np.ndarray]:
        """The winding loop of each curve (:func:`_refined_loop`)."""
        return [_refined_loop(c, self.wetting) for c in self.curves]


class BallRestrictedEta(RadialPrefix):
    """Winding-measure integrals restricted to balls about a fixed center.

    η is restricted over the region's ``curve_atoms()``, sorted once by
    their distance from the center c.  A key is radial about c, and
    ``arrays`` maps it to its antiderivative (``mass`` is always present).

    On the plane the antiderivative is F(rho) = int_0^rho f(s) s ds about
    c's foot, a function of rho^2 (``mass``: rho^2 / 2).  With rho_j the
    distance of atom j from the foot and a_j = ((x_j - c) x steps_j)_3 /
    rho_j^2 its angle increment about the foot, the key's integral over
    B_r(c) is

        sum over rho_j < r_p of F(rho_j) a_j + F(r_p) * sum over rho_j >= r_p of a_j,

    with r_p^2 = r^2 - c3^2: the key's row F(rho_j) a_j and the shared
    ``angle`` row.

    On the sphere a key is a function g of t = x.c-hat, and the
    antiderivative is P = int_t^1 g(s) ds, given as a function of
    u = 1 - t (``mass``: u).  The ball cuts the cap u < u_r out of the
    sphere, u_r = (r^2 - (1 - |c|)^2) / (2 |c|) clipped to [0, 2].  With
    a_j = c-hat.(x_j x steps_j) / (1 - t_j^2) the azimuth increment of atom
    j about c-hat, the key's integral over B_r(c) is

        sum over inside atoms of P(u_j) a_j + P(u_r) E(r),
        E(r) = sum over outside atoms of (1 + t_j) a_j / 2
               - sum over inside atoms of (1 - t_j) a_j / 2 + |T| / 2.

    E(r) is the azimuth the curve sweeps outside the cap plus 2 pi times
    the winding at -c-hat, written with the total area |T| (from
    :func:`eta_integral`) in place of that winding; each of its terms is
    bounded at both poles.  Rows: the key's P(u_j) a_j and the shared
    ``up`` and ``down`` rows, (1 + t_j) a_j / 2 and (1 - t_j) a_j / 2.

    Radius windows are evaluated by a five-point Gauss rule, with w
    clipped to 0.9 r.
    """

    def __init__(self, region: WettedRegion, center, arrays: Optional[dict] = None):
        points, steps = region.curve_atoms()
        center = np.asarray(center, dtype=float)
        if region.wetting == PLANE:
            self._antiderivatives = {"mass": lambda rho2: 0.5 * rho2, **(arrays or {})}
            rel = points - center
            rho2 = rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1]
            angle = (rel[:, 0] * steps[:, 1] - rel[:, 1] * steps[:, 0]) / np.maximum(rho2, 1e-300)
            keyed = {key: f(rho2) * angle for key, f in self._antiderivatives.items()}
            keyed["angle"] = angle
            # the ball misses the plane below |c3|
            self._gap = abs(float(center[2]))
            self._area = None
        else:
            self._radius = float(np.linalg.norm(center))
            if self._radius == 0.0:
                raise GeometryError("the sphere's η is restricted about a center off the origin")
            self._antiderivatives = {"mass": lambda u: u, **(arrays or {})}
            u, v, angle = _about_axis(points, steps, center / self._radius)
            keyed = {key: f(u) * angle for key, f in self._antiderivatives.items()}
            keyed["up"] = 0.5 * v * angle
            keyed["down"] = 0.5 * u * angle
            # the ball misses the sphere below |1 - |c||
            self._gap = abs(1.0 - self._radius)
            self._area = eta_integral(region)
        super().__init__(points, center, keyed)

    def onset(self) -> float:
        """Radius below which every ball's mass ratio mass(B_r) / r^2 reads its r -> 0 value.

        The gap between the center and the wetting surface (|c3| on the
        plane, |1 - |c|| on the sphere), below which the ball misses it; at
        a center on the surface the nearest atom's distance, below which
        the ball cuts a disk or a cap of area pi r^2 at one winding.
        """
        return self._gap if self._gap > 0.0 else super().onset()

    def cumulative(self, key: str, radii) -> np.ndarray:
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        idx = np.searchsorted(self.dists, r, side="left")
        # each running sum is read at idx before the next one is built
        if self._area is None:
            angle = self._running("angle")[0]
            outside = angle[-1] - angle[idx]
            # the disk's edge term; once every atom is inside it is F(0) times no angle
            rp2 = np.where(idx < self.n, r * r - self.center[2] ** 2, 0.0)
            edge = self._antiderivatives[key](np.maximum(rp2, 0.0))
            return self._running(key)[0][idx] + edge * outside
        up = self._running("up")[0]
        outside = up[-1] - up[idx]
        m = self._radius
        ur = np.clip((r * r - (1.0 - m) ** 2) / (2.0 * m), 0.0, 2.0)
        edge = outside - self._running("down")[0][idx] + 0.5 * self._area
        return self._running(key)[0][idx] + self._antiderivatives[key](ur) * edge

    def _window_average(self, key: str, r, halfwidth, over_r2: bool) -> np.ndarray:
        """Average over [r - w, r + w] of M(s) or M(s)/s^2, with w clipped to 0.9 r.

        A five-point Gauss rule evaluates it: the restricted masses are
        smooth in the radius, so the short rule reproduces the uniform
        radius average to working precision.  All nodes of all windows go
        to ``cumulative`` in one call.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = np.minimum(np.atleast_1d(np.asarray(halfwidth, dtype=float)), 0.9 * r)
        nodes, weights = _GAUSS[5]
        s = np.maximum(r[None, :] + nodes[:, None] * w[None, :], 1e-12)
        vals = self.cumulative(key, s.ravel()).reshape(s.shape)
        if over_r2:
            vals = vals / s**2
        out = np.zeros(len(r))
        for wk, val in zip(weights, vals):
            out = out + 0.5 * wk * val
        return out

    def windowed(self, key: str, r, halfwidth) -> np.ndarray:
        return self._window_average(key, r, halfwidth, over_r2=False)

    def windowed_over_r2(self, key: str, r, halfwidth) -> np.ndarray:
        return self._window_average(key, r, halfwidth, over_r2=True)


def _exact_floats(hexes) -> np.ndarray:
    """A read-only float64 array of values written with ``float.hex``."""
    arr = np.array([float.fromhex(v) for v in hexes])
    arr.flags.writeable = False
    return arr


# the 5- and 8-point Gauss-Legendre rules on [-1, 1]: the float64 nodes and
# weights of numpy.polynomial.legendre.leggauss, written exactly and shared
# read-only by every caller
_GAUSS = {
    5: (
        _exact_floats(("-0x1.cff6ce0533a69p-1", "-0x1.13b23fd99b705p-1", "0x0.0p+0", "0x1.13b23fd99b705p-1", "0x1.cff6ce0533a69p-1")),
        _exact_floats(("0x1.e539ec36e0393p-3", "0x1.ea1da25ae4158p-2", "0x1.23456789abcddp-1", "0x1.ea1da25ae4158p-2", "0x1.e539ec36e0393p-3")),
    ),
    8: (
        _exact_floats(("-0x1.ebab1cb0acc66p-1", "-0x1.97e4ab249f41ep-1", "-0x1.0d129583284b4p-1", "-0x1.77ac94f3c7344p-3",
                       "0x1.77ac94f3c7344p-3", "0x1.0d129583284b4p-1", "0x1.97e4ab249f41ep-1", "0x1.ebab1cb0acc66p-1")),
        _exact_floats(("0x1.9ea1d04ca03aep-4", "0x1.c76fb531d2b94p-3", "0x1.413c50a25560ep-2", "0x1.736360b19933dp-2",
                       "0x1.736360b19933dp-2", "0x1.413c50a25560ep-2", "0x1.c76fb531d2b94p-3", "0x1.9ea1d04ca03aep-4")),
    ),
}


# the points and weights of the curve atoms, on [0, 1]
_ATOM_RULE = (0.5 * (_GAUSS[_ATOM_POINTS][0] + 1.0), 0.5 * _GAUSS[_ATOM_POINTS][1])


def _about_axis(points: np.ndarray, steps: np.ndarray, axis: np.ndarray):
    """u = 1 - t and v = 1 + t, t = x.axis, and the azimuth increment a about the axis, per sphere atom.

    u and v are half the squared chords to the axis point and to its
    antipode, which keeps both accurate near their pole; a is
    axis.(x x step) / (u v), 0 at an atom on the axis.
    """
    near, far = points - axis, points + axis
    u, v = 0.5 * rowdot(near, near), 0.5 * rowdot(far, far)
    return u, v, (np.cross(points, steps) @ axis) / np.maximum(u * v, 1e-300)


def eta_integral(region: WettedRegion) -> float:
    """The total |T| of the winding measure η, read from the curve atoms.

    On the plane it is the Green total, half the sum of (x_j x steps_j)_3
    over the atoms.  On the sphere Stokes' theorem about the axis
    b = ``barycenter_direction()`` makes it the sum of (1 - t_j) a_j over
    the atoms plus 4 pi times the winding at -b, ``reference_winding``
    (see :func:`_about_axis`); it is built once per region and cached.
    """
    points, steps = region.curve_atoms()
    if region.wetting == PLANE:
        return 0.5 * float(np.sum(points[:, 0] * steps[:, 1] - points[:, 1] * steps[:, 0]))
    if "area" not in region._cache:
        u, _, angle = _about_axis(points, steps, region.barycenter_direction())
        region._cache["area"] = float(np.sum(u * angle)) + 4.0 * np.pi * region.reference_winding
    return region._cache["area"]


def eta_divergence(region: WettedRegion, field: Callable[[np.ndarray], np.ndarray]) -> float:
    """The flux of a field X out through the region's curves, the sum of X(x_j).(steps_j x n_j) over the atoms.

    n is e3 on the plane and x on the sphere.  By the divergence theorem
    on each level set of the winding this is, for X tangent to the plane,
    the integral of div X against η, and on the unit sphere, where
    div X = div X^T + 2 X.x, the integral of div X - 2 X.x against η.
    It is exact for every field smooth along the curve.
    """
    points, steps = region.curve_atoms()
    x = field(points)
    if region.wetting == SPHERE:
        return float(np.sum(rowdot(x, np.cross(steps, points))))
    return float(np.sum(x[:, 0] * steps[:, 1] - x[:, 1] * steps[:, 0]))


def wetted_region(surface: SampledSurface) -> WettedRegion:
    """Region enclosed by the boundary image of a sampled surface."""
    curve = curve_from_boundary(surface)
    wetting = SPHERE if surface.ambient.kind == BALL else PLANE
    return WettedRegion((curve,), wetting)
