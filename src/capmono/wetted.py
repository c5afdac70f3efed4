"""The wetted-region measure on the wetting surface.

The boundary image of a capillary immersion encloses a region of the
wetting surface; this module carries the winding measure η of that
region, oriented areas, rotation indices, and quadrature of integrands
against η.

On the plane η is read from the boundary curve alone.  η is the
winding-weighted area the curve encloses, so by Green's theorem every
integral of it is a line integral over the curve: the curve atoms of
:meth:`WettedRegion.curve_atoms` carry each ball restriction
(:class:`BallRestrictedEta`), every quadrature (:func:`eta_integral`) and
the divergence integrals of first variations (:func:`eta_divergence`).

On the sphere η lives on a grid, the winding-number weight field over the
faces of a subdivided icosahedron.  Face values near a curve are
antialiased by a subcell correction so that region masses converge at
second order instead of first; the integer winding API is untouched by
this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GeometryError, UndefinedWindingError
# plane_grid is not called here; perfbench/tracing.py wraps it under this name
from .quadrature import plane_grid, sphere_mesh, sphere_rule  # noqa: F401
from .radial import RadialPrefix
from .surfaces import SampledSurface
from .geometry import BALL

PLANE = "plane"
SPHERE = "sphere"

_CHUNK = 4096
# subdivision depth of the sphere band faces that the antialiasing supersamples
_SUB_DEPTH = 3
# Hermite midpoint insertions applied to the curve samples before gridding
_CURVE_REFINE = 3
# Gauss points per boundary segment of the plane's curve atoms, and per ray
# of the plane's fan quadrature
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
# (sphere nodes and subcells after the stereographic projection, and single
# queries).


def _run_offsets(count: np.ndarray) -> np.ndarray:
    """Position of each element of ``np.repeat(x, count)`` within its run."""
    return np.arange(int(np.sum(count))) - np.repeat(np.cumsum(count) - count, count)


def _winding_at(polys: Sequence[np.ndarray], q: np.ndarray) -> np.ndarray:
    """Exact integer winding of closed 2d polygons at the points q.

    Signed horizontal-ray crossing count with half-open vertex handling: an
    edge crosses the line y = q_y when min(ay, by) <= q_y < max(ay, by), so
    the points it crosses form one run of the sorted heights.  Each point
    keeps its padded crossing list, and its winding is the signed count of
    crossings strictly to its right.  Points go in blocks of
    ``_CHUNK * 16``, and their crossing lists are compared in blocks of
    ``_CHUNK``, so the temporaries stay bounded however many points are
    asked for.
    """
    a = np.concatenate(polys)
    b = np.concatenate([np.roll(p, -1, axis=0) for p in polys])
    ay, by = a[:, 1], b[:, 1]
    out = np.empty(len(q), dtype=np.int64)
    for start in range(0, len(q), _CHUNK * 16):
        x, ys = q[start : start + _CHUNK * 16, 0], q[start : start + _CHUNK * 16, 1]
        order = np.argsort(ys, kind="stable")
        lo = np.searchsorted(ys[order], np.minimum(ay, by), side="left")
        hi = np.searchsorted(ys[order], np.maximum(ay, by), side="left")
        count = hi - lo
        edge = np.repeat(np.arange(len(a)), count)
        r = order[lo[edge] + _run_offsets(count)]
        t = (ys[r] - ay[edge]) / (by[edge] - ay[edge])
        xstar = a[edge, 0] + t * (b[edge, 0] - a[edge, 0])
        # padded (point, slot) crossing table; empty slots carry sign 0
        per_row = np.bincount(r, minlength=len(ys))
        srt = np.argsort(r, kind="stable")
        slot = _run_offsets(per_row)
        width = int(per_row.max(initial=0))
        cross_x = np.zeros((len(ys), width))
        cross_s = np.zeros((len(ys), width), dtype=np.int64)
        cross_x[r[srt], slot] = xstar[srt]
        cross_s[r[srt], slot] = np.where(by[edge] > ay[edge], 1, -1)[srt]
        for k in range(0, len(ys), _CHUNK):
            right = cross_x[k : k + _CHUNK] > x[k : k + _CHUNK, None]
            out[start + k : start + k + _CHUNK] = np.sum(cross_s[k : k + _CHUNK] * right, axis=1)
    return out


def _min_distance(poly: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Distance of each probe to the closed polygon ``poly``, in its dimension."""
    a = poly
    seg = np.roll(poly, -1, axis=0) - a
    seg2 = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    out = np.empty(len(probes))
    for lo in range(0, len(probes), _CHUNK):
        q = probes[lo : lo + _CHUNK]
        rel = q[:, None, :] - a[None, :, :]
        t = np.clip(np.sum(rel * seg[None, :, :], axis=2) / seg2[None, :], 0.0, 1.0)
        near = a[None, :, :] + t[:, :, None] * seg[None, :, :]
        d = np.linalg.norm(q[:, None, :] - near, axis=2)
        out[lo : lo + _CHUNK] = np.min(d, axis=1)
    return out


def winding_number(curve: OrientedCurve, x) -> int:
    """Winding number of a closed planar curve about a point.

    The signed crossing count of the sample polygon along a horizontal ray;
    raises if the point sits on the curve (distance below 1e-9).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))[:1, :2]
    poly = curve.points[:, :2]
    if float(_min_distance(poly, x)[0]) <= 1e-9:
        raise UndefinedWindingError("winding number undefined on the curve")
    return int(_winding_at([poly], x)[0])


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

    Sphere curves are first carried to the plane by a stereographic
    projection from the admissible candidate point farthest from the curve;
    tangents are pushed forward through the projection differential.
    """
    if wetting == PLANE:
        t2 = curve.tangents[:, :2]
    elif wetting == SPHERE:
        t2 = None
        for pole in _projection_poles(curve):
            try:
                _, t2 = _stereographic(curve.points, curve.tangents, pole)
                break
            except GeometryError:
                continue
        if t2 is None:
            raise GeometryError("every candidate projection pole failed")
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
    q = np.column_stack([(points @ e1) / den, (points @ e2) / den])
    if tangents is None:
        return q, None
    tp = tangents @ pole
    t2 = np.column_stack(
        [
            (tangents @ e1) / den + (points @ e1) * tp / den**2,
            (tangents @ e2) / den + (points @ e2) * tp / den**2,
        ]
    )
    norms = np.linalg.norm(t2, axis=1, keepdims=True)
    return q, t2 / norms


def _projection_poles(curve: OrientedCurve) -> np.ndarray:
    """Candidate projection poles at least 0.1 from the curve, farthest first."""
    cand, _ = sphere_rule(2)
    d = np.linalg.norm(cand[:, None, :] - curve.points[None, :, :], axis=2).min(axis=1)
    order = np.argsort(-d)
    admissible = order[d[order] >= 0.1]
    if len(admissible) == 0:
        raise GeometryError("no admissible stereographic pole away from the curve")
    return cand[admissible]


def spherical_winding_number(region: "WettedRegion", x) -> int:
    """Winding of the region's curves about a point of the unit sphere.

    Counts signed crossings along the path from a reference point of known
    winding (the antipode of the curve barycenter, fixed to winding zero by
    the generator's declared wetted side); realized by a stereographic
    projection from the reference, which turns the count into a planar
    winding number.  Raises if the point sits on the refined curve polygon
    (distance below 1e-9).  A reference too close to the curve is jittered;
    eight failures raise.
    """
    if region.wetting != SPHERE:
        raise GeometryError("spherical winding needs a sphere region")
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    loops = region._refined_points()
    if min(float(_min_distance(p, x[None, :])[0]) for p in loops) <= 1e-9:
        raise UndefinedWindingError("winding number undefined on the curve")
    for attempt in range(8):
        ref = region.reference_point(attempt)
        try:
            polys = [_stereographic(p, None, ref)[0] for p in loops]
            qx, _ = _stereographic(x[None, :], None, ref)
            return int(_winding_at(polys, qx)[0]) + region.reference_winding
        except GeometryError:
            if attempt == 7:
                raise


# -- wetted region --------------------------------------------------------------


@dataclass
class WettedRegion:
    """Winding-weighted region of the wetting surface.

    ``wetting`` is ``"plane"`` or ``"sphere"``.  The plane region is read
    from its curves alone (:meth:`curve_atoms`) and has no grid.  The
    sphere region's grid is a subdivided icosahedron of ``sphere_level``;
    its winding offset is anchored by the orientation convention (the
    wetted side lies to the left of the curve).

    ``store``, when given, keeps the expensive part of the sphere grid
    between processes: ``store.load(region)`` returns the integer winding
    (int8), the antialiased band's cell indices and their values, or None;
    ``store.save(region, wind, cells, values)`` keeps them, and is handed
    only a grid whose winding fits int8.  The first ``grid()`` call asks
    it, so a region whose grid is never needed never touches it.

    The region caches the grid in that compact form (the winding as int8
    when it fits), the wetted nodes with their weights, and the plane's
    curve atoms.  The full grid (nodes, cell weights and both windings, 48
    bytes per node) is laid out anew by each ``grid()`` call and never
    kept, so a region's memory follows its wetted nodes.
    """

    curves: tuple
    wetting: str = PLANE
    sphere_level: int = 6
    store: object = field(default=None, repr=False, compare=False)
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

    def reference_point(self, attempt: int = 0) -> np.ndarray:
        ref = -self.barycenter_direction()
        if attempt:
            rng = np.random.default_rng(1234 + attempt)
            ref = ref + 0.05 * attempt * rng.standard_normal(3)
            ref /= np.linalg.norm(ref)
        return ref

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
            ref = self.reference_point()
            polys = [_stereographic(q, None, ref)[0] for q in self._refined_points()]
            raws = []
            for delta in (0.03 * scale, 0.08 * scale):
                test = p + delta * left
                test /= np.linalg.norm(test)
                qt, _ = _stereographic(test[None, :], None, ref)
                raws.append(int(_winding_at(polys, qt)[0]))
            if raws[0] != raws[1]:
                raise GeometryError("cannot fix the wetted side of the curve")
            self._cache["ref_wind"] = 1 - raws[0]
        return self._cache["ref_wind"]

    # -- the plane's curve atoms ------------------------------------------------

    def curve_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The plane's curve atoms: points and arc steps, built once and cached.

        Each curve segment, between consecutive samples and the wrap-around
        pair, carries ``_ATOM_POINTS`` Gauss points on the cubic Hermite
        curve through its two samples and their unit tangents (scaled by
        the chord, as in :meth:`_refined_points`).  ``points`` (m, 3) are
        those Gauss points at x3 = 0, ``steps`` (m, 3) the curve's
        derivative there times the Gauss weight, both Fortran-ordered, so
        that the sum of g(x_j) ((x_j - c) x steps_j)_3 over the atoms is
        the line integral of g times (x - c) x dx.  By Green's theorem,
        with F(rho) = int_0^rho f(s) s ds about the foot of c, the integral
        of f(|x - c|) against η is the sum of
        F(rho_j) ((x_j - c) x steps_j)_3 / rho_j^2: :class:`BallRestrictedEta`
        restricts it to balls, and :func:`eta_integral` integrates any f
        along the rays of a fan.
        """
        if self.wetting != PLANE:
            raise GeometryError("curve atoms carry the plane's wetted measure only")
        if "atoms" not in self._cache:
            s, w = _ATOM_RULE
            # cubic Hermite basis on [0, 1] and its derivative times the weight
            basis = np.array([2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s, 3 * s**2 - 2 * s**3, s**3 - s**2])
            slope = np.array([6 * s**2 - 6 * s, 3 * s**2 - 4 * s + 1, 6 * s - 6 * s**2, 3 * s**2 - 2 * s]) * w
            points, steps = [], []
            for c in self.curves:
                p, t = c.points, c.tangents
                chord = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)[:, None]
                ends = np.stack([p, chord * t, np.roll(p, -1, axis=0), chord * np.roll(t, -1, axis=0)])
                points.append(np.einsum("bk,bmx->mkx", basis, ends).reshape(-1, 3))
                steps.append(np.einsum("bk,bmx->mkx", slope, ends).reshape(-1, 3))
            atoms = tuple(np.asfortranarray(np.concatenate(parts)) for parts in (points, steps))
            for arr in atoms:
                arr[:, 2] = 0.0
            self._cache["atoms"] = atoms
        return self._cache["atoms"]

    # -- the sphere grid ---------------------------------------------------------

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sphere grid nodes, cell weights, integer winding and antialiased winding.

        Nodes within 1e-6 of a curve keep their antialiased value but the
        integer field is computed at the node position regardless; the
        measure-zero ambiguity never enters integrals through the
        antialiased field.  Only the faces of the curve band are
        antialiased (see the antialiasing notes below), so the cost beyond
        the integer field follows the curve, not the grid.

        Only the compact state of :meth:`_stored_grid` is kept; each call
        lays the four arrays out afresh from it (the nodes and cell weights
        are those of the cached ``sphere_mesh``), so a caller that drops
        them frees them.  A plane region has no grid and raises
        GeometryError.
        """
        wind, cells, values = self._stored_grid()
        _, _, nodes, cellw = sphere_mesh(self.sphere_level)
        wind = wind.astype(np.int64)
        wind_aa = wind.astype(float)
        wind_aa[cells] = values
        return nodes, cellw, wind, wind_aa

    def _stored_grid(self) -> tuple:
        """The sphere grid as cached: winding, band cells, band values.

        The integer winding is kept as int8 when every value fits (as the
        grid companion stores it), and the band's cell indices and
        antialiased values beside it.  The windings come from the store
        when it holds them, and are built otherwise; a built grid is handed
        to the store only when its winding is int8, so the store never
        sees another.  Built on the first call, under the cache key
        ``"grid"``.
        """
        if self.wetting != SPHERE:
            raise GeometryError("the plane's wetted measure is read from its curves; it has no grid")
        if "grid" not in self._cache:
            stored = None if self.store is None else self.store.load(self)
            if stored is None:
                wind, cells, values = self._sphere_winding(*sphere_mesh(self.sphere_level))
                stored = (_compact_winding(wind), cells, values)
                if self.store is not None and stored[0].dtype == np.int8:
                    self.store.save(self, *stored)
            self._cache["grid"] = stored
        return self._cache["grid"]

    def _sphere_winding(
        self, verts: np.ndarray, faces: np.ndarray, nodes: np.ndarray, cellw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer winding of the sphere grid, its band faces and their antialiased values."""
        wind = self._sphere_wind(nodes)
        band = 1.1 * float(np.sqrt(np.max(cellw)))
        cells = _near_curve([c.points for c in self.curves], band, self.sphere_level)
        values = np.empty(0)
        if len(cells):
            # sphere nodes are face centroids, so cells index faces; only
            # these band faces are subdivided
            values = _aa_sphere(
                self._refined_points(),
                self.reference_point(),
                self.reference_winding,
                verts[faces[cells]],
            )
        return wind, cells, values

    def _refined_points(self) -> list[np.ndarray]:
        """Sphere curve sample loops refined by Hermite midpoint insertion.

        The stored unit tangents give cubic-Hermite midpoints, so the grid
        polygons track the underlying smooth curve to fourth order in the
        sample spacing instead of carrying the inscribed-chord area bias.
        The loops are renormalized after every insertion.
        """
        out = []
        for c in self.curves:
            p, t = c.points, c.tangents
            for _ in range(_CURVE_REFINE):
                p1, t1 = np.roll(p, -1, axis=0), np.roll(t, -1, axis=0)
                chord = np.linalg.norm(p1 - p, axis=1, keepdims=True)
                mid = 0.5 * (p + p1) + chord * (t - t1) / 8.0
                tmid = 1.5 * (p1 - p) - 0.25 * chord * (t + t1)
                mid /= np.linalg.norm(mid, axis=1, keepdims=True)
                tmid = tmid - np.sum(tmid * mid, axis=1, keepdims=True) * mid
                tmid /= np.linalg.norm(tmid, axis=1, keepdims=True)
                q = np.empty((2 * len(p), 3))
                q[0::2], q[1::2] = p, mid
                s = np.empty_like(q)
                s[0::2], s[1::2] = t, tmid
                p, t = q, s
            out.append(p)
        return out

    def _sphere_wind(self, nodes: np.ndarray) -> np.ndarray:
        # Coarse sample polygon suffices: nodes in the sliver between the
        # coarse and refined boundaries sit inside the antialiasing band and
        # their values get replaced there.
        ref = self.reference_point()
        far = nodes @ ref <= 1.0 - 1e-9
        polys = [_stereographic(c.points, None, ref)[0] for c in self.curves]
        total = np.zeros(len(nodes), dtype=np.int64)
        qn, _ = _stereographic(nodes[far], None, ref)
        total[far] = _winding_at(polys, qn)
        return total + self.reference_winding

    # -- integrals ---------------------------------------------------------------

    def eta_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Sphere grid nodes and their winding-weighted quadrature weights, laid out per call."""
        nodes, cellw, _, wind_aa = self.grid()
        return nodes, wind_aa * cellw

    def wetted_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The sphere grid nodes of nonzero weight and their weights, in grid order.

        The weights are ``eta_nodes()``'s; a node of zero weight adds nothing
        to any ball restriction of η, so every restriction reads only these.
        They are extracted once from one transient ``eta_nodes()`` layout
        and cached; the full grid is not kept.  The nodes are
        Fortran-ordered, each coordinate one contiguous column, so the
        per-column distance sums of every center read them in one stride.
        """
        if "wetted" not in self._cache:
            nodes, weight = self.eta_nodes()
            keep = weight != 0.0
            self._cache["wetted"] = (nodes.T.compress(keep, axis=1).T, weight[keep])
        return self._cache["wetted"]


def _compact_winding(wind: np.ndarray) -> np.ndarray:
    """The integer winding as int8 when every value fits, else as given."""
    small = np.iinfo(np.int8)
    if len(wind) and (wind.min() < small.min or wind.max() > small.max):
        return wind
    return wind.astype(np.int8, copy=False)


class BallRestrictedEta(RadialPrefix):
    """Winding-measure integrals restricted to balls about a fixed center.

    On the sphere η is restricted as atoms, one per face centroid of the
    region's ``wetted_nodes()``, each weighted by its ``wind_aa * cellw``
    times each key's array, with ``RadialPrefix``'s sharp sums and exact box
    windows, the rules the sample measure μ uses.  ``arrays`` and ``d2``,
    the squared distances of the nodes from the center when the caller
    already holds them (sparing the distance pass), are over
    ``wetted_nodes()``.  Leaving out the nodes of zero weight keeps every
    sharp prefix sum bit for bit: zero terms leave a running sum unchanged.

    On the plane η is restricted over the region's ``curve_atoms()``.  A
    plane key is radial about the center c: ``arrays`` maps each key to
    its antiderivative F(rho) = int_0^rho f(s) s ds, a function of rho^2
    (``mass``, F = rho^2 / 2, is always present), and ``d2`` is not taken.
    With rho_j the distance of atom j from c's foot and a_j =
    ((x_j - c) x steps_j)_3 / rho_j^2 its angle increment about the foot,
    the key's integral over B_r(c) is

        sum over rho_j < r_p of F(rho_j) a_j + F(r_p) * sum over rho_j >= r_p of a_j,

    with r_p^2 = r^2 - c3^2: two prefix rows per key, the key's F(rho_j) a_j
    and the shared ``angle`` row, over one distance sort.  Radius windows
    are evaluated by a five-point Gauss rule.  Windows are clipped to
    w <= 0.9 r on both wetting surfaces.
    """

    def __init__(self, region: WettedRegion, center, arrays: Optional[dict] = None, *, d2=None):
        self._antiderivatives = None
        if region.wetting == SPHERE:
            nodes, weight = region.wetted_nodes()
            keyed = {"mass": weight}
            keyed.update((key, np.asarray(v, dtype=float) * weight) for key, v in (arrays or {}).items())
            super().__init__(nodes, center, keyed, d2=d2)
            return
        points, steps = region.curve_atoms()
        self._antiderivatives = {"mass": lambda rho2: 0.5 * rho2, **(arrays or {})}
        rel = points - np.asarray(center, dtype=float)
        rho2 = rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1]
        angle = (rel[:, 0] * steps[:, 1] - rel[:, 1] * steps[:, 0]) / np.maximum(rho2, 1e-300)
        keyed = {key: f(rho2) * angle for key, f in self._antiderivatives.items()}
        keyed["angle"] = angle
        super().__init__(points, center, keyed)

    def onset(self) -> float:
        """Radius below which every ball's mass ratio mass(B_r) / r^2 reads its r -> 0 value.

        The nearest atom's distance (on the plane a disk that misses the
        curve reads pi r^2 times the winding), or for a center off the
        plane its height |c3|, below which the ball misses the plane.
        """
        if self._antiderivatives is not None and self.center[2] != 0.0:
            return abs(float(self.center[2]))
        return super().onset()

    def cumulative(self, key: str, radii) -> np.ndarray:
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        if self._antiderivatives is None:
            return super().cumulative(key, r)
        idx = np.searchsorted(self.dists, r, side="left")
        angle = self._prefix["angle"]
        # the disk's edge term; once every atom is inside it is F(0) times no angle
        rp2 = np.where(idx < self.n, r * r - self.center[2] ** 2, 0.0)
        edge = self._antiderivatives[key](np.maximum(rp2, 0.0))
        return self._prefix[key][idx] + edge * (angle[-1] - angle[idx])

    def _window_average(self, key: str, r, halfwidth, over_r2: bool) -> np.ndarray:
        """Average over [r - w, r + w] of M(s) or M(s)/s^2, with w clipped to 0.9 r.

        On the sphere the average is exact (see the class notes).  On the
        plane a five-point Gauss rule evaluates it: the restricted masses
        are smooth in the radius, so the short rule reproduces the uniform
        radius average to working precision.  All nodes of all windows go
        to ``cumulative`` in one call.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = np.minimum(np.atleast_1d(np.asarray(halfwidth, dtype=float)), 0.9 * r)
        if self._antiderivatives is None:
            window = super().windowed_over_r2 if over_r2 else super().windowed
            return window(key, r, w)
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


# the points and weights of the curve atoms and the fan rays, on [0, 1]
_ATOM_RULE = (0.5 * (_GAUSS[_ATOM_POINTS][0] + 1.0), 0.5 * _GAUSS[_ATOM_POINTS][1])


def _fan(region: WettedRegion) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the plane's fan quadrature of η.

    From a fixed center c (the mean of the curve atoms) each atom x_j
    spans a ray; polar coordinates about c turn the integral of f against
    η into the sum over atoms of ((x_j - c) x steps_j)_3 times
    int_0^1 f(c + t (x_j - c)) t dt, which ``_ATOM_POINTS`` Gauss points
    on each ray evaluate.
    """
    points, steps = region.curve_atoms()
    center = points.mean(axis=0)
    rel = points - center
    t, w = _ATOM_RULE
    nodes = center + t[None, :, None] * rel[:, None, :]
    return nodes.reshape(-1, 3), np.outer(rel[:, 0] * steps[:, 1] - rel[:, 1] * steps[:, 0], t * w).ravel()


def eta_integral(region: WettedRegion, f: Callable[[np.ndarray], np.ndarray] | float = 1.0) -> float:
    """Quadrature of f against the winding measure on the wetting surface.

    The plane's nodes are those of its fan quadrature, the sphere's its
    grid nodes.
    """
    nodes, w = _fan(region) if region.wetting == PLANE else region.eta_nodes()
    if callable(f):
        vals = np.asarray(f(nodes), dtype=float)
    else:
        vals = np.full(len(nodes), float(f))
    return float(np.sum(vals * w))


def eta_divergence(region: WettedRegion, field: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of div X against the plane's η, for a field X tangent to the plane.

    By the divergence theorem on each level set of the winding it is the
    flux of X out through the curves, the sum over the curve atoms of
    X(x_j) . (steps_j x e3): exact for every field smooth along the curve,
    where the fan of :func:`eta_integral` must resolve div X inside.
    """
    points, steps = region.curve_atoms()
    x = field(points)
    return float(np.sum(x[:, 0] * steps[:, 1] - x[:, 1] * steps[:, 0]))


def wetted_region(surface: SampledSurface, sphere_level: int = 6, store=None) -> WettedRegion:
    """Region enclosed by the boundary image of a sampled surface.

    ``store`` keeps a sphere region's grid between processes (see
    ``WettedRegion``).
    """
    curve = curve_from_boundary(surface)
    wetting = SPHERE if surface.ambient.kind == BALL else PLANE
    return WettedRegion((curve,), wetting, sphere_level=sphere_level, store=store)


# -- antialiasing ----------------------------------------------------------------
#
# Sphere faces straddling a curve are supersampled: the face is split into
# subcells, every subcell center is classified by the same exact crossing
# count that produced the node windings, and the node value is replaced by
# the area-weighted subcell average.  Faces away from every curve are left
# untouched: all their subcells agree with the node, so the average would
# return the node's integer winding bit for bit.
#
# The band is found by descending the icosphere hierarchy, so it costs the
# band, not the faces.  The band faces are subdivided and every subcell
# center is counted directly, in blocks of fixed size, so the temporaries
# are set by the block size and not by the level; only per-face arrays
# grow with the band.


def _near_curve(loops: Sequence[np.ndarray], band: float, level: int) -> np.ndarray:
    """Indices of the face centroids of ``sphere_mesh(level)`` within band of any curve loop.

    The nodes within band of the loops' sample points are kept: each loop
    descends the icosphere hierarchy to the band (see ``_near_samples``).
    """
    return _sorted_unique(np.concatenate([_near_samples(p, band, level) for p in loops]))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d integer array, ascending: ``np.unique(a)``.

    Sorted and deduplicated by hand, because ``np.unique(a)`` asks
    ``numpy.ma`` whether ``a`` is masked, and so imports it (about 19 ms)
    in a process that has not.
    """
    a = np.sort(a)
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _nearest_sample(q: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Distance of each point of q to the nearest of the samples.

    The squared distances are summed per coordinate in the order
    ``np.linalg.norm`` sums them, and one square root is taken of each
    minimum: the square root is monotone and correctly rounded, so this is
    the minimum of the norms, bit for bit.  Points go in blocks of about
    ``_CHUNK * 16`` (point, sample) pairs, so the temporaries stay bounded
    however many samples the curve has.
    """
    out = np.empty(len(q))
    step = max(_CHUNK * 16 // max(len(samples), 1), 1)
    for lo in range(0, len(q), step):
        block = q[lo : lo + step]
        d2 = (block[:, 0, None] - samples[:, 0]) ** 2
        for k in (1, 2):
            d2 += (block[:, k, None] - samples[:, k]) ** 2
        out[lo : lo + step] = d2.min(axis=1)
    return np.sqrt(out)


def _near_samples(p: np.ndarray, band: float, level: int) -> np.ndarray:
    """Faces of ``sphere_mesh(level)`` whose centroid lies within band of the samples p.

    The test at the level itself is coarse to fine: centroids within
    ``band + gap`` of every ``step``-th sample (gap the longest chord
    between those), then within ``band + seglen`` of all samples.  Only
    the descendants of coarser faces that may hold such a centroid reach
    it: the children of face k are faces 4k..4k+3 of the next level, every
    descendant centroid lies in its ancestor's spherical triangle, and on
    that small geodesically convex triangle the distance from the
    ancestor's centroid is largest at a corner.  So a face is dropped only
    when its centroid lies farther than ``band + gap + reach`` from every
    coarse sample, with ``reach`` its centroid's largest distance to its
    own corners.
    """
    step = max(len(p) // 128, 1)
    coarse = p[::step]
    gap = float(np.max(np.linalg.norm(np.roll(p, -step, axis=0) - p, axis=1)))
    cand = np.arange(20)
    for lvl in range(level):
        verts, faces, centroids, _ = sphere_mesh(lvl)
        reach = np.max(np.linalg.norm(verts[faces[cand]] - centroids[cand, None, :], axis=2), axis=1)
        # the slack covers the rounding of the two distances compared
        near = _nearest_sample(centroids[cand], coarse) <= band + gap + reach + 1e-12
        cand = (4 * cand[near, None] + np.arange(4)).ravel()
    nodes = sphere_mesh(level)[2]
    cand = cand[_nearest_sample(nodes[cand], coarse) <= band + gap]
    if len(cand) and step > 1:
        seglen = float(np.max(np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)))
        cand = cand[_nearest_sample(nodes[cand], p) <= band + seglen]
    return cand


def _aa_sphere(
    points_loops: Sequence[np.ndarray],
    ref: np.ndarray,
    ref_wind: int,
    corners: np.ndarray,
) -> np.ndarray:
    """Antialiased winding replacement values for sphere faces near a curve.

    ``corners`` (c, 3, 3) are the face vertices; each face is split into
    ``4**_SUB_DEPTH`` subcells.  The winding at every subcell center is the
    crossing count of the projected refined polygons, and the face value is
    its average weighted by the exact spherical subcell areas.  Faces go in
    blocks of about ``_CHUNK * 4`` subcells, so the subcell temporaries
    stay bounded however wide the band is.
    """
    from .quadrature import barycentric_subtriangles, spherical_triangle_areas

    bary = barycentric_subtriangles(_SUB_DEPTH)
    polys = [_stereographic(p, None, ref)[0] for p in points_loops]
    out = np.empty(len(corners))
    step = max(_CHUNK * 4 // len(bary), 1)
    for lo in range(0, len(corners), step):
        sc = np.einsum("mkb,cbx->cmkx", bary, corners[lo : lo + step])
        sc /= np.linalg.norm(sc, axis=-1, keepdims=True)
        areas = spherical_triangle_areas(sc[:, :, 0, :], sc[:, :, 1, :], sc[:, :, 2, :])
        centers = sc.sum(axis=2)
        centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
        qsub, _ = _stereographic(centers.reshape(-1, 3), None, ref)
        w_sub = _winding_at(polys, qsub).reshape(areas.shape) + ref_wind
        out[lo : lo + step] = np.sum(areas * w_sub, axis=1) / np.sum(areas, axis=1)
    return out
