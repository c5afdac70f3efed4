"""The wetted-region measure on the wetting surface.

The boundary image of a capillary immersion encloses a region of the
wetting surface; this module carries the winding-number weight field over
plane or sphere grids, oriented areas, rotation indices, and quadrature of
integrands against the winding measure.

Grid values near a curve are antialiased by a signed-distance subcell
correction so that region masses converge at second order instead of
first; the integer winding API is untouched by this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GeometryError, UndefinedWindingError
from .quadrature import plane_grid, sphere_mesh, sphere_rule
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


@dataclass(frozen=True)
class OrientedCurve:
    """Closed oriented curve given by quadrature samples.

    ``points`` (m, 3), ``tangents`` (m, 3) unit, ``weights`` (m,) arclength
    weights.  Samples are interpreted cyclically: consecutive samples (and
    the wrap-around pair) bound the polygon edges used for winding counts,
    so no repeated closing point is stored.
    """

    points: np.ndarray
    tangents: np.ndarray
    weights: np.ndarray
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "tangents", np.asarray(self.tangents, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if len(self.points) < 3:
            raise GeometryError("a curve needs at least three samples")
        if self.closed:
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
# the one signed half-open horizontal-ray crossing count of
# ``_winding_scanline``.  Plane grid nodes and subcells share its rows;
# scattered points (sphere nodes and subcells after the stereographic
# projection, and single queries) are one row each.


def _run_offsets(count: np.ndarray) -> np.ndarray:
    """Position of each element of ``np.repeat(x, count)`` within its run."""
    return np.arange(int(np.sum(count))) - np.repeat(np.cumsum(count) - count, count)


def _winding_scanline(
    polys: Sequence[np.ndarray], ys: np.ndarray, row: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Exact integer winding of closed 2d polygons at the points (x, ys[row]).

    Signed horizontal-ray crossing count with half-open vertex handling, for
    all rows at once: an edge crosses the line y = ys[r] when
    min(ay, by) <= ys[r] < max(ay, by), so the rows it crosses form one run
    of the sorted heights.  Each row keeps its padded crossing list, and the
    winding at x is the signed count of crossings strictly to its right.
    """
    a = np.concatenate(polys)
    b = np.concatenate([np.roll(p, -1, axis=0) for p in polys])
    ay, by = a[:, 1], b[:, 1]
    order = np.argsort(ys, kind="stable")
    lo = np.searchsorted(ys[order], np.minimum(ay, by), side="left")
    hi = np.searchsorted(ys[order], np.maximum(ay, by), side="left")
    count = hi - lo
    edge = np.repeat(np.arange(len(a)), count)
    r = order[lo[edge] + _run_offsets(count)]
    t = (ys[r] - ay[edge]) / (by[edge] - ay[edge])
    xstar = a[edge, 0] + t * (b[edge, 0] - a[edge, 0])
    # padded (row, slot) crossing table; empty slots carry sign 0
    per_row = np.bincount(r, minlength=len(ys))
    srt = np.argsort(r, kind="stable")
    slot = _run_offsets(per_row)
    width = int(per_row.max(initial=0))
    cross_x = np.zeros((len(ys), width))
    cross_s = np.zeros((len(ys), width), dtype=np.int64)
    cross_x[r[srt], slot] = xstar[srt]
    cross_s[r[srt], slot] = np.where(by[edge] > ay[edge], 1, -1)[srt]
    out = np.empty(len(row), dtype=np.int64)
    for q in range(0, len(row), _CHUNK):
        rr = row[q : q + _CHUNK]
        right = cross_x[rr] > x[q : q + _CHUNK, None]
        out[q : q + _CHUNK] = np.sum(cross_s[rr] * right, axis=1)
    return out


def _winding_at(polys: Sequence[np.ndarray], q: np.ndarray) -> np.ndarray:
    """Exact integer winding of closed 2d polygons at scattered points q.

    Each point is its own row of ``_winding_scanline``.  Points go in blocks
    of ``_CHUNK * 16``, so the crossing table stays bounded however many
    points are asked for.
    """
    out = np.empty(len(q), dtype=np.int64)
    step = _CHUNK * 16
    for lo in range(0, len(q), step):
        block = q[lo : lo + step]
        out[lo : lo + step] = _winding_scanline(polys, block[:, 1], np.arange(len(block)), block[:, 0])
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
    if not curve.closed:
        raise GeometryError("winding number needs a closed curve")
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
        if not c.closed:
            raise GeometryError("oriented area needs closed curves")
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
    if not curve.closed:
        raise GeometryError("rotation index needs a closed curve")
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

    ``wetting`` is ``"plane"`` or ``"sphere"``; the grid is a uniform cell
    grid over the inflated curve bounding box (plane) or a subdivided
    icosahedron (sphere).  On the sphere the winding offset is anchored by
    the orientation convention (the wetted side lies to the left of the
    curve).
    """

    curves: tuple
    wetting: str = PLANE
    grid_n: int = 512
    sphere_level: int = 6
    bbox: Optional[tuple] = None
    _cache: dict = field(default_factory=dict, repr=False)

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

    # -- grids -----------------------------------------------------------------

    def _plane_bbox(self) -> tuple[float, float, float, float]:
        if self.bbox is not None:
            return self.bbox
        pts = np.concatenate([c.points for c in self.curves])
        x0, y0 = pts[:, 0].min(), pts[:, 1].min()
        x1, y1 = pts[:, 0].max(), pts[:, 1].max()
        dx, dy = 0.1 * max(x1 - x0, 1e-6), 0.1 * max(y1 - y0, 1e-6)
        return (x0 - dx, x1 + dx, y0 - dy, y1 + dy)

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Grid nodes, cell weights, integer winding and antialiased winding.

        Nodes within 1e-6 of a curve keep their antialiased value but the
        integer field is computed at the node position regardless; the
        measure-zero ambiguity never enters integrals through the
        antialiased field.  Only the cells of the curve band are
        antialiased (see the antialiasing notes below), so the cost beyond
        the integer field follows the curve, not the grid.
        """
        if "grid" not in self._cache:
            if self.wetting == PLANE:
                nodes, cell, xs, ys = plane_grid(self._plane_bbox(), self.grid_n)
                cellw = np.full(len(nodes), cell)
                polys = [p[:, :2] for p in self._refined_points()]
                # nodes are raveled in meshgrid(xs, ys, indexing="ij") order
                rows = np.tile(np.arange(len(ys)), len(xs))
                wind = _winding_scanline(polys, ys, rows, np.repeat(xs, len(ys)))
                wind_aa = wind.astype(float)
                reach = 0.5 * np.hypot(xs[1] - xs[0], ys[1] - ys[0])
                cells = _near_curve(polys, reach, axes=(xs, ys))
                if len(cells):
                    wind_aa[cells] = _aa_plane(polys, cells, xs, ys)
            else:
                verts, faces, nodes, cellw = sphere_mesh(self.sphere_level)
                wind = self._sphere_wind(nodes)
                wind_aa = wind.astype(float)
                band = 1.1 * float(np.sqrt(np.max(cellw)))
                cells = _near_curve([c.points for c in self.curves], band, level=self.sphere_level)
                if len(cells):
                    # sphere nodes are face centroids, so cells index faces;
                    # only these band faces are subdivided
                    wind_aa[cells] = _aa_sphere(
                        self._refined_points(),
                        self.reference_point(),
                        self.reference_winding,
                        verts[faces[cells]],
                    )
            self._cache["grid"] = (nodes, cellw, wind.astype(np.int64), wind_aa)
        return self._cache["grid"]

    def _refined_points(self) -> list[np.ndarray]:
        """Curve sample loops refined by Hermite midpoint insertion.

        The stored unit tangents give cubic-Hermite midpoints, so the grid
        polygons track the underlying smooth curve to fourth order in the
        sample spacing instead of carrying the inscribed-chord area bias.
        Sphere loops are renormalized after every insertion.
        """
        out = []
        on_sphere = self.wetting == SPHERE
        for c in self.curves:
            p, t = c.points, c.tangents
            for _ in range(_CURVE_REFINE):
                p1, t1 = np.roll(p, -1, axis=0), np.roll(t, -1, axis=0)
                chord = np.linalg.norm(p1 - p, axis=1, keepdims=True)
                mid = 0.5 * (p + p1) + chord * (t - t1) / 8.0
                tmid = 1.5 * (p1 - p) - 0.25 * chord * (t + t1)
                if on_sphere:
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
        """Grid nodes and their winding-weighted quadrature weights."""
        nodes, cellw, _, wind_aa = self.grid()
        return nodes, wind_aa * cellw


def _disk_corner_area(a: np.ndarray, b: np.ndarray, r: float) -> np.ndarray:
    """Area of {x <= a, y <= b} intersected with the disk of radius r at 0."""

    def anti(x):
        x = np.clip(x, -r, r)
        return 0.5 * (x * np.sqrt(np.maximum(r * r - x * x, 0.0)) + r * r * np.arcsin(np.clip(x / r, -1.0, 1.0)))

    a_eff = np.clip(a, -r, r)
    c = np.sqrt(np.maximum(r * r - b * b, 0.0))
    c = np.where(np.abs(b) >= r, 0.0, c)
    # slab integral of sqrt(r^2-x^2) + clip(b, -s, s) over x in [-r, a_eff]
    e1 = np.minimum(a_eff, -c)
    e2 = np.minimum(a_eff, c)
    region1 = 2.0 * (anti(e1) - anti(-r))
    mid = np.maximum(e2 - (-c), 0.0)
    region2 = np.where(e2 > -c, anti(e2) - anti(-c) + b * mid, 0.0)
    region3 = np.where(a_eff > c, 2.0 * (anti(a_eff) - anti(c)), 0.0)
    pos = region1 + region2 + region3
    neg = region2
    out = np.where(b >= 0.0, pos, neg)
    return np.where(b <= -r, 0.0, out)


def _disk_cell_overlap(x: np.ndarray, y: np.ndarray, h: float, r: float) -> np.ndarray:
    """Exact overlap area of axis-aligned h-cells centered at (x, y) with a disk."""
    h2 = 0.5 * h
    return (
        _disk_corner_area(x + h2, y + h2, r)
        - _disk_corner_area(x - h2, y + h2, r)
        - _disk_corner_area(x + h2, y - h2, r)
        + _disk_corner_area(x - h2, y - h2, r)
    )


class BallRestrictedEta(RadialPrefix):
    """Winding-measure integrals restricted to balls about a fixed center.

    A ``RadialPrefix`` over the grid nodes, each weighted by
    ``wind_aa * cellw`` times each key's array; radius windows are clipped
    to w <= 0.9 r on both wetting surfaces.

    On the sphere η is restricted as atoms, one per face centroid, with
    ``RadialPrefix``'s sharp sums and exact box windows, the rules the
    sample measure μ uses.  Faces of zero weight are dropped before the
    sort, which is exact: zero terms leave every prefix sum unchanged.
    ``band`` is None there.

    On the plane, cells within ``band`` of the ball boundary (a contiguous
    slice of the sorted order) get their exact disk-overlap coverage
    fraction, and radius windows are evaluated by a short Gauss rule.  Per
    radius the object keeps the band slice and the coverage correction
    ``frac - sharp``, computed once and applied to every key.  Each
    ``cumulative`` call fills the corrections of all its new radii
    together, over their concatenated band slices in bounded groups; only
    the final weighted sum runs per radius, so every radius is summed as on
    its own.
    """

    _GL5_X, _GL5_W = np.polynomial.legendre.leggauss(5)

    def __init__(self, region: WettedRegion, center, arrays: Optional[dict] = None):
        nodes, cellw, _, wind_aa = region.grid()
        weight = wind_aa * cellw
        keyed = {"mass": weight}
        keyed.update((key, np.asarray(v, dtype=float) * weight) for key, v in (arrays or {}).items())
        self.band = None
        if region.wetting == SPHERE:
            keep = weight != 0.0
            super().__init__(nodes[keep], center, {key: v[keep] for key, v in keyed.items()})
            return
        # zero-weight plane cells stay: dropping them would regroup the band sums
        super().__init__(nodes, center, keyed)
        self._nodes = nodes
        self._corrections: dict = {}
        self._h = np.sqrt(float(cellw[0]))
        self.band = 0.71 * self._h

    def _fractions(self, rows: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Disk-overlap fractions of the sorted plane cells ``rows``, each in a ball of radius ``r``."""
        rp2 = r**2 - self.center[2] ** 2
        out = np.zeros(len(rows))
        cut = rp2 > 0.0
        cells = self.order[rows[cut]]
        x0 = self._nodes[cells, 0] - self.center[0]
        y0 = self._nodes[cells, 1] - self.center[1]
        out[cut] = _disk_cell_overlap(x0, y0, self._h, np.sqrt(rp2[cut])) / (self._h * self._h)
        return out

    def _fill_corrections(self, radii: np.ndarray) -> None:
        """Sharp count, band slice and coverage correction of each new finite radius.

        The correction ``frac - sharp`` depends on the radius alone, so every
        key evaluated at that radius reuses it.  The band slices of the new
        radii are concatenated and evaluated in groups of whole radii holding
        about ``_CHUNK * 4`` cells, so the temporaries stay bounded however
        many radii one call asks for.
        """
        finite = radii[np.isfinite(radii)].tolist()
        new = [r for r in dict.fromkeys(finite) if r not in self._corrections]
        if not new:
            return
        r = np.array(new)
        idx = np.searchsorted(self.dists, r, side="left")
        lo = np.searchsorted(self.dists, r - self.band, side="left")
        hi = np.searchsorted(self.dists, r + self.band, side="left")
        count = hi - lo
        ends = np.cumsum(count)
        first = ends - count
        start = 0
        while start < len(new):
            stop = max(int(np.searchsorted(ends, first[start] + _CHUNK * 4, side="right")), start + 1)
            rows = np.repeat(lo[start:stop], count[start:stop]) + _run_offsets(count[start:stop])
            rad = np.repeat(r[start:stop], count[start:stop])
            corr = self._fractions(rows, rad) - (self.dists[rows] < rad).astype(float)
            for k in range(start, stop):
                c = corr[first[k] - first[start] : ends[k] - first[start]] if count[k] else None
                self._corrections[new[k]] = (int(idx[k]), int(lo[k]), int(hi[k]), c)
            start = stop

    def cumulative(self, key: str, radii) -> np.ndarray:
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if self.band is None:
            return super().cumulative(key, radii)
        self._fill_corrections(radii)
        prefix, values = self._prefix[key], self.values[key]
        out = np.empty(len(radii))
        for k, (r, finite) in enumerate(zip(radii.tolist(), np.isfinite(radii).tolist())):
            if not finite:
                out[k] = prefix[-1]
                continue
            idx, lo, hi, corr = self._corrections[r]
            total = float(prefix[idx])
            if corr is not None:
                total += float(np.sum(values[lo:hi] * corr))
            out[k] = total
        return out

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
        if self.band is None:
            window = super().windowed_over_r2 if over_r2 else super().windowed
            return window(key, r, w)
        s = np.maximum(r[None, :] + self._GL5_X[:, None] * w[None, :], 1e-12)
        vals = self.cumulative(key, s.ravel()).reshape(s.shape)
        if over_r2:
            vals = vals / s**2
        out = np.zeros(len(r))
        for wk, val in zip(self._GL5_W, vals):
            out = out + 0.5 * wk * val
        return out

    def windowed(self, key: str, r, halfwidth) -> np.ndarray:
        return self._window_average(key, r, halfwidth, over_r2=False)

    def windowed_over_r2(self, key: str, r, halfwidth) -> np.ndarray:
        return self._window_average(key, r, halfwidth, over_r2=True)


def eta_integral(region: WettedRegion, f: Callable[[np.ndarray], np.ndarray] | float = 1.0) -> float:
    """Quadrature of f against the winding measure on the wetting surface."""
    nodes, w = region.eta_nodes()
    if callable(f):
        vals = np.asarray(f(nodes), dtype=float)
    else:
        vals = np.full(len(nodes), float(f))
    return float(np.sum(vals * w))


def wetted_region(
    surface: SampledSurface, grid_n: int = 512, sphere_level: int = 6
) -> WettedRegion:
    """Region enclosed by the boundary image of a sampled surface."""
    curve = curve_from_boundary(surface)
    wetting = SPHERE if surface.ambient.kind == BALL else PLANE
    return WettedRegion((curve,), wetting, grid_n=grid_n, sphere_level=sphere_level)


# -- antialiasing ----------------------------------------------------------------
#
# Cells straddling a curve are supersampled: the cell is split into
# subcells, every subcell center is classified by the same exact crossing
# count that produced the node windings, and the node value is replaced by
# the area-weighted subcell average.  Cells away from every curve are left
# untouched: all their subcells agree with the node, so the average would
# return the node's integer winding bit for bit.
#
# On the plane the band is every node within half a cell diagonal of a
# refined polygon edge.  The 8x8 subcell centers lie within 7/16 of that
# diagonal of their node, and node and subcell windings count crossings of
# the same polygon, so they differ only where the polygon passes that
# close; outside the band the antialiased value would equal the integer
# one.  Each edge visits only the grid window around it, so finding the
# band costs the curve length, not nodes times curve points.  On the
# sphere the band is found by descending the icosphere hierarchy, so it
# costs the band, not the faces.  The band faces are subdivided and every
# subcell center is counted directly, in blocks of fixed size, so the
# temporaries are set by the block size and not by the level; only
# per-face arrays grow with the band.


def _near_curve(
    loops: Sequence[np.ndarray],
    band: float,
    axes: Optional[tuple[np.ndarray, np.ndarray]] = None,
    level: Optional[int] = None,
) -> np.ndarray:
    """Indices of grid nodes within band of any curve loop.

    With ``axes = (xs, ys)`` the nodes form the plane grid of those axes and
    the loops are closed polygons: each edge is walked through the window of
    grid indices around it and the nodes within band of the edge segment
    are kept.  With ``level`` the nodes are the face centroids of
    ``sphere_mesh(level)`` and the nodes within band of the loops' sample
    points are kept: each loop descends the icosphere hierarchy to the band
    (see ``_near_samples``).
    """
    if axes is not None:
        return _near_segments(loops, band, *axes)
    return np.unique(np.concatenate([_near_samples(p, band, level) for p in loops]))


def _nearest_sample(q: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Distance of each point of q to the nearest of the samples."""
    out = np.empty(len(q))
    for lo in range(0, len(q), _CHUNK):
        d = np.linalg.norm(q[lo : lo + _CHUNK, None, :] - samples[None, :, :], axis=2)
        out[lo : lo + _CHUNK] = d.min(axis=1)
    return out


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


def _axis_window(lo: np.ndarray, hi: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of the uniform axis nodes that may fall in [lo, hi]."""
    h = axis[1] - axis[0]
    f0, f1 = (lo - axis[0]) / h, (hi - axis[0]) / h
    first = np.clip(np.floor(np.minimum(f0, f1)), 0, len(axis) - 1).astype(np.int64)
    last = np.clip(np.ceil(np.maximum(f0, f1)), -1, len(axis) - 1).astype(np.int64)
    return first, last


def _near_segments(polys: Sequence[np.ndarray], band: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Plane grid nodes within band of a polygon edge, edge by edge."""
    a = np.concatenate(polys)
    b = np.concatenate([np.roll(p, -1, axis=0) for p in polys])
    seg = b - a
    lo, hi = np.minimum(a, b) - band, np.maximum(a, b) + band
    ix0, ix1 = _axis_window(lo[:, 0], hi[:, 0], xs)
    iy0, iy1 = _axis_window(lo[:, 1], hi[:, 1], ys)
    ny = np.maximum(iy1 - iy0 + 1, 0)
    count = np.maximum(ix1 - ix0 + 1, 0) * ny
    seg2 = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    keep = np.zeros(len(xs) * len(ys), dtype=bool)
    ends = np.cumsum(count)
    start = 0
    while start < len(a):
        # a block of whole edges holding about _CHUNK (edge, node) pairs
        base = ends[start] - count[start]
        stop = max(int(np.searchsorted(ends, base + _CHUNK, side="right")), start + 1)
        edge = np.repeat(np.arange(start, stop), count[start:stop])
        k = _run_offsets(count[start:stop])
        i = ix0[edge] + k // ny[edge]
        j = iy0[edge] + k % ny[edge]
        rx, ry = xs[i] - a[edge, 0], ys[j] - a[edge, 1]
        t = np.clip((rx * seg[edge, 0] + ry * seg[edge, 1]) / seg2[edge], 0.0, 1.0)
        dx, dy = rx - t * seg[edge, 0], ry - t * seg[edge, 1]
        near = dx * dx + dy * dy <= band * band
        keep[i[near] * len(ys) + j[near]] = True
        start = stop
    return np.flatnonzero(keep)


def _aa_plane(
    polys: Sequence[np.ndarray],
    cells: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Antialiased winding replacement values for the given plane grid cells.

    The subcell windings reuse the scanline crossing count, so they sit on
    exactly the same boundary as the integer field.  Cells in one grid row
    share that row's subrows.
    """
    sub = 8
    n = len(ys)
    ix, iy = cells // n, cells % n
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    rows, inv = np.unique(iy, return_inverse=True)
    sub_ys = (ys[rows][:, None] + offs[None, :] * hy).ravel()
    sub_xs = xs[ix][:, None] + offs[None, :] * hx
    # query (cell, subrow, subcolumn), raveled in that order
    row = np.repeat(inv[:, None] * sub + np.arange(sub)[None, :], sub)
    x = np.repeat(sub_xs[:, None, :], sub, axis=1).ravel()
    w = _winding_scanline(polys, sub_ys, row, x)
    return np.sum(w.reshape(len(cells), sub * sub), axis=1) / (sub * sub)


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
    blocks of ``_CHUNK``, so the subcell temporaries stay bounded however
    wide the band is.
    """
    from .quadrature import barycentric_subtriangles, spherical_triangle_areas

    bary = barycentric_subtriangles(_SUB_DEPTH)
    polys = [_stereographic(p, None, ref)[0] for p in points_loops]
    out = np.empty(len(corners))
    for lo in range(0, len(corners), _CHUNK):
        sc = np.einsum("mkb,cbx->cmkx", bary, corners[lo : lo + _CHUNK])
        sc /= np.linalg.norm(sc, axis=-1, keepdims=True)
        areas = spherical_triangle_areas(sc[:, :, 0, :], sc[:, :, 1, :], sc[:, :, 2, :])
        centers = sc.sum(axis=2)
        centers /= np.linalg.norm(centers, axis=-1, keepdims=True)
        qsub, _ = _stereographic(centers.reshape(-1, 3), None, ref)
        w_sub = _winding_at(polys, qsub).reshape(areas.shape) + ref_wind
        out[lo : lo + _CHUNK] = np.sum(areas * w_sub, axis=1) / np.sum(areas, axis=1)
    return out
