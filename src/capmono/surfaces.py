"""Quadrature-sampled immersed surfaces with boundary on a wetting surface.

A :class:`ParametricChart` maps the polar unit disk into the closed
half-space or closed unit ball, with the disk boundary landing on the
wetting surface (the plane x3 = 0 or the unit sphere).
:func:`sample_chart` turns a chart into a :class:`SampledSurface`: interior
Gauss-Legendre samples carrying area weights, unit normals and mean
curvature vectors, plus boundary samples carrying the tangent/conormal
frame and the two geodesic curvatures.

Analytic generators cover the equality cases of the energy bounds
(spherical caps over the plane, geodesic disks and spherical caps in the
ball).  Each carries its normals, mean curvature vectors and Gauss
curvature in one ``frames`` callback and its boundary conormals in a
``conormal`` callback; both spherical caps are one chart, ``_sphere_cap``.
:func:`perturb_chart` produces controlled non-equality test cases, sampled
by central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import GeometryError, ImmersionError
from .geometry import BALL, E3, HALFSPACE, Ambient, rowdot, rownorm
from .quadrature import gauss_legendre, tensor_rule


@dataclass(frozen=True)
class ParametricChart:
    """Immersion of the polar unit disk, optionally with analytic frames.

    ``f`` maps parameter arrays ``(u, v)`` of a common shape to points of
    shape ``(..., 3)`` and must be evaluable slightly outside the closed
    disk (finite-difference margin).  The disk has u in (0, 1] and
    v = angle in [0, 2*pi), with the boundary at u = 1.

    ``frames(u, v)``, when given, returns the exact unit normals (..., 3),
    mean curvature vectors (..., 3) and Gauss curvatures (...) at the
    nodes; without it all three come from central differences with step
    ``fd_step``.  ``conormal(t)``, when given, returns the exact outward
    boundary conormals at the angles t; without it they are differenced
    too, and the boundary curvatures take a coarser step.
    """

    ambient: Ambient
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    frames: Optional[Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]] = None
    conormal: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-4
    name: str = "chart"


# the sample tables' layouts: each SampledSurface field in table order and the
# names of its columns, by which the tables are written and read back
SURFACE_LAYOUT = (
    ("points", "x1 x2 x3"), ("weights", "weight"), ("normals", "nu1 nu2 nu3"),
    ("mean_curvature", "H1 H2 H3"), ("gauss_curvature", "K"), ("traceless_sq", "Aring2"),
)
BOUNDARY_LAYOUT = (
    ("boundary_points", "x1 x2 x3"), ("boundary_tangents", "t1 t2 t3"), ("boundary_conormals", "c1 c2 c3"),
    ("boundary_weights", "arcweight"), ("boundary_kg", "kg"), ("boundary_kg_wetting", "kg_wetting"),
)


class SampledSurface:
    """Immutable quadrature representation of an immersed capillary surface.

    Interior data are stored as flat arrays, one row per sample: ``points``
    (n, 3), ``weights`` (n,), ``normals`` (n, 3), ``mean_curvature`` (n, 3),
    ``gauss_curvature`` (n,) and ``traceless_sq`` (n,) (squared norm of the
    trace-free second fundamental form).  Boundary rows carry the frame
    {tangent, conormal}, arclength weights and the geodesic curvatures of
    the boundary in the surface and in the wetting surface.

    The (n, 3) arrays are Fortran-ordered: each coordinate is one contiguous
    column, which is what the per-probe passes (``geometry.rowdot``, the
    offsets from a center) read.  Elementwise operations and the row
    reductions ``np.sum(..., axis=1)``, ``np.linalg.norm(..., axis=1)`` and
    ``np.cross`` round the same in either layout; a matrix product does not.
    """

    def __init__(
        self,
        ambient: Ambient,
        points,
        weights,
        normals,
        mean_curvature,
        gauss_curvature,
        traceless_sq,
        boundary_points,
        boundary_tangents,
        boundary_conormals,
        boundary_weights,
        boundary_kg,
        boundary_kg_wetting,
        euler_characteristic: int = 1,
        metadata: Optional[dict] = None,
    ):
        self.ambient = ambient
        self.points = np.asfortranarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.normals = np.asfortranarray(normals, dtype=float)
        self.mean_curvature = np.asfortranarray(mean_curvature, dtype=float)
        self.gauss_curvature = np.asarray(gauss_curvature, dtype=float)
        self.traceless_sq = np.asarray(traceless_sq, dtype=float)
        self.boundary_points = np.asfortranarray(boundary_points, dtype=float)
        self.boundary_tangents = np.asfortranarray(boundary_tangents, dtype=float)
        self.boundary_conormals = np.asfortranarray(boundary_conormals, dtype=float)
        self.boundary_weights = np.asarray(boundary_weights, dtype=float)
        self.boundary_kg = np.asarray(boundary_kg, dtype=float)
        self.boundary_kg_wetting = np.asarray(boundary_kg_wetting, dtype=float)
        self.euler_characteristic = int(euler_characteristic)
        self.metadata = dict(metadata or {})
        self._validate()

    # -- basic reductions ---------------------------------------------------

    def area(self) -> float:
        return float(np.sum(self.weights))

    def boundary_length(self) -> float:
        return float(np.sum(self.boundary_weights))

    def max_mean_curvature(self) -> float:
        return float(np.max(np.linalg.norm(self.mean_curvature, axis=1)))

    @property
    def theta(self) -> float:
        return self.ambient.theta

    @cached_property
    def contact_residual(self) -> float:
        """Worst deviation of the boundary conormal from the contact-angle frame.

        Half-space: |mu - (sin(theta) (-e3) + cos(theta) nbar)| with nbar the
        in-plane outward normal of the boundary curve; ball: the analogue with
        mu - (cos(theta) nbar + sin(theta) N), N the outer sphere normal.
        Computed on first use.
        """
        if len(self.boundary_points) == 0:
            raise GeometryError("contact check requires a nonempty boundary")
        theta = self.theta
        bpts = self.boundary_points
        nbar = _wetting_normal_along(self.ambient, bpts, self.boundary_tangents)
        if self.ambient.kind == HALFSPACE:
            target = np.sin(theta) * (-E3) + np.cos(theta) * nbar
        else:
            n_out = bpts / np.linalg.norm(bpts, axis=1, keepdims=True)
            target = np.cos(theta) * nbar + np.sin(theta) * n_out
        return float(np.max(np.linalg.norm(self.boundary_conormals - target, axis=1)))

    @cached_property
    def mu_arrays(self) -> Mapping[str, np.ndarray]:
        """Weighted sample quantities the radial pairs restrict to balls.

        Area, |H|^2 and H.x, each times the area weight, one value per
        sample.  They do not depend on the base point, so they are computed
        on first use and shared by every probe of this surface; the mapping
        and its arrays are read-only.  Integrands that depend on the center
        c of a restriction, the coupling H.(x - c) w among them, are built
        per center.
        """
        w, h = self.weights, self.mean_curvature
        arrays = {
            "mass": w.view(),
            "h2": rowdot(h, h) * w,
            "hx": rowdot(h, self.points) * w,
        }
        for arr in arrays.values():
            arr.flags.writeable = False
        return MappingProxyType(arrays)

    # -- consistency --------------------------------------------------------

    def _validate(self):
        arrays = [getattr(self, name) for name, _ in SURFACE_LAYOUT + BOUNDARY_LAYOUT]
        # every check below is a comparison, which a NaN passes; min and max
        # carry any NaN or infinity, without a full-size temporary
        if any(arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())) for arr in arrays):
            raise GeometryError("sample arrays must hold finite numbers only")
        if np.any(self.weights <= 0):
            raise GeometryError("area weights must be positive")
        # rownorm rounds as np.linalg.norm(..., axis=1), without its (n, 3)
        # temporary; |H x nu| takes the components of np.cross one at a time
        if np.any(np.abs(rownorm(self.normals) - 1.0) > 1e-10):
            raise GeometryError("interior normals must be unit to 1e-10")
        h, nu = self.mean_curvature, self.normals
        cross = sum(np.square(h[:, i] * nu[:, j] - h[:, j] * nu[:, i]) for i, j in ((1, 2), (2, 0), (0, 1)))
        if np.any(np.sqrt(cross) > 1e-8 * np.maximum(rownorm(h), 1.0)):
            raise GeometryError("mean curvature vector must be parallel to the normal")
        if self.ambient.kind == HALFSPACE:
            if np.any(self.points[:, 2] < -1e-8):
                raise GeometryError("interior samples must lie in the closed upper half-space")
            if len(self.boundary_points) and np.any(np.abs(self.boundary_points[:, 2]) > 1e-8):
                raise GeometryError("boundary samples must lie on the plane x3 = 0")
        else:
            if np.any(rownorm(self.points) > 1.0 + 1e-8):
                raise GeometryError("interior samples must lie in the closed unit ball")
            if len(self.boundary_points):
                r = np.linalg.norm(self.boundary_points, axis=1)
                if np.any(np.abs(r - 1.0) > 1e-8):
                    raise GeometryError("boundary samples must lie on the unit sphere")


# -- chart frames and curvatures --------------------------------------------


def _axis_points(chart: ParametricChart, u: np.ndarray, v: np.ndarray):
    """The chart at the nodes' four axis neighbours, evaluated one at a time:
    at (u + h, v), (u - h, v), (u, v + h) and (u, v - h)."""
    h = chart.fd_step
    yield chart.f(u + h, v)
    yield chart.f(u - h, v)
    yield chart.f(u, v + h)
    yield chart.f(u, v - h)


def _mixed_partial(chart: ParametricChart, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The mixed second partial by central differences of the four diagonal neighbours."""
    h = chart.fd_step
    return (
        chart.f(u + h, v + h)
        - chart.f(u + h, v - h)
        - chart.f(u - h, v + h)
        + chart.f(u - h, v - h)
    ) / (4 * h**2)


def _frames(chart: ParametricChart, u: np.ndarray, v: np.ndarray, axis):
    """First partials by central differences, first fundamental form and its determinant.

    ``axis`` yields the chart at the four axis neighbours in the order of
    ``_axis_points``; fed by that generator, the differences hold only two
    of them at a time.
    """
    h = chart.fd_step
    points = iter(axis)
    fu = (next(points) - next(points)) / (2 * h)
    fv = (next(points) - next(points)) / (2 * h)
    E = np.sum(fu * fu, axis=-1)
    F = np.sum(fu * fv, axis=-1)
    G = np.sum(fv * fv, axis=-1)
    det = E * G - F * F
    if np.any(det <= 0):
        k = int(np.argmin(det))
        raise ImmersionError(float(np.ravel(u)[k]), float(np.ravel(v)[k]), float(np.ravel(det)[k]))
    return fu, fv, E, F, G, det


def _curvatures(chart: ParametricChart, u: np.ndarray, v: np.ndarray):
    """Points, unit normal, mean curvature vector, Gauss curvature, |traceless II|^2 and det g at nodes.

    The chart is evaluated once at each point: on the difference path the
    four axis neighbours serve both the first and the pure second partials,
    and the points at the nodes the second partials too, so a node set
    takes nine evaluations: four diagonal, four axis and one at the nodes.

    The points, normals and mean curvature vectors come back in the
    column-major layout of :class:`SampledSurface`, each converted as soon
    as the row reductions that read it are done, so the surface copies none.
    """
    if chart.frames is not None:
        # only det is kept: the partials and the first fundamental form go
        det = _frames(chart, u, v, _axis_points(chart, u, v))[-1]
        nu_vec, h_vec, k_gauss = chart.frames(u, v)
        h_scalar = np.sum(h_vec * nu_vec, axis=-1)
        nu_vec = np.asfortranarray(nu_vec)
        h_vec = np.asfortranarray(h_vec)
        pts = np.asfortranarray(chart.f(u, v))
    else:
        # each point is evaluated once, in the order that holds the fewest
        # arrays at a time: the diagonal neighbours, the axis neighbours
        # (for the first and then the pure second partials), the nodes
        fuv = _mixed_partial(chart, u, v)
        fup, fum, fvp, fvm = _axis_points(chart, u, v)
        fu, fv, E, F, G, det = _frames(chart, u, v, (fup, fum, fvp, fvm))
        nu_vec = np.cross(fu, fv)
        nu_vec = nu_vec / np.linalg.norm(nu_vec, axis=-1, keepdims=True)
        del fu, fv
        pts = chart.f(u, v)
        h = chart.fd_step
        fuu = (fup - 2 * pts + fum) / h**2
        fvv = (fvp - 2 * pts + fvm) / h**2
        del fup, fum, fvp, fvm
        pts = np.asfortranarray(pts)
        e = np.sum(fuu * nu_vec, axis=-1)
        f2 = np.sum(fuv * nu_vec, axis=-1)
        g2 = np.sum(fvv * nu_vec, axis=-1)
        h_scalar = (e * G - 2.0 * f2 * F + g2 * E) / det
        k_gauss = (e * g2 - f2 * f2) / det
        h_vec = np.asfortranarray(h_scalar[..., None] * nu_vec)
        nu_vec = np.asfortranarray(nu_vec)
    traceless = np.maximum(h_scalar**2 - 4.0 * k_gauss, 0.0) / 2.0
    return pts, nu_vec, h_vec, k_gauss, traceless, det


# -- boundary machinery ------------------------------------------------------


def _boundary_frame_polar(chart: ParametricChart, t: np.ndarray):
    """Point, unit tangent, outward conormal, speed |dF/dt| at u = 1."""
    u, v = np.ones_like(t), t
    pts = chart.f(u, v)
    fu, fv, *_ = _frames(chart, u, v, _axis_points(chart, u, v))
    speed = np.linalg.norm(fv, axis=-1)
    tau = fv / speed[..., None]
    if chart.conormal is not None:
        mu = chart.conormal(t)
    else:
        mu = fu - np.sum(fu * tau, axis=-1, keepdims=True) * tau
        mu = mu / np.linalg.norm(mu, axis=-1, keepdims=True)
    return pts, tau, mu, speed


def _wetting_normal_along(ambient: Ambient, pts: np.ndarray, tau: np.ndarray):
    """In-wetting outward normal of the boundary curve (tau x e3 or tau x N)."""
    if ambient.kind == HALFSPACE:
        nbar = np.cross(tau, np.broadcast_to(E3, tau.shape))
    else:
        n_out = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
        nbar = np.cross(tau, n_out)
    return nbar / np.linalg.norm(nbar, axis=-1, keepdims=True)


def _boundary_curvatures_polar(chart: ParametricChart, t: np.ndarray):
    """kappa_g and the wetting geodesic curvature by parameter differencing."""
    delta = 1e-3 if chart.conormal is None else 1e-4
    pts, tau, mu, speed = _boundary_frame_polar(chart, t)
    pp, tp, mp, _ = _boundary_frame_polar(chart, t + delta)
    pm, tm, mm, _ = _boundary_frame_polar(chart, t - delta)
    dmu = (mp - mm) / (2 * delta)
    kg = np.sum(dmu * tau, axis=-1) / speed
    nbar_p = _wetting_normal_along(chart.ambient, pp, tp)
    nbar_m = _wetting_normal_along(chart.ambient, pm, tm)
    dnbar = (nbar_p - nbar_m) / (2 * delta)
    kg_wet = np.sum(dnbar * tau, axis=-1) / speed
    return pts, tau, mu, speed, kg, kg_wet


# -- sampling ----------------------------------------------------------------


def sample_chart(chart: ParametricChart, nu: int, nv: int) -> SampledSurface:
    """Sample a chart into a :class:`SampledSurface` on an nu x nv tensor rule.

    Area weights are sqrt(det g) times tensor Gauss-Legendre weights; normals
    and curvatures come from the chart's ``frames`` and ``conormal``
    callbacks when present, otherwise from central differences.  Boundary
    samples are taken along the disk boundary with arclength weights.
    """
    if nu < 8 or nv < 8:
        raise ValueError("need nu, nv >= 8")
    u, v, w = tensor_rule(nu, nv, (0.0, 1.0), (0.0, 2.0 * np.pi))

    pts, nu_vec, h_vec, k_gauss, traceless, det = _curvatures(chart, u, v)
    weights = np.sqrt(det) * w

    t, wt = gauss_legendre(nv, 0.0, 2.0 * np.pi)
    bpts, btau, bmu, speed, kg, kg_wet = _boundary_curvatures_polar(chart, t)
    bweights = speed * wt

    return SampledSurface(
        ambient=chart.ambient,
        points=pts,
        weights=weights,
        normals=nu_vec,
        mean_curvature=h_vec,
        gauss_curvature=k_gauss,
        traceless_sq=traceless,
        boundary_points=bpts,
        boundary_tangents=btau,
        boundary_conormals=bmu,
        boundary_weights=bweights,
        boundary_kg=kg,
        boundary_kg_wetting=kg_wet,
        euler_characteristic=1,
        metadata={"generator": chart.name},
    )


# -- analytic generators ------------------------------------------------------


def _sphere_cap(ambient, center, radius, opening, pole, name) -> ParametricChart:
    """The piece of the sphere |x - center| = radius within polar angle ``opening`` of a pole.

    The pole is ``center + pole * radius * e3``, ``pole`` being +1 or -1;
    u in [0, 1] scales the polar angle and v is the azimuth.  The normal is
    ``pole`` times the outward sphere normal, so it is e3 at the pole; the
    mean curvature vector is -2/radius times the outward normal either way,
    and the boundary conormal is the unit derivative of the chart in the
    polar angle.
    """
    c, z = np.cos(opening), -pole * np.sin(opening)

    def f(u, v):
        phi = np.asarray(u) * opening
        sp = np.sin(phi)
        return center + radius * np.stack([sp * np.cos(v), sp * np.sin(v), pole * np.cos(phi)], axis=-1)

    def frames(u, v):
        outward = (f(u, v) - center) / radius
        return pole * outward, -(2.0 / radius) * outward, np.full(np.shape(u), 1.0 / radius**2)

    def conormal(t):
        t = np.asarray(t, dtype=float)
        return np.stack([c * np.cos(t), c * np.sin(t), z * np.ones_like(t)], axis=-1)

    return ParametricChart(ambient=ambient, f=f, frames=frames, conormal=conormal, name=name)


def spherical_cap_halfspace(theta: float, radius: float = 1.0, planar_center=(0.0, 0.0)) -> ParametricChart:
    """Spherical cap meeting the plane {x3 = 0} at constant angle theta.

    The sphere of the given radius is centered at (planar_center,
    -radius cos(theta)); the chart covers the portion above the plane with a
    polar parametrization around the apex.  The boundary circle has radius
    radius*sin(theta).
    """
    ambient = Ambient(HALFSPACE, theta)
    if not radius > 0:
        raise GeometryError("radius must be positive")
    cx, cy = planar_center
    center = np.array([cx, cy, -radius * np.cos(theta)])
    return _sphere_cap(ambient, center, radius, opening=theta, pole=1.0, name="cap")


def geodesic_disk_ball(theta: float) -> ParametricChart:
    """Totally geodesic disk {x3 = cos(theta), x1^2 + x2^2 <= sin^2(theta)}.

    Flat, so the mean curvature vector vanishes; the wetted region is the
    spherical cap of the unit sphere above height cos(theta).
    """
    ambient = Ambient(BALL, theta)
    st, ct = np.sin(theta), np.cos(theta)

    def f(u, v):
        s = np.asarray(u) * st
        return np.stack([s * np.cos(v), s * np.sin(v), np.full(np.shape(s), ct)], axis=-1)

    def frames(u, v):
        shape = np.shape(u)
        return np.broadcast_to(E3, shape + (3,)).copy(), np.zeros(shape + (3,)), np.zeros(shape)

    def conormal(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)

    return ParametricChart(ambient=ambient, f=f, frames=frames, conormal=conormal, name="flat-disk-ball")


def spherical_cap_ball(theta: float, colatitude: float) -> ParametricChart:
    """Spherical cap inside the unit ball meeting the sphere at angle theta.

    ``colatitude`` is the polar angle (from the north pole) of the contact
    circle on the unit sphere.  Center height d and radius rho follow from
    the two-sphere intersection-angle relation d = sin(theta)/sin(theta -
    colatitude), rho = sin(colatitude)/|sin(theta - colatitude)|; the piece
    inside the ball is the cap around the lower or upper pole depending on
    the sign of theta - colatitude, with the normal pointing into or out of
    its sphere to match.  colatitude = theta degenerates to the totally
    geodesic disk, which is returned instead.
    """
    ambient = Ambient(BALL, theta)
    alpha = colatitude
    if not 0.0 < alpha < np.pi or np.sin(alpha) < 1e-9:
        raise GeometryError("contact circle colatitude must select a genuine circle")
    s = np.sin(theta - alpha)
    if abs(s) < 1e-9:
        return geodesic_disk_ball(theta)
    d = np.sin(theta) / s
    rho = np.sin(alpha) / abs(s)
    # the cap lies around the lower pole when theta > colatitude
    pole = -np.sign(s)
    return _sphere_cap(ambient, np.array([0.0, 0.0, d]), rho, abs(theta - alpha), pole, "cap-ball")


# -- perturbations -------------------------------------------------------------


def perturb_chart(chart: ParametricChart, amplitude: float, mode: int) -> ParametricChart:
    """Displace a chart along the wetting-surface normal by a boundary-vanishing bump.

    The displacement is amplitude * (1 - u^2) u^mode cos(mode v) times e3
    (half-space) or the radial direction (ball); the bump vanishes on the
    disk boundary so the boundary curve stays on the wetting surface, while
    the contact angle is no longer exact.  The analytic ``frames`` and
    ``conormal`` are dropped: the perturbed chart is sampled through the
    finite-difference path.  Immersivity is checked when the chart is
    sampled.
    """
    if amplitude == 0.0:
        return chart
    m = int(mode)
    if m < 0:
        raise GeometryError("perturbation mode must be a nonnegative integer")
    base_f = chart.f
    is_ball = chart.ambient.kind == BALL

    def f(u, v):
        p = base_f(u, v)
        u = np.asarray(u, dtype=float)
        b = amplitude * ((1.0 - u**2) * u**m * np.cos(m * np.asarray(v)))
        if is_ball:
            direction = p / np.linalg.norm(p, axis=-1, keepdims=True)
        else:
            direction = np.broadcast_to(E3, p.shape)
        return p + b[..., None] * direction

    return ParametricChart(ambient=chart.ambient, f=f, fd_step=chart.fd_step, name=f"{chart.name}-perturbed")
