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
ball); :func:`perturb_chart` produces controlled non-equality test cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import GeometryError, ImmersionError
from .geometry import BALL, E3, HALFSPACE, Ambient
from .quadrature import gauss_legendre, tensor_rule


@dataclass(frozen=True)
class ParametricChart:
    """Immersion of the polar unit disk, optionally with analytic frames.

    ``f`` maps parameter arrays ``(u, v)`` of a common shape to points of
    shape ``(..., 3)`` and must be evaluable slightly outside the closed
    disk (finite-difference margin).  The disk has u in (0, 1] and
    v = angle in [0, 2*pi), with the boundary at u = 1.

    Optional callbacks supply exact normals, mean curvature vectors, Gauss
    curvature and boundary conormals; anything missing is filled in by
    central differences with step ``fd_step``.
    """

    ambient: Ambient
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    normal: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    mean_curvature_vec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    gauss_curvature: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    conormal: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-4
    name: str = "chart"
    params: dict = field(default_factory=dict)


class SampledSurface:
    """Immutable quadrature representation of an immersed capillary surface.

    Interior data are stored as flat arrays, one row per sample: ``points``
    (n, 3), ``weights`` (n,), ``normals`` (n, 3), ``mean_curvature`` (n, 3),
    ``gauss_curvature`` (n,) and ``traceless_sq`` (n,) (squared norm of the
    trace-free second fundamental form).  Boundary rows carry the frame
    {tangent, conormal}, arclength weights and the geodesic curvatures of
    the boundary in the surface and in the wetting surface.
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
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.normals = np.asarray(normals, dtype=float)
        self.mean_curvature = np.asarray(mean_curvature, dtype=float)
        self.gauss_curvature = np.asarray(gauss_curvature, dtype=float)
        self.traceless_sq = np.asarray(traceless_sq, dtype=float)
        self.boundary_points = np.asarray(boundary_points, dtype=float)
        self.boundary_tangents = np.asarray(boundary_tangents, dtype=float)
        self.boundary_conormals = np.asarray(boundary_conormals, dtype=float)
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
    def mu_arrays(self) -> Mapping[str, np.ndarray]:
        """Weighted sample quantities every radial pair restricts to balls.

        Area, |H|^2, H.x and H, each times the area weight.  They do not
        depend on the base point, so they are computed on first use and
        shared by every probe of this surface; the mapping and its arrays
        are read-only.
        """
        w, h = self.weights, self.mean_curvature
        arrays = {
            "mass": w.view(),
            "h2": np.sum(h * h, axis=1) * w,
            "hx": np.sum(h * self.points, axis=1) * w,
            "h": h * w[:, None],
        }
        for arr in arrays.values():
            arr.flags.writeable = False
        return MappingProxyType(arrays)

    # -- consistency --------------------------------------------------------

    def _validate(self):
        if np.any(self.weights <= 0):
            raise GeometryError("area weights must be positive")
        if np.any(np.abs(np.linalg.norm(self.normals, axis=1) - 1.0) > 1e-10):
            raise GeometryError("interior normals must be unit to 1e-10")
        cross = np.cross(self.mean_curvature, self.normals)
        scale = np.maximum(np.linalg.norm(self.mean_curvature, axis=1), 1.0)
        if np.any(np.linalg.norm(cross, axis=1) > 1e-8 * scale):
            raise GeometryError("mean curvature vector must be parallel to the normal")
        if self.ambient.kind == HALFSPACE:
            if np.any(self.points[:, 2] < -1e-8):
                raise GeometryError("interior samples must lie in the closed upper half-space")
            if len(self.boundary_points) and np.any(np.abs(self.boundary_points[:, 2]) > 1e-8):
                raise GeometryError("boundary samples must lie on the plane x3 = 0")
        else:
            if np.any(np.linalg.norm(self.points, axis=1) > 1.0 + 1e-8):
                raise GeometryError("interior samples must lie in the closed unit ball")
            if len(self.boundary_points):
                r = np.linalg.norm(self.boundary_points, axis=1)
                if np.any(np.abs(r - 1.0) > 1e-8):
                    raise GeometryError("boundary samples must lie on the unit sphere")


# -- finite-difference chart frames -----------------------------------------


def _partials(chart: ParametricChart, u: np.ndarray, v: np.ndarray):
    h = chart.fd_step
    fu = (chart.f(u + h, v) - chart.f(u - h, v)) / (2 * h)
    fv = (chart.f(u, v + h) - chart.f(u, v - h)) / (2 * h)
    return fu, fv


def _second_partials(chart: ParametricChart, u: np.ndarray, v: np.ndarray):
    h = chart.fd_step
    f0 = chart.f(u, v)
    fuu = (chart.f(u + h, v) - 2 * f0 + chart.f(u - h, v)) / h**2
    fvv = (chart.f(u, v + h) - 2 * f0 + chart.f(u, v - h)) / h**2
    fuv = (
        chart.f(u + h, v + h)
        - chart.f(u + h, v - h)
        - chart.f(u - h, v + h)
        + chart.f(u - h, v - h)
    ) / (4 * h**2)
    return fuu, fuv, fvv


def _frames(chart: ParametricChart, u: np.ndarray, v: np.ndarray):
    """First fundamental form, area element and oriented unit normal."""
    fu, fv = _partials(chart, u, v)
    E = np.sum(fu * fu, axis=-1)
    F = np.sum(fu * fv, axis=-1)
    G = np.sum(fv * fv, axis=-1)
    det = E * G - F * F
    if np.any(det <= 0):
        k = int(np.argmin(det))
        raise ImmersionError(float(np.ravel(u)[k]), float(np.ravel(v)[k]), float(np.ravel(det)[k]))
    if chart.normal is not None:
        nu_vec = chart.normal(u, v)
    else:
        nu_vec = np.cross(fu, fv)
        nu_vec = nu_vec / np.linalg.norm(nu_vec, axis=-1, keepdims=True)
    return fu, fv, E, F, G, det, nu_vec


def _curvatures(chart: ParametricChart, u: np.ndarray, v: np.ndarray):
    """Mean curvature vector, Gauss curvature and |traceless II|^2 at nodes."""
    fu, fv, E, F, G, det, nu_vec = _frames(chart, u, v)
    need_shape = chart.mean_curvature_vec is None or chart.gauss_curvature is None
    if need_shape:
        fuu, fuv, fvv = _second_partials(chart, u, v)
        e = np.sum(fuu * nu_vec, axis=-1)
        f2 = np.sum(fuv * nu_vec, axis=-1)
        g2 = np.sum(fvv * nu_vec, axis=-1)
        h_scalar = (e * G - 2.0 * f2 * F + g2 * E) / det
        k_gauss = (e * g2 - f2 * f2) / det
    if chart.mean_curvature_vec is not None:
        h_vec = chart.mean_curvature_vec(u, v)
        h_scalar = np.sum(h_vec * nu_vec, axis=-1)
    else:
        h_vec = h_scalar[..., None] * nu_vec
    if chart.gauss_curvature is not None:
        k_gauss = chart.gauss_curvature(u, v)
    traceless = np.maximum(h_scalar**2 - 4.0 * k_gauss, 0.0) / 2.0
    return nu_vec, h_vec, k_gauss, traceless, det


# -- boundary machinery ------------------------------------------------------


def _boundary_frame_polar(chart: ParametricChart, t: np.ndarray):
    """Point, unit tangent, outward conormal, speed |dF/dt| at u = 1."""
    u, v = np.ones_like(t), t
    pts = chart.f(u, v)
    fu, fv, *_rest = _frames(chart, u, v)
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
    and curvatures come from the chart callbacks when present, otherwise from
    central differences.  Boundary samples are taken along the disk boundary
    with arclength weights.
    """
    if nu < 8 or nv < 8:
        raise ValueError("need nu, nv >= 8")
    u, v, w = tensor_rule(nu, nv, (0.0, 1.0), (0.0, 2.0 * np.pi))

    nu_vec, h_vec, k_gauss, traceless, det = _curvatures(chart, u, v)
    pts = chart.f(u, v)
    weights = np.sqrt(det) * w

    t, wt = gauss_legendre(nv, 0.0, 2.0 * np.pi)
    bpts, btau, bmu, speed, kg, kg_wet = _boundary_curvatures_polar(chart, t)
    bweights = speed * wt

    surface = SampledSurface(
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
        metadata={"generator": chart.name, "nu": nu, "nv": nv, **chart.params},
    )
    surface.metadata["contact_residual"] = contact_angle_residual(surface)
    return surface


def contact_angle_residual(surface: SampledSurface) -> float:
    """Worst deviation of the boundary conormal from the contact-angle frame.

    Half-space: |mu - (sin(theta) (-e3) + cos(theta) nbar)| with nbar the
    in-plane outward normal of the boundary curve; ball: the analogue with
    mu - (cos(theta) nbar + sin(theta) N), N the outer sphere normal.
    """
    if len(surface.boundary_points) == 0:
        raise GeometryError("contact check requires a nonempty boundary")
    theta = surface.theta
    bpts = surface.boundary_points
    nbar = _wetting_normal_along(surface.ambient, bpts, surface.boundary_tangents)
    if surface.ambient.kind == HALFSPACE:
        target = np.sin(theta) * (-E3) + np.cos(theta) * nbar
    else:
        n_out = bpts / np.linalg.norm(bpts, axis=1, keepdims=True)
        target = np.cos(theta) * nbar + np.sin(theta) * n_out
    return float(np.max(np.linalg.norm(surface.boundary_conormals - target, axis=1)))


# -- analytic generators ------------------------------------------------------


def spherical_cap_halfspace(
    theta: float, radius: float = 1.0, planar_center=(0.0, 0.0)
) -> ParametricChart:
    """Spherical cap meeting the plane {x3 = 0} at constant angle theta.

    The sphere of the given radius is centered at (planar_center,
    -radius cos(theta)); the chart covers the portion above the plane with a
    polar parametrization around the apex.  The boundary circle has radius
    radius*sin(theta).
    """
    if not 0.0 < theta < np.pi:
        raise GeometryError(f"contact angle must lie in (0, pi), got {theta}")
    if radius <= 0:
        raise GeometryError("radius must be positive")
    cx, cy = planar_center
    center = np.array([cx, cy, -radius * np.cos(theta)])

    def f(u, v):
        phi = np.asarray(u) * theta
        sp = np.sin(phi)
        return center + radius * np.stack(
            [sp * np.cos(v), sp * np.sin(v), np.cos(phi)], axis=-1
        )

    def normal(u, v):
        return (f(u, v) - center) / radius

    def mean_curvature_vec(u, v):
        return -(2.0 / radius) * normal(u, v)

    def gauss_curvature(u, v):
        return np.full(np.shape(u), 1.0 / radius**2)

    def conormal(t):
        t = np.asarray(t, dtype=float)
        ct, st = np.cos(theta), np.sin(theta)
        return np.stack([ct * np.cos(t), ct * np.sin(t), -st * np.ones_like(t)], axis=-1)

    return ParametricChart(
        ambient=Ambient(HALFSPACE, theta),
        f=f,
        normal=normal,
        mean_curvature_vec=mean_curvature_vec,
        gauss_curvature=gauss_curvature,
        conormal=conormal,
        name="cap",
        params={"theta": theta, "radius": radius, "planar_center": tuple(planar_center)},
    )


def geodesic_disk_ball(theta: float) -> ParametricChart:
    """Totally geodesic disk {x3 = cos(theta), x1^2 + x2^2 <= sin^2(theta)}.

    Flat, so the mean curvature vector vanishes; the wetted region is the
    spherical cap of the unit sphere above height cos(theta).
    """
    if not 0.0 < theta < np.pi:
        raise GeometryError(f"contact angle must lie in (0, pi), got {theta}")
    st, ct = np.sin(theta), np.cos(theta)

    def f(u, v):
        s = np.asarray(u) * st
        return np.stack([s * np.cos(v), s * np.sin(v), np.full(np.shape(s), ct)], axis=-1)

    def normal(u, v):
        return np.broadcast_to(E3, np.shape(u) + (3,)).copy()

    def zero_vec(u, v):
        return np.zeros(np.shape(u) + (3,))

    def zero(u, v):
        return np.zeros(np.shape(u))

    def conormal(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)

    return ParametricChart(
        ambient=Ambient(BALL, theta),
        f=f,
        normal=normal,
        mean_curvature_vec=zero_vec,
        gauss_curvature=zero,
        conormal=conormal,
        name="flat-disk-ball",
        params={"theta": theta},
    )


def spherical_cap_ball(theta: float, colatitude: float) -> ParametricChart:
    """Spherical cap inside the unit ball meeting the sphere at angle theta.

    ``colatitude`` is the polar angle (from the north pole) of the contact
    circle on the unit sphere.  Center height d and radius rho follow from
    the two-sphere intersection-angle relation d = sin(theta)/sin(theta -
    colatitude), rho = sin(colatitude)/|sin(theta - colatitude)|; the piece
    inside the ball is the cap around the lower or upper pole depending on
    the sign of theta - colatitude.  colatitude = theta degenerates to the
    totally geodesic disk, which is returned instead.
    """
    if not 0.0 < theta < np.pi:
        raise GeometryError(f"contact angle must lie in (0, pi), got {theta}")
    alpha = colatitude
    if not 0.0 < alpha < np.pi or np.sin(alpha) < 1e-9:
        raise GeometryError("contact circle colatitude must select a genuine circle")
    s = np.sin(theta - alpha)
    if abs(s) < 1e-9:
        return geodesic_disk_ball(theta)
    d = np.sin(theta) / s
    rho = np.sin(alpha) / abs(s)
    beta = abs(theta - alpha)
    pole_sign = -1.0 if s > 0 else 1.0
    center = np.array([0.0, 0.0, d])

    def f(u, v):
        phi = np.asarray(u) * beta
        sp = np.sin(phi)
        return center + rho * np.stack(
            [sp * np.cos(v), sp * np.sin(v), pole_sign * np.cos(phi)], axis=-1
        )

    def outward(u, v):
        return (f(u, v) - center) / rho

    def normal(u, v):
        return -np.sign(s) * outward(u, v)

    def mean_curvature_vec(u, v):
        return -(2.0 / rho) * outward(u, v)

    def gauss_curvature(u, v):
        return np.full(np.shape(u), 1.0 / rho**2)

    def conormal(t):
        t = np.asarray(t, dtype=float)
        ca, sa = np.cos(theta - alpha), np.sin(theta - alpha)
        return np.stack([ca * np.cos(t), ca * np.sin(t), sa * np.ones_like(t)], axis=-1)

    return ParametricChart(
        ambient=Ambient(BALL, theta),
        f=f,
        normal=normal,
        mean_curvature_vec=mean_curvature_vec,
        gauss_curvature=gauss_curvature,
        conormal=conormal,
        name="cap-ball",
        params={"theta": theta, "colatitude": alpha, "center_height": d, "cap_radius": rho},
    )


# -- perturbations -------------------------------------------------------------


def _bump(mode: int):
    """Polynomial bump vanishing on the disk boundary, indexed by mode."""
    m = int(mode)
    if m < 0:
        raise GeometryError("perturbation mode must be a nonnegative integer")

    def bump(u, v):
        u = np.asarray(u, dtype=float)
        return (1.0 - u**2) * u**m * np.cos(m * np.asarray(v))

    return bump


def perturb_chart(chart: ParametricChart, amplitude: float, mode: int) -> ParametricChart:
    """Displace a chart along the wetting-surface normal by a boundary-vanishing bump.

    The displacement is amplitude * bump(u, v) times e3 (half-space) or the
    radial direction (ball); the bump vanishes on the disk boundary so the
    boundary curve stays on the wetting surface, while the contact angle is
    no longer exact.  Analytic curvature callbacks are dropped: the perturbed
    chart is sampled through the finite-difference path.  Immersivity is
    checked when the chart is sampled.
    """
    if amplitude == 0.0:
        return chart
    bump = _bump(mode)
    base_f = chart.f
    is_ball = chart.ambient.kind == BALL

    def f(u, v):
        p = base_f(u, v)
        b = amplitude * bump(u, v)
        if is_ball:
            direction = p / np.linalg.norm(p, axis=-1, keepdims=True)
        else:
            direction = np.broadcast_to(E3, p.shape)
        return p + b[..., None] * direction

    return ParametricChart(
        ambient=chart.ambient,
        f=f,
        fd_step=chart.fd_step,
        name=f"{chart.name}-perturbed",
        params={**chart.params, "amplitude": amplitude, "mode": int(mode)},
    )
