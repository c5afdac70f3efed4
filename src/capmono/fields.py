"""Closed-form vector fields with gradients, used to probe first-variation
formulas.

Every field carries its Jacobian so surface and wetting divergences can be
assembled without finite differences.  A field is either declared tangent
to the wetting surface or free; the declaration can be spot-checked by
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Ambient, HALFSPACE, hermite_basis

TANGENT = "tangent_to_wetting"
FREE = "free"
# the blends of the radial cutoff's two kinks span this multiple of sigma
_CUTOFF_WIDTH = 0.05


@dataclass(frozen=True)
class TestVectorField:
    """Vector field X with closed-form Jacobian grad X.

    ``func`` maps an (n, 3) array to an (n, 3) array; ``grad`` maps it to
    an (n, 3, 3) array with grad[i, j, k] = dX_j/dx_k at point i.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    tangency: str = FREE

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.func(np.atleast_2d(np.asarray(points, dtype=float)))

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        return self.grad(np.atleast_2d(np.asarray(points, dtype=float)))

    def tangency_defect(self, ambient: Ambient) -> float:
        """Max |X . n_wetting| over a deterministic sample of the wetting surface."""
        rng = np.random.default_rng(20240901)
        if ambient.kind == HALFSPACE:
            pts = np.stack([rng.uniform(-3, 3, 2000), rng.uniform(-3, 3, 2000), np.zeros(2000)], axis=1)
            return float(np.max(np.abs(self(pts)[:, 2])))
        pts = rng.standard_normal((2000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return float(np.max(np.abs(np.sum(self(pts) * pts, axis=1))))

    def verify_tangency(self, ambient: Ambient) -> None:
        if self.tangency == TANGENT and self.tangency_defect(ambient) > 1e-10:
            raise ValueError(f"field {self.name!r} declared tangent but is not")


def constant_field(v) -> TestVectorField:
    v = np.asarray(v, dtype=float)
    tang = TANGENT if abs(v[2]) < 1e-15 else FREE

    def func(p):
        return np.broadcast_to(v, p.shape).copy()

    def grad(p):
        return np.zeros((len(p), 3, 3))

    return TestVectorField("constant", func, grad, tang)


def position_field() -> TestVectorField:
    """X(x) = x.  Tangent to the plane, free on the sphere."""

    def func(p):
        return p.copy()

    def grad(p):
        return np.broadcast_to(np.eye(3), (len(p), 3, 3)).copy()

    # Tangent to {x3=0} since X3 = x3 vanishes there; callers in the ball
    # use it as the free field of the balance law.
    return TestVectorField("position", func, grad, TANGENT)


def rotation_field(axis) -> TestVectorField:
    """X(x) = e x x for a unit axis e; tangent to every sphere about 0."""
    e = np.asarray(axis, dtype=float)
    e = e / np.linalg.norm(e)
    skew = np.array([[0, -e[2], e[1]], [e[2], 0, -e[0]], [-e[1], e[0], 0]])

    def func(p):
        return np.cross(np.broadcast_to(e, p.shape), p)

    def grad(p):
        return np.broadcast_to(skew, (len(p), 3, 3)).copy()

    tang = TANGENT if abs(e[0]) < 1e-15 and abs(e[1]) < 1e-15 else FREE
    return TestVectorField("rotation", func, grad, tang)


def _smoothed_cutoff(sigma: float, rho: float):
    """C^1 version of s -> (1/max(s,sigma)^2 - 1/rho^2)_+ .

    The two kinks (at sigma and rho) are replaced by cubic Hermite blends
    over intervals of total width ``_CUTOFF_WIDTH * sigma``; returns
    callables (l, dl) vectorized over arrays.
    """
    d = 0.5 * _CUTOFF_WIDTH * sigma
    cap = 1.0 / sigma**2 - 1.0 / rho**2

    def hermite(s, s0, s1, f0, f1, df0, df1):
        h = s1 - s0
        basis, slope = hermite_basis((s - s0) / h)
        ends = np.array([f0, h * df0, f1, h * df1])
        return ends @ basis, ends @ slope / h

    def raw(s):
        return 1.0 / s**2 - 1.0 / rho**2

    def draw(s):
        return -2.0 / s**3

    def l(s):
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        dout = np.empty_like(s)
        flat = s < sigma - d
        blend1 = (s >= sigma - d) & (s < sigma + d)
        mid = (s >= sigma + d) & (s < rho - d)
        blend2 = (s >= rho - d) & (s < rho + d)
        out[flat] = cap
        dout[flat] = 0.0
        v, dv = hermite(s[blend1], sigma - d, sigma + d, cap, raw(sigma + d), 0.0, draw(sigma + d))
        out[blend1], dout[blend1] = v, dv
        out[mid] = raw(s[mid])
        dout[mid] = draw(s[mid])
        v, dv = hermite(s[blend2], rho - d, rho + d, raw(rho - d), 0.0, draw(rho - d), 0.0)
        out[blend2], dout[blend2] = v, dv
        far = s >= rho + d
        out[far] = 0.0
        dout[far] = 0.0
        return out, dout

    return l


def radial_cutoff_field(a, sigma: float, rho: float) -> TestVectorField:
    """X(x) = l(|x - a|) (x - a) with the C^1-smoothed truncation profile l.

    The sharp Lipschitz profile used in the derivations is quadrature-hostile
    under differencing, so the kinks are eased over ``_CUTOFF_WIDTH *
    sigma``.  The field is tangent to the plane exactly when a3 = 0.
    """
    a = np.asarray(a, dtype=float)
    if not 0.0 < sigma < rho:
        raise ValueError("need 0 < sigma < rho")
    l = _smoothed_cutoff(sigma, rho)

    def func(p):
        y = p - a
        s = np.linalg.norm(y, axis=1)
        val, _ = l(np.maximum(s, 1e-300))
        return val[:, None] * y

    def grad(p):
        y = p - a
        s = np.maximum(np.linalg.norm(y, axis=1), 1e-300)
        val, dval = l(s)
        eye = np.broadcast_to(np.eye(3), (len(p), 3, 3))
        outer = y[:, :, None] * y[:, None, :]
        return val[:, None, None] * eye + (dval / s)[:, None, None] * outer

    tang = TANGENT if abs(a[2]) < 1e-15 else FREE
    return TestVectorField("radial_cutoff", func, grad, tang)


def zero_field() -> TestVectorField:
    def func(p):
        return np.zeros_like(p)

    def grad(p):
        return np.zeros((len(p), 3, 3))

    return TestVectorField("zero", func, grad, TANGENT)
