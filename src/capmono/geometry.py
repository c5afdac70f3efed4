"""Elementary Euclidean geometry of the two ambient configurations.

Reflection across the boundary plane of the upper half-space, spherical
inversion across the unit sphere, the companion (reflected/inverted) ball
of a ball about a point, and tangential/normal splitting of vectors.  Everything here is a pure
function on double-precision vectors; identities are exact to about 1e-12
for O(1) inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import GeometryError, NoHatBallError

E3 = np.array([0.0, 0.0, 1.0])

HALFSPACE = "halfspace"
BALL = "ball"

AmbientKind = Literal["halfspace", "ball"]


@dataclass(frozen=True)
class Ambient:
    """Ambient configuration: which container and which contact angle.

    ``kind`` is ``"halfspace"`` (surface in the closed upper half-space,
    wetting surface = the plane x3 = 0) or ``"ball"`` (surface in the closed
    unit ball, wetting surface = the unit sphere).  ``theta`` is the contact
    angle in radians, strictly inside (0, pi).
    """

    kind: AmbientKind
    theta: float

    def __post_init__(self):
        if self.kind not in (HALFSPACE, BALL):
            raise GeometryError(f"unknown ambient kind {self.kind!r}")
        if not (0.0 < self.theta < np.pi):
            raise GeometryError(f"contact angle must lie in (0, pi), got {self.theta}")


def reflect_halfspace(x) -> np.ndarray:
    """Reflect across the plane {x3 = 0}: x -> x - 2 x3 e3.

    Acts on a single point or an (n, 3) array.
    """
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 2] = -out[..., 2]
    return out


def sphere_inversion(x) -> np.ndarray:
    """Invert across the unit sphere: x -> x / |x|^2.

    Rejects inputs with |x| < 1e-12; the origin belongs to a separate
    analytic branch downstream, never to this map.
    """
    x = np.asarray(x, dtype=float)
    n2 = np.sum(x * x, axis=-1, keepdims=True)
    if np.any(n2 < 1e-24):
        raise GeometryError("sphere inversion undefined at (or too near) the origin")
    return x / n2


def companion(x0, ambient: Ambient) -> tuple[np.ndarray, float]:
    """Center and radius divisor of the companion of balls about x0.

    The companion of B_r(x0) is the ball of radius r / divisor about the
    returned center.  Half-space: the reflected center with divisor 1.
    Unit ball: the inversion of x0 with divisor |x0|; the origin has no
    companion and raises :class:`NoHatBallError`.
    """
    x0 = np.asarray(x0, dtype=float)
    if ambient.kind == HALFSPACE:
        return reflect_halfspace(x0), 1.0
    n = float(np.linalg.norm(x0))
    if n < 1e-12:
        raise NoHatBallError(
            "no companion ball for the origin; use the dedicated origin formulas"
        )
    return sphere_inversion(x0), n


def normal_split(v, unit_normal) -> tuple[np.ndarray, np.ndarray]:
    """Split v into parts normal and tangent to a unit normal.

    Returns ``(v_perp, v_tan)`` with ``v_perp = (v . n) n``.  Vectorized over
    leading axes.  The normal must be unit to 1e-12.
    """
    v = np.asarray(v, dtype=float)
    n = np.asarray(unit_normal, dtype=float)
    norms = np.linalg.norm(n, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError("normal_split requires a unit normal (|n| = 1 within 1e-12)")
    coeff = np.sum(v * n, axis=-1, keepdims=True)
    v_perp = coeff * n
    return v_perp, v - v_perp


def mean_curvature_expansion_residual(h_vec, v, unit_normal) -> float:
    """Residual of 2|H/4 + v_perp|^2 = |H|^2/8 + 2|v_perp|^2 + H.v.

    The expansion holds whenever the curvature vector is parallel to the
    normal (so H.v = H.v_perp); the residual is returned signed so callers
    can probe violations for non-perpendicular inputs.
    """
    h_vec = np.asarray(h_vec, dtype=float)
    v = np.asarray(v, dtype=float)
    v_perp, _ = normal_split(v, unit_normal)
    lhs = 2.0 * np.sum((0.25 * h_vec + v_perp) ** 2, axis=-1)
    rhs = (
        np.sum(h_vec * h_vec, axis=-1) / 8.0
        + 2.0 * np.sum(v_perp * v_perp, axis=-1)
        + np.sum(h_vec * v, axis=-1)
    )
    return lhs - rhs
