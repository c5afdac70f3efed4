"""Quadrature rules: Gauss-Legendre nodes on an interval and their tensor
product on a rectangle."""

from __future__ import annotations

import numpy as np


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def tensor_rule(nu: int, nv: int, u_range=(0.0, 1.0), v_range=(0.0, 2.0 * np.pi)):
    """Tensor-product Gauss-Legendre rule on a rectangle.

    Returns flattened arrays ``(u, v, w)`` of length nu*nv.
    """
    u, wu = gauss_legendre(nu, *u_range)
    v, wv = gauss_legendre(nv, *v_range)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ww = np.outer(wu, wv)
    return uu.ravel(), vv.ravel(), ww.ravel()


def _removed(*args, **kwargs):
    raise NotImplementedError("the icosphere and plane-grid rules were removed; use tensor_rule")


# these names exist only for perfbench/tracing.py, which looks each one up
# to wrap it; no capmono code calls them
sphere_mesh = sphere_rule = barycentric_subtriangles = spherical_triangle_areas = plane_grid = _removed
