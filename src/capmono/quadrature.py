"""Quadrature rules: Gauss-Legendre tensor grids, a subdivided-icosahedron
rule on the unit sphere, and a uniform cell grid on the plane.

The sphere rule uses face centroids of a refined icosahedron with exact
spherical-triangle areas as weights; the weights are nearly equal and sum
to 4*pi to rounding.
"""

from __future__ import annotations

from functools import lru_cache

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


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every triangle into four at its normalized edge midpoints.

    Face k becomes faces 4k..4k+3: (a, ab, ca), (b, bc, ab), (c, ca, bc) and
    (ab, bc, ca).  Each edge gets one shared midpoint, numbered after the
    old vertices in the order the edges first occur when the faces are read
    in order and each face as ab, bc, ca.
    """
    n = len(verts)
    ends = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
    keys = np.min(ends, axis=1) * n + np.max(ends, axis=1)
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    ab, bc, ca = (n + rank[inv.ravel()]).reshape(-1, 3).T
    i, j = ends[first[order]].T
    m = verts[i] + verts[j]
    # a batched dot per row rounds as the 1-d norm of each midpoint does;
    # np.linalg.norm(m, axis=1) sums the squares differently and can differ
    # from it in the last bit
    m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
    a, b, c = faces.T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.concatenate([verts, m]), new_faces


# perfbench/tracing.py wraps this name, as it does barycentric_subtriangles
def spherical_triangle_areas(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Areas of spherical triangles on the unit sphere (L'Huilier)."""
    sa = np.arccos(np.clip(np.sum(b * c, axis=-1), -1.0, 1.0))
    sb = np.arccos(np.clip(np.sum(c * a, axis=-1), -1.0, 1.0))
    sc = np.arccos(np.clip(np.sum(a * b, axis=-1), -1.0, 1.0))
    s = 0.5 * (sa + sb + sc)
    t = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - sa))
        * np.tan(0.5 * (s - sb))
        * np.tan(0.5 * (s - sc))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))


@lru_cache(maxsize=None)
def sphere_mesh(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Subdivided icosahedron: vertices, faces, face centroids and areas.

    Level l is built from level l - 1, so every coarser level is cached
    with it; the children of face k are faces 4k..4k+3 of the next level.
    """
    if level < 0:
        raise ValueError(f"sphere level must be non-negative, got {level}")
    if level == 0:
        verts, faces = _icosahedron()
    else:
        verts, faces = _subdivide(*sphere_mesh(level - 1)[:2])
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    centroids = a + b + c
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    weights = spherical_triangle_areas(a, b, c)
    return verts, faces, centroids, weights


def sphere_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on the unit sphere from a level-times subdivided icosahedron.

    Nodes are face centroids projected to the sphere, weights the exact
    spherical areas of the faces (20 * 4**level nodes; level 6 is ~82k).
    """
    _, _, centroids, weights = sphere_mesh(level)
    return centroids, weights


# no capmono code calls this; perfbench/tracing.py wraps it under this name
def barycentric_subtriangles(depth: int) -> np.ndarray:
    """Barycentric corner triples of the 4**depth regular subtriangles."""
    tris = [np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])]
    for _ in range(depth):
        nxt = []
        for t in tris:
            a, b, c = t
            ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
            nxt.extend(
                [
                    np.array([a, ab, ca]),
                    np.array([b, bc, ab]),
                    np.array([c, ca, bc]),
                    np.array([ab, bc, ca]),
                ]
            )
        tris = nxt
    return np.array(tris)


# no capmono code calls this; perfbench/tracing.py wraps it under this name
def plane_grid(bbox: tuple[float, float, float, float], n: int):
    """Uniform midpoint grid on a rectangle of the plane {x3 = 0}.

    Returns ``(points, cell_area, xs, ys)``: the cell-center axes of the
    uniform n x n grid and its (n * n, 3) cell centers at x3 = 0, raveled in
    ``meshgrid(xs, ys, indexing='ij')`` order.  The points are
    Fortran-ordered, each coordinate one contiguous column.
    """
    x0, x1, y0, y1 = bbox
    hx = (x1 - x0) / n
    hy = (y1 - y0) / n
    xs = x0 + hx * (np.arange(n) + 0.5)
    ys = y0 + hy * (np.arange(n) + 0.5)
    pts = np.empty((3, n, n))
    pts[0] = xs[:, None]
    pts[1] = ys[None, :]
    pts[2] = 0.0
    return pts.reshape(3, -1).T, hx * hy, xs, ys
