"""Quadrature building blocks."""

import numpy as np
import pytest

from capmono.quadrature import (
    barycentric_subtriangles,
    gauss_legendre,
    plane_grid,
    sphere_mesh,
    sphere_rule,
    spherical_triangle_areas,
    tensor_rule,
)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(6, 0.0, 2.0)
    for k in range(0, 12):
        assert np.isclose(np.sum(w * x**k), 2.0 ** (k + 1) / (k + 1), rtol=1e-13)


def test_tensor_rule_area():
    u, v, w = tensor_rule(8, 8, (0, 1), (0, 2 * np.pi))
    assert np.isclose(np.sum(w), 2 * np.pi)
    assert u.shape == v.shape == w.shape == (64,)


def test_sphere_rule_total_area():
    for level in (3, 5):
        pts, w = sphere_rule(level)
        assert len(pts) == 20 * 4**level
        assert np.isclose(np.sum(w), 4 * np.pi, rtol=1e-12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        # centroid symmetry of the node cloud
        assert np.allclose(np.sum(pts * w[:, None], axis=0), 0.0, atol=1e-12)


def _reference_subdivide(verts, faces):
    """Split every triangle into four, one face at a time; midpoints are
    shared through a cache and numbered as they are first met."""
    cache = {}
    verts_list = list(verts)

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        idx = cache.get(key)
        if idx is None:
            m = verts_list[i] + verts_list[j]
            m /= np.linalg.norm(m)
            idx = len(verts_list)
            verts_list.append(m)
            cache[key] = idx
        return idx

    new_faces = np.empty((4 * len(faces), 3), dtype=np.int64)
    for k, (a, b, c) in enumerate(faces):
        ab = midpoint(a, b)
        bc = midpoint(b, c)
        ca = midpoint(c, a)
        new_faces[4 * k : 4 * k + 4] = [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return np.array(verts_list), new_faces


@pytest.mark.parametrize("level", range(1, 8))
def test_sphere_mesh_matches_reference_subdivision(level):
    coarse_verts, coarse_faces, _, _ = sphere_mesh(level - 1)
    verts, faces, centroids, weights = sphere_mesh(level)
    ref_verts, ref_faces = _reference_subdivide(coarse_verts, coarse_faces)
    assert verts.dtype == ref_verts.dtype and np.array_equal(verts, ref_verts)
    assert faces.dtype == ref_faces.dtype and np.array_equal(faces, ref_faces)
    # the children of face k are faces 4k..4k+3, and they share its corners
    assert np.array_equal(faces[0::4, 0], coarse_faces[:, 0])
    assert np.array_equal(faces[1::4, 0], coarse_faces[:, 1])
    assert np.array_equal(faces[2::4, 0], coarse_faces[:, 2])
    assert centroids.shape == faces.shape and weights.shape == (len(faces),)


def test_sphere_mesh_rejects_negative_level():
    with pytest.raises(ValueError):
        sphere_mesh(-1)


def test_sphere_rule_smooth_integrand():
    pts, w = sphere_rule(5)
    val = np.sum(w * pts[:, 2] ** 2)
    assert np.isclose(val, 4 * np.pi / 3, rtol=1e-6)


def test_spherical_triangle_octant():
    a = np.array([[1.0, 0, 0]])
    b = np.array([[0, 1.0, 0]])
    c = np.array([[0, 0, 1.0]])
    assert np.isclose(spherical_triangle_areas(a, b, c)[0], np.pi / 2, rtol=1e-12)


def test_barycentric_subtriangles_partition():
    tris = barycentric_subtriangles(2)
    assert tris.shape == (16, 3, 3)
    assert np.allclose(tris.sum(axis=2), 1.0)
    # subdividing the octant face keeps the total spherical area
    verts, faces, _, _ = sphere_mesh(0)
    corners = verts[faces[0]]
    sub = np.einsum("mkb,bx->mkx", tris, corners)
    sub /= np.linalg.norm(sub, axis=-1, keepdims=True)
    total = np.sum(spherical_triangle_areas(sub[:, 0], sub[:, 1], sub[:, 2]))
    whole = spherical_triangle_areas(corners[None, 0], corners[None, 1], corners[None, 2])[0]
    assert np.isclose(total, whole, rtol=1e-12)


def test_plane_grid_layout():
    pts, cell, xs, ys = plane_grid((-1, 1, -2, 0), 16)
    assert np.isclose(cell * len(pts), 2.0 * 2.0)
    assert pts[:, 2].max() == 0.0
    assert np.isclose(pts[0, 0], xs[0]) and np.isclose(pts[0, 1], ys[0])


@pytest.mark.parametrize("bbox, n", [((-1, 1, -2, 0), 16), ((-1.37, 1.21, -0.93, 1.55), 512), ((0.0, 3.0, 0.0, 1.0), 7)])
def test_plane_nodes_are_the_meshgrid_stack(bbox, n):
    # written column by column, the nodes keep every bit and the Fortran
    # order of the meshgrid stack they replaced
    pts, _, xs, ys = plane_grid(bbox, n)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    expect = np.array([xx.ravel(), yy.ravel(), np.zeros(n * n)]).T
    assert pts.flags.f_contiguous and pts.shape == expect.shape
    assert pts.T.tobytes() == expect.T.tobytes()
