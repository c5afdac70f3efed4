"""Quadrature building blocks."""

import numpy as np

from capmono.quadrature import gauss_legendre, tensor_rule


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(6, 0.0, 2.0)
    for k in range(0, 12):
        assert np.isclose(np.sum(w * x**k), 2.0 ** (k + 1) / (k + 1), rtol=1e-13)


def test_tensor_rule_area():
    u, v, w = tensor_rule(8, 8, (0, 1), (0, 2 * np.pi))
    assert np.isclose(np.sum(w), 2 * np.pi)
    assert u.shape == v.shape == w.shape == (64,)

