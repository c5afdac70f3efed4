"""Quadrature building blocks."""

import numpy as np

from capmono.quadrature import _unit_rule, gauss_legendre, tensor_rule


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(6, 0.0, 2.0)
    for k in range(0, 12):
        assert np.isclose(np.sum(w * x**k), 2.0 ** (k + 1) / (k + 1), rtol=1e-13)


def test_tensor_rule_area():
    u, v, w = tensor_rule(8, 8, (0, 1), (0, 2 * np.pi))
    assert np.isclose(np.sum(w), 2 * np.pi)
    assert u.shape == v.shape == w.shape == (64,)



def test_unit_rule_is_computed_once_and_shared_read_only():
    # every rule on [a, b] is mapped from the one [-1, 1] rule per n, with
    # the bits of a fresh leggauss
    first = _unit_rule(24)
    assert _unit_rule(24) is first
    assert not first[0].flags.writeable and not first[1].flags.writeable
    x, w = np.polynomial.legendre.leggauss(24)
    nodes, weights = gauss_legendre(24, 0.5, 2.0)
    assert np.array_equal(nodes, 1.25 + 0.75 * x) and np.array_equal(weights, 0.75 * w)
    assert nodes.flags.writeable and weights.flags.writeable
