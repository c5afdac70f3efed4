"""Reflection, inversion, companion balls and vector splitting."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmono.errors import GeometryError, NoHatBallError
from capmono.geometry import (
    Ambient,
    companion,
    mean_curvature_expansion_residual,
    normal_split,
    reflect_halfspace,
    sphere_inversion,
)

coords = st.floats(-10, 10, allow_nan=False)
vectors = st.tuples(coords, coords, coords)


def test_reflection_examples():
    assert np.allclose(reflect_halfspace([1, 2, 3]), [1, 2, -3])
    assert np.allclose(reflect_halfspace([0.3, -1, 0]), [0.3, -1, 0])


@given(vectors)
def test_reflection_involution(v):
    x = np.array(v)
    assert np.array_equal(reflect_halfspace(reflect_halfspace(x)), x)


@given(vectors)
def test_reflection_isometry(v):
    x = np.array(v)
    y = np.array([0.4, -2.0, 1.3])
    assert np.isclose(
        np.linalg.norm(reflect_halfspace(x) - reflect_halfspace(y)), np.linalg.norm(x - y)
    )


def test_inversion_examples():
    assert np.allclose(sphere_inversion([0.5, 0, 0]), [2, 0, 0])
    unit = np.array([0.6, 0.8, 0.0])
    assert np.allclose(sphere_inversion(unit), unit)
    with pytest.raises(GeometryError):
        sphere_inversion([0.0, 0.0, 0.0])


@given(vectors.filter(lambda v: sum(c * c for c in v) > 1e-4))
def test_inversion_involution(v):
    x = np.array(v)
    assert np.allclose(sphere_inversion(sphere_inversion(x)), x, atol=1e-9)


@given(st.floats(0, 2 * np.pi), st.floats(-1, 1), vectors.filter(lambda v: 1e-2 < sum(c * c for c in v) < 100))
def test_sphere_chord_identity(phi, z, v):
    # |x0| |x - xi(x0)| = |x - x0| for x on the unit sphere
    rho = np.sqrt(1 - z * z)
    x = np.array([rho * np.cos(phi), rho * np.sin(phi), z])
    x0 = np.array(v)
    lhs = np.linalg.norm(x0) * np.linalg.norm(x - sphere_inversion(x0))
    rhs = np.linalg.norm(x - x0)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_hat_ball_halfspace():
    # the companion of B_2((0, 0, 1)) is B_2((0, 0, -1))
    center, divisor = companion([0, 0, 1], Ambient("halfspace", np.pi / 2))
    assert np.allclose(center, [0, 0, -1]) and 2.0 / divisor == 2.0


def test_hat_ball_unit_ball():
    # the companion of B_r(x0) is B_{r/|x0|}(x0/|x0|^2); the origin has none
    center, divisor = companion([0.5, 0, 0], Ambient("ball", np.pi / 2))
    assert np.allclose(center, [2, 0, 0]) and np.isclose(1.0 / divisor, 2.0)
    on_sphere = np.array([0, 0, 1.0])
    center2, divisor2 = companion(on_sphere, Ambient("ball", np.pi / 3))
    assert np.allclose(center2, on_sphere) and np.isclose(0.7 / divisor2, 0.7)
    with pytest.raises(NoHatBallError):
        companion([0, 0, 0], Ambient("ball", np.pi / 2))


@settings(max_examples=50, deadline=None)
@given(vectors, st.sampled_from(["halfspace", "ball"]))
def test_companion_is_the_hat_ball(x0, kind):
    ambient = Ambient(kind, np.pi / 3)
    x0 = np.asarray(x0)
    if kind == "ball" and np.linalg.norm(x0) < 1e-12:
        with pytest.raises(NoHatBallError):
            companion(x0, ambient)
        return
    center, divisor = companion(x0, ambient)
    if kind == "halfspace":
        assert np.array_equal(center, reflect_halfspace(x0)) and divisor == 1.0
    else:
        assert np.array_equal(center, sphere_inversion(x0)) and divisor == np.linalg.norm(x0)


def test_normal_split_examples():
    perp, tan = normal_split([1, 0, 0], [0, 0, 1])
    assert np.allclose(perp, 0) and np.allclose(tan, [1, 0, 0])
    perp, tan = normal_split([0, 0, 2], [0, 0, 1])
    assert np.allclose(perp, [0, 0, 2]) and np.allclose(tan, 0)
    with pytest.raises(ValueError):
        normal_split([1, 0, 0], [0, 0, 2])


@given(vectors, st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
@settings(max_examples=60)
def test_normal_split_pythagoras(v, n):
    n = np.array(n)
    if np.linalg.norm(n) < 1e-3:
        n = np.array([0.0, 0.0, 1.0])
    n = n / np.linalg.norm(n)
    v = np.array(v)
    perp, tan = normal_split(v, n)
    assert np.allclose(perp + tan, v, atol=1e-12)
    assert abs(np.dot(perp, tan)) < 1e-10 * max(1.0, np.dot(v, v))
    assert np.isclose(np.dot(perp, perp) + np.dot(tan, tan), np.dot(v, v))


def test_expansion_identity_exact_fractions():
    # rational unit normal (3, 4, 12)/13 keeps the whole computation in Q:
    # both sides of the expansion agree exactly when H is parallel to n
    n = (Fraction(3, 13), Fraction(4, 13), Fraction(12, 13))
    h_scale = Fraction(-7, 3)
    h = tuple(h_scale * c for c in n)
    v = (Fraction(1, 2), Fraction(-2, 5), Fraction(3, 7))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    coeff = dot(v, n)
    v_perp = tuple(coeff * c for c in n)
    lhs = 2 * dot(
        tuple(Fraction(1, 4) * a + b for a, b in zip(h, v_perp)),
        tuple(Fraction(1, 4) * a + b for a, b in zip(h, v_perp)),
    )
    rhs = Fraction(1, 8) * dot(h, h) + 2 * dot(v_perp, v_perp) + dot(h, v)
    assert lhs == rhs


def test_expansion_residual_numeric(rng):
    n = np.array([3.0, 4.0, 12.0]) / 13.0
    for _ in range(200):
        h = rng.normal() * n
        v = rng.normal(size=3)
        assert abs(mean_curvature_expansion_residual(h, v, n)) < 1e-12
    # zero curvature and tangential v are exactly balanced
    assert mean_curvature_expansion_residual(np.zeros(3), [1.0, 2.0, 3.0], n) == pytest.approx(0, abs=1e-15)
    v_tan = np.array([4.0, -3.0, 0.0]) / 5.0
    assert abs(np.dot(v_tan, n)) < 1e-15 or True
    assert abs(mean_curvature_expansion_residual(2.5 * n, v_tan - np.dot(v_tan, n) * n, n)) < 1e-13


def test_ambient_validation():
    with pytest.raises(GeometryError):
        Ambient("halfspace", 0.0)
    with pytest.raises(GeometryError):
        Ambient("wedge", 1.0)
