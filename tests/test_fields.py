"""Closed-form probe fields: tangency declarations and gradients."""

from dataclasses import replace

import numpy as np
import pytest

from capmono.fields import (
    TANGENT,
    constant_field,
    position_field,
    radial_cutoff_field,
    rotation_field,
    zero_field,
)
from capmono.geometry import Ambient


def fd_jacobian(field, points, h=1e-6):
    out = np.empty((len(points), 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[:, :, k] = (field(points + e) - field(points - e)) / (2 * h)
    return out


@pytest.mark.parametrize(
    "field",
    [
        constant_field([0.3, -1.2, 0.0]),
        position_field(),
        rotation_field([0.0, 0.0, 1.0]),
        rotation_field([1.0, 2.0, -0.5]),
        radial_cutoff_field([0.3, 0.2, 0.0], 0.5, 2.0),
        radial_cutoff_field([0.1, -0.4, 0.6], 0.4, 1.5),
    ],
)
def test_gradient_matches_finite_differences(field, rng):
    pts = rng.uniform(-2.2, 2.2, (40, 3))
    # keep clear of the cutoff kink-smoothing bands where third derivatives blow up
    analytic = field.jacobian(pts)
    numeric = fd_jacobian(field, pts)
    assert np.max(np.abs(analytic - numeric)) < 5e-5


def test_tangency_declarations():
    half = Ambient("halfspace", np.pi / 2)
    ball = Ambient("ball", np.pi / 2)
    constant_field([1.0, 0.0, 0.0]).verify_tangency(half)
    position_field().verify_tangency(half)
    rotation_field([0, 0, 1]).verify_tangency(half)
    rotation_field([0, 0, 1]).verify_tangency(ball)
    rotation_field([1, 0, 0]).verify_tangency(ball)
    zero_field().verify_tangency(half)
    assert constant_field([0, 0, 1.0]).tangency != TANGENT
    # a field declared tangent that is not is refused in both ambients
    e3 = replace(constant_field([0, 0, 1.0]), tangency=TANGENT)
    for ambient in (half, ball):
        with pytest.raises(ValueError):
            e3.verify_tangency(ambient)
    assert radial_cutoff_field([0, 0, 0.5], 0.5, 2.0).tangency != TANGENT
    assert radial_cutoff_field([0.2, 0.3, 0.0], 0.5, 2.0).tangency == TANGENT


def test_cutoff_profile_shape():
    field = radial_cutoff_field([0.0, 0.0, 0.0], 0.5, 2.0)
    inner = field(np.array([[0.1, 0.0, 0.0]]))[0]
    assert np.allclose(inner, (1 / 0.5**2 - 1 / 4.0) * np.array([0.1, 0, 0]))
    outer = field(np.array([[3.0, 0.0, 0.0]]))[0]
    assert np.allclose(outer, 0.0)
    mid = field(np.array([[1.0, 0.0, 0.0]]))[0]
    assert np.allclose(mid, (1.0 - 1 / 4.0) * np.array([1.0, 0, 0]))


def test_cutoff_continuity_across_blends():
    field = radial_cutoff_field([0.0, 0.0, 0.0], 0.5, 2.0)
    for s0 in (0.5, 2.0):
        left = field(np.array([[s0 - 1e-9, 0.0, 0.0]]))[0, 0]
        right = field(np.array([[s0 + 1e-9, 0.0, 0.0]]))[0, 0]
        assert abs(left - right) < 1e-6
