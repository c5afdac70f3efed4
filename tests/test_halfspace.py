"""Half-space monotonicity: radial pairs, two-radius identity, profiles."""

import numpy as np
import pytest

from capmono import halfspace as hs
from capmono.fields import constant_field, position_field, radial_cutoff_field, zero_field

THETA = 2 * np.pi / 3
CONTACT = np.array([np.sin(THETA), 0.0, 0.0])


def test_pair_symmetric_on_plane(stock):
    surface, region = stock.cap(THETA)
    g, g_hat = hs.probe_terms(surface, region, CONTACT).pair(1.3)
    assert g[0] == pytest.approx(g_hat[0], abs=1e-14)
    g2, g_hat2 = hs.probe_terms(surface, region, [0.4, -0.2, 0.0]).pair(0.9)
    assert g2[0] == pytest.approx(g_hat2[0], abs=1e-14)


def test_pair_large_radius_limit(stock):
    surface, region = stock.cap(np.pi / 2, res=96)
    g, g_hat = hs.probe_terms(surface, region, [1.0, 0.0, 0.0]).pair(50.0)
    assert g[0] + g_hat[0] == pytest.approx(1.0, abs=1e-2)


def test_identity_degenerate_pair_is_zero(stock):
    surface, region = stock.cap(THETA)
    assert hs.monotonicity_identity_detail(surface, region, [0.3, 0.1, 0.2], 0.8, 0.8)["residual"] == 0.0


def test_identity_on_contact_circle(stock):
    surface, region = stock.cap(THETA, res=256)
    detail = hs.monotonicity_identity_detail(surface, region, CONTACT, 0.1, 3.0)
    assert abs(detail["residual"]) < 1e-3
    # the square and deficit terms vanish at the equality configuration
    assert abs(detail["square"]) < 1e-6
    assert detail["deficit"] == 0.0


def test_identity_interior_base_point(stock):
    surface, region = stock.cap(THETA)
    detail = hs.monotonicity_identity_detail(surface, region, [0.0, 0.0, 0.5], 0.2, 2.0)
    assert abs(detail["residual"]) < 1e-3
    assert detail["deficit"] != 0.0
    detail2 = hs.monotonicity_identity_detail(surface, region, [0.31, -0.12, 0.47], 0.2, 2.0)
    assert abs(detail2["normalized"]) < 1e-3


def test_profile_monotone_obtuse(stock, rng):
    surface, region = stock.cap(THETA, res=192)
    center = np.array([0, 0, -np.cos(THETA)])
    grid = np.linspace(0.25, 4.0, 40)
    found = 0
    while found < 6:
        a = rng.uniform(-1.6, 1.6, 3)
        if abs(np.linalg.norm(a - center) - 1) < 0.2:
            continue
        if abs(np.linalg.norm(a * [1, 1, -1] - center) - 1) < 0.2:
            continue
        prof = hs.monotonicity_profile(surface, region, a, grid)
        assert prof.min_forward_difference() >= -1e-6
        found += 1


def test_profile_monotone_acute_on_plane(stock, rng):
    theta = np.pi / 3
    surface, region = stock.cap(theta, res=192, grid=768)
    center = np.array([0, 0, -np.cos(theta)])
    grid = np.linspace(0.2, 3.0, 40)
    found = 0
    while found < 6:
        a = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), 0.0])
        if abs(np.linalg.norm(a - center) - 1) < 0.25:
            continue
        prof = hs.monotonicity_profile(surface, region, a, grid)
        assert prof.min_forward_difference() >= -1e-6
        found += 1


def test_profile_remainder_decays(stock):
    surface, region = stock.cap(np.pi / 3, res=192, grid=768)
    grid = np.concatenate([np.linspace(0.05, 0.4, 8), np.linspace(5, 40, 8)])
    prof = hs.monotonicity_profile(surface, region, [0.4, 0.1, 0.0], grid)
    assert np.max(np.abs(prof.remainder[:3])) < 1e-6
    assert np.max(np.abs(prof.remainder[-3:])) < 1e-2
    # remainder tail decays like 1/r^2
    assert abs(prof.remainder[-1]) < abs(prof.remainder[-8]) / 10


def test_profile_deficit_sign(stock):
    surface, region = stock.cap(THETA)
    prof = hs.monotonicity_profile(surface, region, [0.2, 0.0, 0.5], np.linspace(0.3, 3.0, 20))
    assert np.all(prof.deficit >= 0.0)  # theta >= pi/2
    acute, acute_region = stock.cap(np.pi / 3, res=192, grid=768)
    prof2 = hs.monotonicity_profile(acute, acute_region, [0.2, 0.0, 0.5], np.linspace(0.3, 3.0, 20))
    assert np.all(prof2.deficit <= 0.0)


def test_profile_doubling_ratio(stock):
    surface, region = stock.cap(THETA)
    terms = hs.probe_terms(surface, region, [0.4, 0.1, 0.2])
    assert terms.doubling_ratio_max(np.linspace(0.3, 4.0, 20)) <= 1.0 + 1e-6


def test_boundary_limit_identity(stock):
    surface, region = stock.cap(THETA)
    assert abs(hs.boundary_limit_identity_residual(surface, region, CONTACT)) < 2e-2
    # outside the support the identity reduces to the total-energy statement
    assert abs(hs.boundary_limit_identity_residual(surface, region, [20.0, 0.0, 0.0])) < 1e-2
    with pytest.raises(ValueError):
        hs.boundary_limit_identity_residual(surface, region, [0.1, 0.0, 0.5])


def test_first_variation_constant_field(stock):
    surface, region = stock.cap(THETA)
    assert abs(hs.first_variation_residual(surface, region, constant_field([1.0, 0.0, 0.0]))) < 1e-3


def test_first_variation_cutoff_field(stock):
    surface, region = stock.cap(THETA)
    field = radial_cutoff_field([0.3, 0.2, 0.0], 0.5, 2.0)
    assert abs(hs.first_variation_residual(surface, region, field)) < 1e-3


def test_first_variation_position_field(stock):
    surface, region = stock.cap(THETA)
    assert abs(hs.first_variation_residual(surface, region, position_field())) < 1e-3


def test_first_variation_zero_field(stock):
    surface, region = stock.cap(THETA)
    assert hs.first_variation_residual(surface, region, zero_field()) == 0.0


def test_first_variation_rejects_non_tangent(stock):
    surface, region = stock.cap(THETA)
    with pytest.raises(ValueError):
        hs.first_variation_residual(surface, region, constant_field([0.0, 0.0, 1.0]))


def _same_bits(got, expect):
    return got.dtype == expect.dtype and got.shape == expect.shape and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("where", ["above-plane", "on-plane", "on-node", "above-node"])
def test_plane_eta_distances_and_deficit_are_the_offset_path_bits(stock, where):
    # the probe's squared distances and wetted deficit, summed from the two
    # node columns, keep every bit of the (n, 3) center_offsets path; on a
    # node (and above it) distances tie across the grid's symmetric nodes
    from capmono.identity import center_offsets
    from capmono.wetted import BallRestrictedEta

    surface, region = stock.cap(THETA, res=64, grid=128)
    nodes, _ = region.wetted_nodes()
    node = nodes[len(nodes) // 3]
    probe = {
        "above-plane": [0.175, -0.31, 0.8],
        "on-plane": [0.3, 0.2, 0.0],
        "on-node": node,
        "above-node": node + [0.0, 0.0, 0.5],
    }[where]
    terms = hs.probe_terms(surface, region, probe)
    a = terms.x0
    _, d2 = center_offsets(nodes, a)
    deficit = (a[2] ** 2 / np.maximum(d2**2, 1e-300)) if a[2] != 0.0 else np.zeros(len(nodes))
    assert _same_bits(hs._plane_distances2(nodes, a), d2)
    assert _same_bits(hs._wetted_deficit(d2.copy(), a[2]), deficit)
    if where.endswith("node"):
        assert d2.min() == a[2] ** 2 and len(np.unique(d2)) < len(d2)
    expect = BallRestrictedEta(region, a, {"deficit": deficit}, d2=d2)
    assert np.array_equal(terms.eta.order, expect.order) and _same_bits(terms.eta.dists, expect.dists)
    for key in ("mass", "deficit"):
        assert _same_bits(terms.eta.values[key], expect.values[key])
