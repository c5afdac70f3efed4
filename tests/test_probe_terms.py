"""One restriction state per probe: shared terms give the bytes of fresh calls."""

import copy
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from capmono import ball as bl
from capmono import halfspace as hs
from capmono.identity import nudge_off_samples
from capmono.radial import RadialPrefix
from capmono.surfaces import sample_chart, spherical_cap_ball, spherical_cap_halfspace
from capmono.wetted import WettedRegion, wetted_region

PAIRS = ((0.4, 1.5), (0.5, 2.0))
GRID = np.linspace(0.3, 2.5, 12)


def _assert_same_profile(got, expect):
    for f in dataclasses.fields(expect):
        a, b = getattr(got, f.name), getattr(expect, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _check_shared(mono, surface, region, x0):
    fresh_profile = mono.monotonicity_profile(surface, region, x0, GRID)
    fresh = [mono.monotonicity_identity_detail(surface, region, x0, s, r) for s, r in PAIRS]
    # one detail before the profile and one after, on the same terms: the
    # per-radius corrections cached in between must not depend on call order
    terms = mono.probe_terms(surface, region, x0)
    first = mono.monotonicity_identity_detail(surface, region, x0, *PAIRS[0], terms=terms)
    profile = mono.monotonicity_profile(surface, region, x0, GRID, terms=terms)
    second = mono.monotonicity_identity_detail(surface, region, x0, *PAIRS[1], terms=terms)
    _assert_same_profile(profile, fresh_profile)
    assert [first, second] == fresh
    return terms


@pytest.mark.parametrize("where", ["interior", "on-sample"])
def test_halfspace_shared_terms_match_fresh_calls(stock, where):
    surface, region = stock.cap(2 * np.pi / 3)
    x0 = np.array([0.3, -0.2, 0.5]) if where == "interior" else surface.boundary_points[5].copy()
    nudged = not np.array_equal(nudge_off_samples(surface, x0), x0)
    assert nudged == (where == "on-sample")
    terms = _check_shared(hs, surface, region, x0)
    assert isinstance(terms, hs._Terms)


@pytest.mark.parametrize("where", ["interior", "on-sample", "origin"])
def test_ball_shared_terms_match_fresh_calls(stock, where):
    surface, region = stock.capball(2 * np.pi / 3, np.pi / 3)
    x0 = {
        "interior": np.array([0.2, 0.1, 0.4]),
        "on-sample": surface.points[1000].copy(),
        "origin": np.zeros(3),
    }[where]
    nudged = not np.array_equal(nudge_off_samples(surface, x0), x0)
    assert nudged == (where == "on-sample")
    terms = _check_shared(bl, surface, region, x0)
    assert isinstance(terms, bl._OriginTerms if where == "origin" else bl._BallTerms)


@pytest.mark.parametrize("ambient", ["halfspace", "ball-interior", "ball-origin"])
def test_terms_of_another_probe_are_refused(stock, ambient):
    if ambient == "halfspace":
        mono, (surface, region) = hs, stock.cap(2 * np.pi / 3)
        x0 = np.array([0.3, -0.2, 0.5])
    else:
        mono, (surface, region) = bl, stock.capball(2 * np.pi / 3, np.pi / 3)
        x0 = np.zeros(3) if ambient == "ball-origin" else np.array([0.2, 0.1, 0.4])
    terms = mono.probe_terms(surface, region, x0)
    other = x0 + np.array([0.0, 0.0, 0.1])
    with pytest.raises(ValueError, match="another surface or base point"):
        mono.monotonicity_profile(surface, region, other, GRID, terms=terms)
    with pytest.raises(ValueError, match="another surface or base point"):
        mono.monotonicity_identity_detail(surface, region, other, *PAIRS[0], terms=terms)
    twin = copy.copy(surface)
    with pytest.raises(ValueError, match="another surface or base point"):
        mono.monotonicity_identity_detail(twin, region, x0, *PAIRS[0], terms=terms)
    # the profile reports the probe the terms were built for, origin included
    profile = mono.monotonicity_profile(surface, region, list(x0), GRID, terms=terms)
    assert np.array_equal(profile.base_point, mono.monotonicity_profile(surface, region, x0, GRID).base_point)


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_mu_arrays_computed_once_per_surface(monkeypatch, ambient):
    # every prefix of every probe reads the keys it shares with the
    # surface's one set of weighted sample arrays by identity, and holds
    # its own coupling hxc = H.(x - c) w about its center c (the origin
    # prefix too); in the ball every companion prefix adds only the shared
    # hx and its own two position integrands.  Every key is one value per
    # sample.  The profiles equal those of a freshly sampled twin
    if ambient == "halfspace":
        mono, chart = hs, spherical_cap_halfspace(2 * np.pi / 3)
        probes = [np.array([0.3, -0.2, 0.5]), np.array([-0.4, 0.1, 0.8]), np.array([0.1, 0.6, 0.3])]
    else:
        mono, chart = bl, spherical_cap_ball(2 * np.pi / 3, np.pi / 3)
        probes = [np.array([0.2, 0.1, 0.4]), np.zeros(3), np.array([-0.1, 0.3, -0.2])]
    surface = sample_chart(chart, 32, 64)
    region = wetted_region(surface)
    seen = []

    class Recording(RadialPrefix):
        def __init__(self, points, center, arrays, **kwargs):
            seen.append((np.array(center, dtype=float), arrays))
            super().__init__(points, center, arrays, **kwargs)

    monkeypatch.setattr(mono, "RadialPrefix", Recording)
    profiles = [mono.monotonicity_profile(surface, region, x0, GRID) for x0 in probes]
    shared = surface.mu_arrays
    assert set(shared) == {"mass", "h2", "hx"}
    assert all(arr.shape == (len(surface.points),) for arr in shared.values())
    assert not hasattr(surface, "inversion_arrays")
    # a direct and a companion prefix per probe, one prefix at the origin
    assert len(seen) == (6 if ambient == "halfspace" else 5)
    pts, nu, w, h = surface.points, surface.normals, surface.weights, surface.mean_curvature
    couplings = []
    for center, arrays in seen:
        assert all(np.ndim(arr) == 1 for arr in arrays.values())
        assert all(arrays[key] is shared[key] for key in set(arrays) & set(shared))
        rel = pts - center
        d2 = np.sum(rel * rel, axis=1)
        if "pos" in arrays:
            assert set(arrays) == {"mass", "h2", "sq", "hxc", "hx", "pos", "hpos"}
            tangential = np.sum(pts * rel, axis=1) - np.sum(pts * nu, axis=1) * np.sum(nu * rel, axis=1)
            np.testing.assert_allclose(arrays["pos"], (d2 + tangential) * w, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(arrays["hpos"], d2 * shared["hx"], rtol=1e-12, atol=1e-15)
        else:
            assert set(arrays) == {"mass", "h2", "sq", "hxc"}
        np.testing.assert_allclose(arrays["hxc"], np.sum(h * rel, axis=1) * w, rtol=1e-12, atol=1e-15)
        couplings.append(arrays["hxc"])
    assert len({id(arr) for arr in couplings}) == len(couplings) == len(seen)
    # the ball's two companion prefixes
    assert sum("pos" in arrays for _, arrays in seen) == (0 if ambient == "halfspace" else 2)
    for x0, profile in zip(probes, profiles):
        _assert_same_profile(profile, mono.monotonicity_profile(sample_chart(chart, 32, 64), region, x0, GRID))
    with pytest.raises(ValueError):
        surface.mu_arrays["h2"][0] = 0.0
    with pytest.raises(TypeError):
        surface.mu_arrays["h2"] = np.zeros(len(surface.points))


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_another_probe_never_asks_for_the_full_grid_weights(monkeypatch, ambient):
    # the first probe places the region's curve atoms (and on the sphere
    # reads |T|); every later probe restricts η over those, placing
    # nothing, and no probe asks the region for a grid
    if ambient == "halfspace":
        mono, chart = hs, spherical_cap_halfspace(2 * np.pi / 3)
        probes = [np.array([0.3, -0.2, 0.5]), np.array([-0.4, 0.1, 0.8]), np.array([0.1, 0.6, 0.0])]
    else:
        mono, chart = bl, spherical_cap_ball(2 * np.pi / 3, np.pi / 3)
        probes = [np.array([0.2, 0.1, 0.4]), np.array([-0.1, 0.3, -0.2]), np.array([0.0, 0.6, 0.8])]
    surface = sample_chart(chart, 32, 64)
    region = wetted_region(surface)
    calls = []
    grid = WettedRegion.grid
    monkeypatch.setattr(WettedRegion, "grid", lambda self: calls.append(self) or grid(self))
    mono.probe_terms(surface, region, probes[0])
    cached = dict(region._cache)
    atoms = len(region.curve_atoms()[0])
    assert atoms == 8 * len(surface.boundary_points)
    for x0 in probes[1:]:
        terms = mono.probe_terms(surface, region, x0)
        etas = [terms.eta] if ambient == "halfspace" else [terms.eta, terms.eta_hat]
        assert [eta.n for eta in etas] == [atoms] * len(etas)
    assert region._cache.keys() == cached.keys()
    assert all(region._cache[key] is value for key, value in cached.items())
    assert calls == []


def _bench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# the probes scripts/output_digests.py adds: the ball's origin branch and a
# half-space probe on the x1 axis, where distances tie
_EXTRA_PROBES = {"ball-cap": [(0.0, 0.0, 0.0)], "halfspace-cap": [(0.175, 0.0, 0.8)], "probe-sweep": []}


@pytest.mark.parametrize("name", sorted(_EXTRA_PROBES))
def test_pair_residuals_do_not_depend_on_a_profile_first(stock, name):
    # monotonicity evaluates each probe's pairs after its profile, on the
    # same terms, and identity-suite on terms that served no profile; the
    # pair residuals companion lets the suite read the former for the
    # latter, so the two must agree bit for bit
    workloads = _bench_workloads()
    w = workloads.WORKLOADS[name]
    quad = w.quadrature
    if w.run["ambient"] == "ball":
        mono = bl
        surface, region = stock.capball(w.run["theta"], w.run["colatitude"], quad["nu"], quad["nv"])
    else:
        assert quad["nu"] == quad["nv"]
        mono = hs
        surface, region = stock.cap(w.run["theta"], res=quad["nu"])
    grid = np.linspace(w.r_min, w.r_max, w.r_count)
    for probe in [*workloads.probes(w, 1), *_EXTRA_PROBES[name]]:
        probe = np.array(probe)
        after = mono.probe_terms(surface, region, probe)
        mono.monotonicity_profile(surface, region, probe, grid, terms=after)
        alone = mono.probe_terms(surface, region, probe)
        for sigma, rho in w.pairs:
            got = mono.monotonicity_identity_detail(surface, region, probe, sigma, rho, terms=after)["residual"]
            expect = mono.monotonicity_identity_detail(surface, region, probe, sigma, rho, terms=alone)["residual"]
            assert np.float64(got).tobytes() == np.float64(expect).tobytes(), (probe, sigma, rho)


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_coupling_integrand_matches_the_contracted_form(ambient):
    # hxc = H.(x - c) w restricted about c equals, to rounding, the
    # reference form: H.x w and the three columns of H w restricted about c
    # and contracted with c after every window, on both members of both
    # ambients
    if ambient == "halfspace":
        mono, chart, x0 = hs, spherical_cap_halfspace(2 * np.pi / 3), np.array([0.3, -0.2, 0.5])
    else:
        mono, chart, x0 = bl, spherical_cap_ball(2 * np.pi / 3, np.pi / 3), np.array([0.2, 0.1, 0.4])
    surface = sample_chart(chart, 32, 64)
    terms = mono.probe_terms(surface, wetted_region(surface), x0)
    r = np.linspace(0.2, 2.5, 24)
    w = terms.halfwidth(r)
    d = terms.divisor
    hw = surface.mean_curvature * surface.weights[:, None]
    keys = {"hx": surface.mu_arrays["hx"], **{f"h{k}": hw[:, k] for k in range(3)}}
    members = ((terms.x0, (r, w), terms.mu), (terms.x0_hat, (r / d, w / d), terms.mu_hat))
    couplings = []
    for center, (rc, wc), prefix in members:
        old = RadialPrefix(surface.points, center, keys)
        contracted = old.windowed_over_r2("hx", rc, wc) - sum(
            old.windowed_over_r2(f"h{k}", rc, wc) * center[k] for k in range(3)
        )
        got = prefix.windowed_over_r2("hxc", rc, wc)
        assert np.max(np.abs(got - contracted)) <= 1e-12 * np.max(np.abs(contracted))
        couplings.append(contracted / (2 * np.pi))
    # the evaluator's coupling rows are those two reads over 2 pi
    rows = [row for row in terms.TABLE if row.key == "hxc"]
    assert [row.member for row in rows] == ["g", "g_hat"]
    got = terms.members(r, rows)
    for member, expect in zip(("g", "g_hat"), couplings):
        assert np.max(np.abs(got[member] - expect)) <= 1e-12 * np.max(np.abs(expect))
