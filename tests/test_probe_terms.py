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
from capmono.wetted import wetted_region

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
    # every prefix of every probe reads the surface's one set of weighted
    # sample arrays (and, in the ball, every companion prefix its one set
    # of inversion weights), and the profiles equal those of a freshly
    # sampled twin
    if ambient == "halfspace":
        mono, chart = hs, spherical_cap_halfspace(2 * np.pi / 3)
        probes = [np.array([0.3, -0.2, 0.5]), np.array([-0.4, 0.1, 0.8]), np.array([0.1, 0.6, 0.3])]
    else:
        mono, chart = bl, spherical_cap_ball(2 * np.pi / 3, np.pi / 3)
        probes = [np.array([0.2, 0.1, 0.4]), np.zeros(3), np.array([-0.1, 0.3, -0.2])]
    surface = sample_chart(chart, 32, 64)
    region = wetted_region(surface, grid_n=64, sphere_level=3)
    seen, seen_hat = [], []

    class Recording(RadialPrefix):
        def __init__(self, points, center, arrays, **kwargs):
            seen.append(arrays["h2"])
            if "x2" in arrays:
                seen_hat.append({key: arrays[key] for key in surface.inversion_arrays})
            super().__init__(points, center, arrays, **kwargs)

    monkeypatch.setattr(mono, "RadialPrefix", Recording)
    profiles = [mono.monotonicity_profile(surface, region, x0, GRID) for x0 in probes]
    assert len(seen) >= len(probes)
    assert all(h2 is seen[0] for h2 in seen)
    # the two probes off the origin each build one companion prefix
    assert len(seen_hat) == (2 if ambient == "ball" else 0)
    for hat in seen_hat:
        assert all(hat[key] is arr for key, arr in surface.inversion_arrays.items())
    for x0, profile in zip(probes, profiles):
        _assert_same_profile(profile, mono.monotonicity_profile(sample_chart(chart, 32, 64), region, x0, GRID))
    with pytest.raises(ValueError):
        surface.mu_arrays["h2"][0] = 0.0
    with pytest.raises(TypeError):
        surface.mu_arrays["h2"] = np.zeros(len(surface.points))
    with pytest.raises(ValueError):
        surface.inversion_arrays["x2"][0] = 0.0
    with pytest.raises(TypeError):
        surface.inversion_arrays["x2"] = np.zeros(len(surface.points))


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
        surface, region = stock.capball(w.run["theta"], w.run["colatitude"], quad["nu"], quad["nv"], quad["sphere_level"])
    else:
        assert quad["nu"] == quad["nv"]
        mono = hs
        surface, region = stock.cap(w.run["theta"], res=quad["nu"], grid=quad["plane_grid"])
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
