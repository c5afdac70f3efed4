"""Shared builders for sampled surfaces and wetted regions.

Surfaces and their wetted regions are the expensive parts of the suite, so
tests share memoized instances through the session-scoped ``stock`` fixture.
"""

import numpy as np
import pytest

from capmono.surfaces import (
    geodesic_disk_ball,
    perturb_chart,
    sample_chart,
    spherical_cap_ball,
    spherical_cap_halfspace,
)
from capmono.wetted import wetted_region


class Stock:
    def __init__(self):
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def cap(self, theta, res=128):
        def build():
            surface = sample_chart(spherical_cap_halfspace(theta), res, res)
            return surface, wetted_region(surface)

        return self._get(("cap", round(theta, 12), res), build)

    def perturbed_cap(self, theta, amplitude, mode, res=128):
        def build():
            chart = perturb_chart(spherical_cap_halfspace(theta), amplitude, mode)
            surface = sample_chart(chart, res, res)
            return surface, wetted_region(surface)

        return self._get(("pcap", round(theta, 12), amplitude, mode, res), build)

    def disk(self, theta, nu=96, nv=256):
        def build():
            surface = sample_chart(geodesic_disk_ball(theta), nu, nv)
            return surface, wetted_region(surface)

        return self._get(("disk", round(theta, 12), nu, nv), build)

    def capball(self, theta, colatitude, nu=96, nv=256):
        def build():
            surface = sample_chart(spherical_cap_ball(theta, colatitude), nu, nv)
            return surface, wetted_region(surface)

        return self._get(("capball", round(theta, 12), round(colatitude, 12), nu, nv), build)


@pytest.fixture(scope="session")
def stock():
    return Stock()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
