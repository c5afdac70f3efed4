"""Single-pass radial binning for ball-restricted integrals.

Samples are sorted by distance from a base point once; every radius on a
grid then reads off a prefix sum.  Integrands linear in the base point are
decomposed so that one sort serves the whole family.

Sharp restriction of an atomic sample measure to a ball is a staircase in
the radius; where sample rings align with the cut sphere the steps are a
visible fraction of the local mass.  ``windowed`` therefore returns the
exact average of the sharp cumulative over [r - w, r + w], which two
prefix lookups provide in closed form; averaging over a window of a few
local sample spacings removes the staircase at second order and commutes
with every identity checked downstream (the identities hold at each
radius, hence for radius averages).

The wetted measure η is restricted by the same engine:
``wetted.BallRestrictedEta`` is a ``RadialPrefix`` over the grid nodes.
"""

from __future__ import annotations

import numpy as np

from .geometry import rowdot


class RadialPrefix:
    """Prefix sums of weighted sample quantities by distance from a center.

    ``order`` sorts the samples by distance; ``dists`` and ``values`` are in
    that order.  A caller that already holds the squared distances
    |x - c|^2 of the points passes them as ``d2``, so each center costs one
    distance pass.  A key's plain prefix is built with the object, its f.d
    and f/d prefixes (read by the two windows) on their first read.  An
    object belongs to one probe and is never shared across worker threads,
    so the lazily filled dict needs no lock.
    """

    def __init__(self, points: np.ndarray, center, arrays: dict[str, np.ndarray], *, d2=None):
        self.center = np.asarray(center, dtype=float)
        if d2 is None:
            rel = points - self.center
            d2 = rowdot(rel, rel)
        d = np.sqrt(d2)
        self.order = np.argsort(d, kind="stable")
        self.dists = np.take(d, self.order)
        self.n = len(self.dists)
        self.values = {
            key: np.take(np.asarray(arr, dtype=float), self.order, axis=0) for key, arr in arrays.items()
        }
        self._prefix = {key: _prefix(arr) for key, arr in self.values.items()}
        self._moments: dict = {}

    def _moment(self, key: str, power: int) -> np.ndarray:
        """Prefix of the key's values times d (power 1) or 1/d (power -1)."""
        if (key, power) not in self._moments:
            arr = self.values[key]
            scale = self.dists if power > 0 else 1.0 / np.maximum(self.dists, 1e-12)
            self._moments[key, power] = _prefix(arr * (scale if arr.ndim == 1 else scale[:, None]))
        return self._moments[key, power]

    def cumulative(self, key: str, r) -> np.ndarray:
        """Sharp sum of the keyed quantity over samples with distance < r."""
        idx = np.searchsorted(self.dists, np.asarray(r, dtype=float), side="left")
        return self._prefix[key][idx]

    def windowed(self, key: str, r, halfwidth) -> np.ndarray:
        """Average of the sharp cumulative over radii [r - w, r + w].

        Equals sum_i f_i * clip((r + w - d_i) / (2w), 0, 1); reduces to the
        sharp sum at w = 0.
        """
        r = np.asarray(r, dtype=float)
        w = np.asarray(halfwidth, dtype=float)
        if np.all(w <= 0):
            return self.cumulative(key, r)
        lo = np.searchsorted(self.dists, r - w, side="left")
        hi = np.searchsorted(self.dists, r + w, side="left")
        full = self._prefix[key][lo]
        band_f = self._prefix[key][hi] - self._prefix[key][lo]
        prefix_d = self._moment(key, 1)
        band_fd = prefix_d[hi] - prefix_d[lo]
        scale = np.maximum(2.0 * w, 1e-300)
        if self._prefix[key].ndim == 1:
            return full + ((r + w) * band_f - band_fd) / scale
        return full + ((r + w)[..., None] * band_f - band_fd) / scale[..., None]

    def windowed_over_r2(self, key: str, r, halfwidth) -> np.ndarray:
        """Average of (sharp cumulative) / s^2 over radii s in [r - w, r + w].

        The cumulative is a step function, so the average has the closed
        form (1/2w) [ P(lo) (1/lo - 1/hi) + (P_inv(hi) - P_inv(lo))
        - (P(hi) - P(lo))/hi ] with P_inv the prefix of f/d.  Entries with
        w <= 0 get the sharp M(r)/r^2.
        """
        r, w = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(halfwidth, dtype=float))
        sharp = w <= 0
        if np.all(sharp):
            return self._sharp_over_r2(key, r)
        lo_r = np.maximum(r - w, 1e-300)
        hi_r = r + w
        lo = np.searchsorted(self.dists, lo_r, side="left")
        hi = np.searchsorted(self.dists, hi_r, side="left")
        p_lo = self._prefix[key][lo]
        p_hi = self._prefix[key][hi]
        prefix_invd = self._moment(key, -1)
        pi_lo = prefix_invd[lo]
        pi_hi = prefix_invd[hi]
        vec = self._prefix[key].ndim > 1
        inv_lo = (1.0 / lo_r)[..., None] if vec else 1.0 / lo_r
        inv_hi = (1.0 / hi_r)[..., None] if vec else 1.0 / hi_r
        scale = (2.0 * w)[..., None] if vec else 2.0 * w
        out = (p_lo * (inv_lo - inv_hi) + (pi_hi - pi_lo) - (p_hi - p_lo) * inv_hi) / np.maximum(
            scale, 1e-300
        )
        if np.any(sharp):
            out[sharp] = self._sharp_over_r2(key, r[sharp])
        return out

    def _sharp_over_r2(self, key: str, r: np.ndarray) -> np.ndarray:
        c = self.cumulative(key, r)
        rr = r**2 if c.ndim == np.ndim(r) else (r**2)[..., None]
        return c / rr

    def auto_halfwidth(self, r) -> np.ndarray:
        """Window capturing about one local sample-ring spacing at the cut.

        It spans max(64, 2 sqrt(n)) sorted samples on each side of r.
        """
        k = max(64, int(2.0 * np.sqrt(self.n)))
        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(self.dists, r, side="left")
        lo = np.maximum(idx - k, 0)
        hi = np.minimum(idx + k, self.n - 1)
        return 0.6 * (self.dists[hi] - self.dists[lo])

    def snapped_window(self, r, halfwidth):
        """Window edges snapped to the widest nearby inter-sample gaps.

        Distance-aligned sample rings (a base point on a symmetry axis) make
        box windows beat against the ring period; snapping each edge to the
        midpoint of the largest gap within 600 sorted samples makes the
        window ring-commensurate, so the staircase integrates exactly.
        """
        search = 600
        r = np.atleast_1d(np.asarray(r, dtype=float))
        w = np.atleast_1d(np.asarray(halfwidth, dtype=float))
        gaps = np.diff(self.dists)
        mids = 0.5 * (self.dists[1:] + self.dists[:-1])

        def snap(target):
            # nearest midpoint of a substantial gap (>= a quarter of the
            # largest nearby gap), so distinct targets snap to distinct edges
            out = np.empty_like(target)
            for i, s in enumerate(target):
                j = np.searchsorted(self.dists, s, side="left")
                a = max(j - search, 0)
                b = min(j + search, len(gaps))
                if b <= a:
                    out[i] = s
                    continue
                window = gaps[a:b]
                cand = np.flatnonzero(window >= 0.25 * np.max(window))
                if len(cand) == 0:
                    out[i] = s
                    continue
                k = a + cand[int(np.argmin(np.abs(mids[a + cand] - s)))]
                out[i] = mids[k]
            return out

        lo = snap(np.maximum(r - w, 1e-12))
        hi = snap(r + w)
        bad = hi <= lo
        lo[bad] = np.maximum(r[bad] - w[bad], 1e-12)
        hi[bad] = r[bad] + w[bad]
        return lo, hi

    def bounds_average(self, key: str, lo, hi, over_r2: bool = False) -> np.ndarray:
        """Uniform average of the sharp cumulative (or cumulative/s^2) on [lo, hi]."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        r = 0.5 * (lo + hi)
        w = 0.5 * (hi - lo)
        if over_r2:
            return self.windowed_over_r2(key, r, w)
        return self.windowed(key, r, w)

    def count(self, r) -> int:
        return int(np.searchsorted(self.dists, float(r), side="left"))


def _prefix(arr: np.ndarray) -> np.ndarray:
    """Running sums along the first axis, led by a zero row."""
    out = np.empty((len(arr) + 1,) + arr.shape[1:])
    out[0] = 0.0
    np.cumsum(arr, axis=0, out=out[1:])
    return out
