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
``wetted.BallRestrictedEta`` is a ``RadialPrefix`` over the boundary
curve's atoms, whose rows are the Green's (plane) or Stokes' (sphere)
theorem terms of each key.
"""

from __future__ import annotations

import numpy as np

from .geometry import rowdot


class RadialPrefix:
    """Prefix sums of weighted sample quantities by distance from a center.

    ``order`` sorts the samples by distance; ``dists`` and ``values`` are in
    that order.  A caller that already holds the squared distances
    |x - c|^2 of the points passes them as ``d2``, so each center costs one
    distance pass; ``points`` is read only without ``d2``.

    All keys are the rows of one (K, n) array, one row per key: a key is
    one value per point, and any other shape raises ValueError.  Each key
    is gathered straight into its row, and every plain prefix is built by
    one ``cumsum`` along the rows; ``values[key]`` and the key's plain
    prefix are views of its row.  A row adds its entries in the order of a
    per-key running sum, so every prefix has the bits of a per-key
    ``np.cumsum``.  The f.d and f/d prefixes of a key (read by the two
    windows) are built on their first read.
    """

    def __init__(self, points: np.ndarray | None, center, arrays: dict[str, np.ndarray], *, d2=None):
        self.center = np.asarray(center, dtype=float)
        if d2 is None:
            rel = points - self.center
            d2 = rowdot(rel, rel)
        self.order, self.dists = _distance_order(np.sqrt(d2))
        self.n = len(self.dists)
        block = np.empty((len(arrays), self.n))
        for row, (key, arr) in zip(block, arrays.items()):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (self.n,):
                raise ValueError(f"key {key!r} has shape {arr.shape}, not one value per point ({self.n},)")
            # order is a permutation of the entries, so "clip" never clips;
            # it writes straight into out, which "raise" would buffer
            np.take(arr, self.order, out=row, mode="clip")
        self.values = dict(zip(arrays, block))
        self._prefix = dict(zip(arrays, _prefix(block)))
        self._moments: dict = {}

    def _moment(self, key: str, power: int) -> np.ndarray:
        """Prefix of the key's values times d (power 1) or 1/d (power -1)."""
        if (key, power) not in self._moments:
            scale = self.dists if power > 0 else 1.0 / np.maximum(self.dists, 1e-12)
            self._moments[key, power] = _prefix(self.values[key], scale)
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
        return full + ((r + w) * band_f - band_fd) / np.maximum(2.0 * w, 1e-300)

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
            return self.cumulative(key, r) / r**2
        lo_r = np.maximum(r - w, 1e-300)
        hi_r = r + w
        lo = np.searchsorted(self.dists, lo_r, side="left")
        hi = np.searchsorted(self.dists, hi_r, side="left")
        p_lo = self._prefix[key][lo]
        p_hi = self._prefix[key][hi]
        prefix_invd = self._moment(key, -1)
        pi_lo = prefix_invd[lo]
        pi_hi = prefix_invd[hi]
        inv_hi = 1.0 / hi_r
        out = (p_lo * (1.0 / lo_r - inv_hi) + (pi_hi - pi_lo) - (p_hi - p_lo) * inv_hi) / np.maximum(
            2.0 * w, 1e-300
        )
        if np.any(sharp):
            out[sharp] = self.cumulative(key, r[sharp]) / r[sharp] ** 2
        return out

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

    def onset(self) -> float:
        """Distance of the nearest point: every ball below it is empty, and its mass ratio 0."""
        return float(self.dists[0]) if self.n else np.inf

    def count(self, r) -> int:
        return int(np.searchsorted(self.dists, float(r), side="left"))


def _distance_order(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending order of the distances, and the sorted distances.

    Distinct distances have one ascending order, which the default (SIMD)
    sort finds at a fraction of the stable sort's cost.  When two sorted
    neighbours are not strictly increasing (equal distances, 0.0 and -0.0
    among them, or a NaN) the stable sort decides instead, so the order is
    always that of ``np.argsort(d, kind="stable")``.
    """
    order = np.argsort(d)
    dists = np.take(d, order)
    if not np.all(dists[1:] > dists[:-1]):
        order = np.argsort(d, kind="stable")
        dists = np.take(d, order)
    return order, dists


def _prefix(block: np.ndarray, scale=None) -> np.ndarray:
    """Running sums along the rows of the block or along one row (times
    ``scale``), each led by a zero.

    The product is formed in the output and summed there in place, so a
    scaled prefix needs no temporary of the block's size.
    """
    out = np.empty(block.shape[:-1] + (block.shape[-1] + 1,))
    out[..., 0] = 0.0
    if scale is None:
        np.cumsum(block, axis=-1, out=out[..., 1:])
    else:
        np.multiply(block, scale, out=out[..., 1:])
        np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    return out
