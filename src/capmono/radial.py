"""Single-pass radial binning for ball-restricted integrals.

Samples are sorted by distance from a base point once; every radius on a
grid then reads off a running sum in that order.  Integrands linear in the
base point are decomposed so that one sort serves the whole family.

Only the sort is kept.  A read gathers its key into distance order and
sums it up in a scratch row the prefix reuses, takes the values at the
window ends and goes on, so a prefix holds its order, its sorted
distances and its keys, and no running sum outlives the read that needed
it.  A caller reads each (key, window kind) once for all of its radii
(``identity.PairTerms.members`` keeps the values per radius), so every
sum is still built once.

Sharp restriction of an atomic sample measure to a ball is a staircase in
the radius; where sample rings align with the cut sphere the steps are a
visible fraction of the local mass.  ``windowed`` therefore returns the
exact average of the sharp cumulative over [r - w, r + w], which two
running-sum lookups provide in closed form; averaging over a window of a
few local sample spacings removes the staircase at second order and
commutes with every identity checked downstream (the identities hold at
each radius, hence for radius averages).

The wetted measure η is restricted by the same engine:
``wetted.BallRestrictedEta`` is a ``RadialPrefix`` over the boundary
curve's atoms, whose rows are the Green's (plane) or Stokes' (sphere)
theorem terms of each key.
"""

from __future__ import annotations

import numpy as np

from .geometry import rowdot


class RadialPrefix:
    """Running sums of weighted sample quantities by distance from a center.

    ``order`` sorts the samples by distance and ``dists`` holds the sorted
    distances.  A caller that already holds the squared distances
    |x - c|^2 of the points passes them as ``d2``, so each center costs one
    distance pass; ``points`` is read only without ``d2``.

    Every key is one value per point, and any other shape raises
    ValueError.  The keys are kept as given, in point order; a read
    gathers one key into distance order and builds its zero-led running
    sum in a scratch row, and the d or 1/d moment that a window needs in a
    second one.  Both rows are allocated on the first read and reused by
    every later one.  The gather and the sums are those of a per-key
    ``np.take`` and ``np.cumsum``, so every read has their bits.
    """

    def __init__(self, points: np.ndarray | None, center, arrays: dict[str, np.ndarray], *, d2=None):
        self.center = np.asarray(center, dtype=float)
        if d2 is None:
            rel = points - self.center
            d2 = rowdot(rel, rel)
        self.order, self.dists = _distance_order(np.sqrt(d2))
        self.n = len(self.dists)
        self.keys = {key: np.asarray(arr, dtype=float) for key, arr in arrays.items()}
        for key, arr in self.keys.items():
            if arr.shape != (self.n,):
                raise ValueError(f"key {key!r} has shape {arr.shape}, not one value per point ({self.n},)")
        self._scratch = None

    def _running(self, key: str, power: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
        """The key's zero-led running sum in distance order and, for power 1
        or -1, that of its values times d or 1/d (else None).

        Both are scratch rows that the next read overwrites: a caller takes
        the entries it needs before it reads again.
        """
        if self._scratch is None:
            self._scratch = np.empty((2, self.n + 1))
            self._scratch[:, 0] = 0.0
        plain, moment = self._scratch
        values = plain[1:]
        # order is a permutation of the entries, so "clip" never clips;
        # it writes straight into out, which "raise" would buffer
        np.take(self.keys[key], self.order, out=values, mode="clip")
        if power:
            scaled = moment[1:]
            if power > 0:
                np.multiply(values, self.dists, out=scaled)
            else:
                np.maximum(self.dists, 1e-12, out=scaled)
                np.divide(1.0, scaled, out=scaled)
                np.multiply(values, scaled, out=scaled)
            np.cumsum(scaled, out=scaled)
        np.cumsum(values, out=values)
        return plain, (moment if power else None)

    def cumulative(self, key: str, r) -> np.ndarray:
        """Sharp sum of the keyed quantity over samples with distance < r."""
        idx = np.searchsorted(self.dists, np.asarray(r, dtype=float), side="left")
        return self._running(key)[0][idx]

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
        prefix, prefix_d = self._running(key, 1)
        full = prefix[lo]
        band_f = prefix[hi] - prefix[lo]
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
        prefix, prefix_invd = self._running(key, -1)
        p_lo = prefix[lo]
        p_hi = prefix[hi]
        pi_lo = prefix_invd[lo]
        pi_hi = prefix_invd[hi]
        inv_hi = 1.0 / hi_r
        out = (p_lo * (1.0 / lo_r - inv_hi) + (pi_hi - pi_lo) - (p_hi - p_lo) * inv_hi) / np.maximum(
            2.0 * w, 1e-300
        )
        if np.any(sharp):
            out[sharp] = prefix[np.searchsorted(self.dists, r[sharp], side="left")] / r[sharp] ** 2
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

