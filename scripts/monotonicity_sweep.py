#!/usr/bin/env python3
"""Monotonicity profiles for a batch of random base points.

Builds a spherical cap over the plane, evaluates the combined radial
profile at seeded random base points, writes one CSV per point and prints
the worst forward difference and identity residual.

Usage:
    python scripts/monotonicity_sweep.py --theta 2.0944 --points 10 --out-dir profiles
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from capmono import halfspace as hs
from capmono import tables
from capmono.surfaces import sample_chart, spherical_cap_halfspace
from capmono.wetted import wetted_region


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=2 * np.pi / 3)
    ap.add_argument("--points", type=int, default=10)
    ap.add_argument("--res", type=int, default=192)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--r-min", type=float, default=0.25)
    ap.add_argument("--r-max", type=float, default=4.0)
    ap.add_argument("--r-count", type=int, default=40)
    ap.add_argument("--out-dir", default="profiles")
    args = ap.parse_args()

    surface = sample_chart(spherical_cap_halfspace(args.theta), args.res, args.res)
    region = wetted_region(surface)
    grid = np.linspace(args.r_min, args.r_max, args.r_count)
    rng = np.random.default_rng(args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    worst_diff = np.inf
    worst_resid = 0.0
    for i in range(args.points):
        a = rng.uniform(-1.6, 1.6, 3)
        prof = hs.monotonicity_profile(hs.probe_terms(surface, region, a), grid)
        tables.profile_csv(prof, out / f"profile_{i:03d}.csv")
        worst_diff = min(worst_diff, prof.min_forward_difference())
        worst_resid = max(worst_resid, prof.worst_residual())
        print(
            f"point {i}: a = ({a[0]:+.3f}, {a[1]:+.3f}, {a[2]:+.3f})  "
            f"min fwd diff {prof.min_forward_difference():+.3e}  "
            f"worst residual {prof.worst_residual():.3e}"
        )
    print(f"worst forward difference {worst_diff:+.3e}, worst residual {worst_resid:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
