#!/usr/bin/env python3
"""Sweep the contact angle and tabulate cap energies against the sharp bound.

Writes a CSV with the measured capillary energy, the classical form, the
lower bound 2 pi (1 - cos theta) and the gap, for spherical caps over the
plane and the matching disks/caps in the ball.

Usage:
    python scripts/cap_energy_sweep.py --count 13 --res 96 --out cap_sweep.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from capmono import energy as en
from capmono.surfaces import geodesic_disk_ball, sample_chart, spherical_cap_halfspace
from capmono.wetted import wetted_region


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=13, help="number of angles in (0, pi)")
    ap.add_argument("--res", type=int, default=96, help="tensor quadrature resolution")
    ap.add_argument("--out", default="cap_sweep.csv")
    args = ap.parse_args()

    thetas = np.linspace(np.pi / 12, 11 * np.pi / 12, args.count)
    rows = ["theta,bound,willmore_cap,gap_cap,willmore_ball_disk,gap_disk"]
    for theta in thetas:
        bound = 2 * np.pi * (1 - np.cos(theta))
        cap = sample_chart(spherical_cap_halfspace(theta), args.res, args.res)
        w_cap = en.willmore_energy(cap)
        disk = sample_chart(geodesic_disk_ball(theta), args.res, 2 * args.res)
        region = wetted_region(disk)
        w_disk = en.willmore_ball(disk, region)
        rows.append(
            ",".join(
                "%.12g" % v
                for v in (theta, bound, w_cap, w_cap - bound, w_disk, w_disk - bound)
            )
        )
        print(rows[-1])
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
