#!/usr/bin/env python3
"""Peak memory and wall time of the largest runs a configuration may ask for.

``tables.MAX_PLANE_GRID``, ``MAX_SPHERE_LEVEL`` and ``MAX_NU_NV`` bound
the wetted grids and chart resolutions so that a single run's peak memory
stays under about 1 GB.  For each bound this script takes the benchmark
config of a workload (``perfbench/workloads.py``, imported, not edited),
raises that one quadrature setting to the bound, runs ``generate`` and
then ``energy`` and ``monotonicity`` through the ``capmono`` command line
of this checkout, one process at a time, and prints each measured
command's exit code, peak RSS (``os.wait4``) and wall time:

    python3 scripts/memory_bounds.py --seed 1

The cases are ``probe-sweep`` at the largest plane grid, ``ball-cap`` at
the largest sphere level, and ``ball-cap`` and ``halfspace-cap`` at the
largest ``nu = nv``.  ``--plane-grid``, ``--sphere-level`` and ``--nu-nv``
override the resolutions (a tiny override makes a smoke run).  The
script exits 1 when a command crashes or rejects its config (an exit code
other than 0 or 1: a verdict of 1 is still a finished run), else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from capmono import tables  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

MEASURED = ("energy", "monotonicity")


def cases(plane_grid: int, sphere_level: int, nu_nv: int) -> list[tuple[str, dict]]:
    """(workload, quadrature override) of every bound."""
    return [
        ("probe-sweep", {"plane_grid": plane_grid}),
        ("ball-cap", {"sphere_level": sphere_level}),
        ("ball-cap", {"nu": nu_nv, "nv": nu_nv}),
        ("halfspace-cap", {"nu": nu_nv, "nv": nu_nv}),
    ]


def run(command: str, config: Path) -> tuple[int, float, float]:
    """One command in a fresh process: exit code, wall seconds, peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "capmono", command, "--config", str(config)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--plane-grid", type=int, default=tables.MAX_PLANE_GRID)
    ap.add_argument("--sphere-level", type=int, default=tables.MAX_SPHERE_LEVEL)
    ap.add_argument("--nu-nv", type=int, default=tables.MAX_NU_NV)
    args = ap.parse_args(argv)

    failed = False
    with tempfile.TemporaryDirectory(prefix="capmono-memory-") as tmp:
        for i, (name, override) in enumerate(cases(args.plane_grid, args.sphere_level, args.nu_nv)):
            workload = WORKLOADS[name]
            workload = dataclasses.replace(workload, quadrature={**workload.quadrature, **override})
            config = Path(tmp) / f"case{i}.cfg"
            config.write_text(config_text(workload, args.seed, str(Path(tmp) / f"out{i}")))
            setting = " ".join(f"{key}={value}" for key, value in override.items())
            code, _, _ = run("generate", config)
            if code != 0:
                print(f"{name} {setting} generate: exit {code}")
                failed = True
                continue
            for command in MEASURED:
                code, seconds, peak = run(command, config)
                failed |= code not in (0, 1)
                print(f"{name} {setting} {command}: exit {code}, peak RSS {peak:.1f} MB, {seconds:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
