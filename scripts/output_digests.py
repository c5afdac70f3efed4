#!/usr/bin/env python3
"""SHA-256 digests of every CLI output on the benchmark configs.

Runs generate, energy, monotonicity and identity-suite on the config of
each benchmark workload (``perfbench/workloads.py``) for one seed, through
the ``capmono`` command line of this checkout, and prints one digest per
output file (surface.tsv, boundary.tsv, curve.tsv, the binary
companions surface.bin and boundary.bin, energy.json,
profile_*.csv) and per command stdout, with each command's exit code.
It reruns monotonicity and identity-suite with one more probe, and
digests their stdout and profiles: on ``ball-cap`` at the origin, whose
identity has its own branch, and on ``halfspace-cap`` on the x1 axis,
where distances tie exactly, so every radial prefix there takes the
stable sort.  Every workload's commands leave a wetted grid companion
(``wetted_grid.bin``) and a pair residuals companion
(``pair_residuals.bin``, written by monotonicity and read by
identity-suite); the bytes of neither are digested, because each key
stamps the capmono sources.  Before the extra probe, the script deletes
only the pair residuals and reruns identity-suite, which then computes
its residuals itself, and digests its stdout under a ``termspath`` tag.
It deletes the grid companion and reruns energy, monotonicity and
identity-suite, which rebuild the grid, and digests their stdout and
outputs under a ``gridpath`` tag.  It then deletes every binary
companion and reruns the same commands, which read the tables from their
text (and rebuild the grid once more), under a ``textpath`` tag.  Last it
builds the wetted grid of the generated surface in this process, at the
resolutions in ``GRIDS``, and digests each of the four
``WettedRegion.grid()`` arrays (nodes, cell weights, integer and
antialiased winding) with its dtype and shape; it digests them again as
read back from the grid companion that build wrote, under a ``readback``
tag, and as laid out by a fresh region after its ``wetted_nodes()``,
under an ``afterwetted`` tag.

Every ``termspath``, ``gridpath``, ``textpath``, ``readback`` and
``afterwetted`` line must equal the line without the tag.  The script
checks that after printing every line, and exits 1 naming the first
tagged line that differs (or whose untagged line is missing); otherwise
it exits 0.  The
output directory is replaced by ``OUT`` in stdout before hashing, so two
checkouts can be compared by diffing what this prints in each:

    python3 scripts/output_digests.py --seed 1 > digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from capmono import tables  # noqa: E402
from capmono.wetted import wetted_region  # noqa: E402
from checks import digests  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

COMMANDS = ("generate", "energy", "monotonicity", "identity-suite")
# outputs the benchmark's own digests (surface, energy report, profiles) leave out
EXTRA_OUTPUTS = ("boundary.tsv", "curve.tsv", "surface.bin", "boundary.bin")
# the commands that load the sample tables and may build the wetted grid,
# rerun without the grid companion and then without every companion
RERUN_COMMANDS = ("energy", "monotonicity", "identity-suite")
# wetted grids digested per workload: sphere levels on the ball, grid sizes on the plane
GRIDS = {"ball-cap": ("sphere_level", (5, 6, 7)), "halfspace-cap": ("grid_n", (512,))}
GRID_ARRAYS = ("nodes", "cellw", "wind", "wind_aa")
# workloads rerun with one more probe, named by its tag: the ball's origin
# branch, and the first half-space station turned onto the x1 axis, where
# distances from the probe tie exactly (about 6,000 samples and 117,000
# grid nodes repeat the distance of another)
EXTRA_PROBES = {"ball-cap": ("origin", "0.0,0.0,0.0"), "halfspace-cap": ("axis", "0.175,0.0,0.8")}
# the tags whose every line must equal the line without the tag
SAME_AS_UNTAGGED = ("termspath", "gridpath", "textpath", "readback", "afterwetted")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(command: str, config: Path, out: Path) -> tuple[int, bytes]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "capmono", command, "--config", str(config)],
        capture_output=True,
        env=env,
        cwd=ROOT,
    )
    return proc.returncode, proc.stdout.replace(str(out).encode(), b"OUT")


def workload_digests(name: str, seed: int, work: Path) -> list[str]:
    out = work / name
    config = work / f"{name}.cfg"
    config.write_text(config_text(WORKLOADS[name], seed, str(out)))
    lines = []
    for command in COMMANDS:
        code, stdout = run(command, config, out)
        lines.append(f"exit {code}  {name}/{command}")
        lines.append(f"{digest(stdout)}  {name}/{command}.stdout")
    # monotonicity builds the grid on every workload, energy already on the
    # ball, and monotonicity leaves the residuals identity-suite just read
    for companion in (tables.GRID_COMPANION, tables.PAIR_RESIDUALS):
        assert (out / companion).is_file(), f"{name} left no {companion}"
    for file in EXTRA_OUTPUTS:
        lines.append(f"{digest((out / file).read_bytes())}  {name}/{file}")
    lines += [f"{sha}  {name}/{file}" for file, sha in digests(out).items()]
    lines += termspath_digests(name, config, out)
    lines += extra_probe_digests(name, config, out)
    lines += rerun_digests(name, config, out, "gridpath", [out / tables.GRID_COMPANION])
    # the textpath rerun also rebuilds the grid: "*.bin" holds its companion
    lines += rerun_digests(name, config, out, "textpath", list(out.glob("*.bin")))
    return lines + grid_digests(name, out)


def extra_probe_digests(name: str, config: Path, out: Path) -> list[str]:
    if name not in EXTRA_PROBES:
        return []
    tag, point = EXTRA_PROBES[name]
    extra = config.with_name(f"{name}-{tag}.cfg")
    extra.write_text(config.read_text().replace("[probes]\n", f"[probes]\npoint = {point}\n", 1))
    for path in out.glob("profile_*.csv"):
        path.unlink()
    lines = []
    for command in ("monotonicity", "identity-suite"):
        code, stdout = run(command, extra, out)
        lines.append(f"exit {code}  {name}/{tag}/{command}")
        lines.append(f"{digest(stdout)}  {name}/{tag}/{command}.stdout")
    lines += [f"{sha}  {name}/{tag}/{file}" for file, sha in digests(out).items() if file.startswith("profile_")]
    return lines


def termspath_digests(name: str, config: Path, out: Path) -> list[str]:
    """Delete only the pair residuals and rerun identity-suite, which then computes them."""
    (out / tables.PAIR_RESIDUALS).unlink()
    code, stdout = run("identity-suite", config, out)
    return [f"exit {code}  {name}/termspath/identity-suite", f"{digest(stdout)}  {name}/termspath/identity-suite.stdout"]


def rerun_digests(name: str, config: Path, out: Path, tag: str, deleted: list[Path]) -> list[str]:
    """Delete ``deleted`` and the profiles, rerun ``RERUN_COMMANDS`` and digest under ``tag``."""
    for path in [*deleted, *out.glob("profile_*.csv")]:
        path.unlink()
    lines = []
    for command in RERUN_COMMANDS:
        code, stdout = run(command, config, out)
        lines.append(f"exit {code}  {name}/{tag}/{command}")
        lines.append(f"{digest(stdout)}  {name}/{tag}/{command}.stdout")
    return lines + [f"{sha}  {name}/{tag}/{file}" for file, sha in digests(out).items()]


def grid_digests(name: str, out: Path) -> list[str]:
    if name not in GRIDS:
        return []
    surface = tables.load_surface(out / "surface.tsv", out / "boundary.tsv")
    key, values = GRIDS[name]
    lines = []
    for value in values:
        store = tables.GridCompanion(out / f"grid-{key}-{value}.bin")
        built = wetted_region(surface, **{key: value}, store=store).grid()
        # the build above wrote the companion; a second region must find it
        read = wetted_region(surface, **{key: value}, store=store)
        assert store.load(read) is not None, f"{store.path} was not read back"
        # the grid a region lays out must not depend on what it was asked first
        after = wetted_region(surface, **{key: value})
        after.wetted_nodes()
        laid_out = ((name, built), (f"{name}/readback", read.grid()), (f"{name}/afterwetted", after.grid()))
        for prefix, arrays in laid_out:
            for label, arr in zip(GRID_ARRAYS, arrays):
                arr = np.ascontiguousarray(arr)
                tag = f"{prefix}/grid-{key}-{value}/{label}"
                lines.append(f"{digest(arr.tobytes())}  {tag} {arr.dtype.str} {arr.shape}")
    return lines


def first_mismatch(name: str, lines: list[str]) -> str | None:
    """The first line of ``name`` tagged as ``SAME_AS_UNTAGGED`` whose untagged line is not in ``lines``."""
    seen = set(lines)
    for line in lines:
        for tag in SAME_AS_UNTAGGED:
            tagged = f"  {name}/{tag}/"
            if tagged in line and line.replace(tagged, f"  {name}/", 1) not in seen:
                return line
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    mismatch = None
    with tempfile.TemporaryDirectory(prefix="capmono-digests-") as tmp:
        for name in WORKLOADS:
            lines = workload_digests(name, args.seed, Path(tmp))
            for line in lines:
                print(line, flush=True)
            mismatch = mismatch or first_mismatch(name, lines)
    if mismatch is not None:
        print(f"mismatch: {mismatch!r} differs from its line without the tag", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
