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
stable sort.  Every workload's commands leave a pair residuals companion
(``pair_residuals.bin``, written by monotonicity and read by
identity-suite), whose bytes are not digested, because its key stamps
the capmono sources; no command leaves a wetted grid (``wetted_grid.bin``)
behind.  Before the extra probe, the script deletes only the pair
residuals and reruns identity-suite, which then computes its residuals
itself, and digests its stdout under a ``termspath`` tag.  It then
deletes every binary companion and reruns energy, monotonicity and
identity-suite, which read the tables from their text, and digests their
stdout and outputs under a ``textpath`` tag.

Every ``termspath`` and ``textpath`` line must equal the line without
the tag.  The script checks that after printing every line, and exits 1
naming the first tagged line that differs (or whose untagged line is
missing); otherwise it exits 0.  The
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

from capmono import tables  # noqa: E402
from checks import digests  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

COMMANDS = ("generate", "energy", "monotonicity", "identity-suite")
# outputs the benchmark's own digests (surface, energy report, profiles) leave out
EXTRA_OUTPUTS = ("boundary.tsv", "curve.tsv", "surface.bin", "boundary.bin")
# the commands that load the sample tables, rerun without every companion
RERUN_COMMANDS = ("energy", "monotonicity", "identity-suite")
# workloads rerun with one more probe, named by its tag: the ball's origin
# branch, and the first half-space station turned onto the x1 axis, where
# distances from the probe tie exactly (about 6,000 samples repeat the
# distance of another)
EXTRA_PROBES = {"ball-cap": ("origin", "0.0,0.0,0.0"), "halfspace-cap": ("axis", "0.175,0.0,0.8")}
# the tags whose every line must equal the line without the tag
SAME_AS_UNTAGGED = ("termspath", "textpath")


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
    # monotonicity leaves the residuals identity-suite just read, and no
    # command leaves a wetted grid
    assert (out / tables.PAIR_RESIDUALS).is_file(), f"{name} left no {tables.PAIR_RESIDUALS}"
    assert not (out / "wetted_grid.bin").exists(), f"{name} left a wetted grid"
    for file in EXTRA_OUTPUTS:
        lines.append(f"{digest((out / file).read_bytes())}  {name}/{file}")
    lines += [f"{sha}  {name}/{file}" for file, sha in digests(out).items()]
    lines += termspath_digests(name, config, out)
    lines += extra_probe_digests(name, config, out)
    return lines + rerun_digests(name, config, out, "textpath", list(out.glob("*.bin")))


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
