"""Output checks and the numbers recorded beside the timings.

Every check is counted: ``attempted`` is the number made, ``failed`` the
number that did not hold.  A pipeline's outputs are read from the stdout of
each subcommand (``<command>.stdout`` in its work directory) and from the
files the program wrote under its output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from workloads import TOLERANCE

_FLOAT = r"([-+0-9.eEinfa]+)"


class Checks:
    """Tally of named pass/fail checks."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _number(text: str, pattern: str) -> float:
    """The float captured by pattern in text, or NaN when absent."""
    m = re.search(pattern, text)
    return float(m.group(1)) if m else math.nan


def _read(path: Path) -> str:
    return path.read_text() if path.is_file() else ""


def _within(value: float, limit: float) -> bool:
    # written so that NaN fails
    return abs(value) <= limit


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of the deterministic outputs: surface, energy report, profiles."""
    names = ["surface.tsv", "energy.json"] + sorted(p.name for p in out.glob("profile_*.csv"))
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names if (out / n).is_file()}


def check_pipeline(checks: Checks, work: Path, out: Path, exits: dict, workload) -> dict:
    """Check one verification pipeline; return its numbers and digests."""
    text = {c: _read(work / f"{c}.stdout") for c in exits}
    for command, code in exits.items():
        checks.check(f"{command} exits 0", code == 0)

    contact = _number(text["generate"], r"contact residual " + _FLOAT)
    checks.check("contact residual within tolerance", _within(contact, TOLERANCE))

    try:
        report = json.loads((out / "energy.json").read_text())
    except (OSError, ValueError):
        report = {}
    theta = report.get("theta", math.nan)
    bound = 2.0 * math.pi * (1.0 - math.cos(theta))
    if workload.run["ambient"] == "ball":
        gap = report.get("willmoreBall", math.nan) - bound
    else:
        gap = report.get("margins", {}).get("liYauGlobal", math.nan)
    checks.check("energy bound gap within tolerance", _within(gap, TOLERANCE))

    mono = text["monotonicity"]
    violation = _number(mono, r"worst monotonicity violation " + _FLOAT)
    residual = _number(mono, r"worst identity residual " + _FLOAT)
    checks.check("monotonicity prints PASS", mono.rstrip().endswith("PASS"))
    checks.check("worst identity residual within tolerance", _within(residual, TOLERANCE))
    checks.check("monotonicity violation reported", not math.isnan(violation))

    lines = [ln for ln in text["identity-suite"].splitlines() if ln.strip()]
    checks.check("identity-suite reads PASS on every line", len(lines) >= 3 and all(ln.startswith("PASS ") for ln in lines))
    suite = _number(text["identity-suite"], r"two-radius-identity: " + _FLOAT)
    checks.check("identity-suite and monotonicity agree on the worst residual", suite == residual)

    found = digests(out)
    profiles = [n for n in found if n.startswith("profile_")]
    checks.check("one profile per probe", len(profiles) == len(workload.stations))
    checks.check("surface and energy outputs written", "surface.tsv" in found and "energy.json" in found)
    return {
        "worst_identity_residual": residual,
        "worst_monotonicity_violation": violation,
        "bound_gap": gap,
        "contact_residual": contact,
        "digests": found,
    }


def check_negative_control(checks: Checks, work: Path, exits: dict) -> dict:
    """The perturbed cap must fail the two-radius identity, and only it."""
    gen = _read(work / "generate.stdout")
    suite = _read(work / "identity-suite.stdout")
    contact = _number(gen, r"contact residual " + _FLOAT)
    residual = _number(suite, r"two-radius-identity: " + _FLOAT)
    failing = [ln.split()[1].rstrip(":") for ln in suite.splitlines() if ln.startswith("FAIL ")]
    checks.check("negative control: generate exits 0", exits["generate"] == 0)
    checks.check("negative control: contact residual exceeds tolerance", contact > TOLERANCE)
    checks.check("negative control: identity-suite exits 1", exits["identity-suite"] == 1)
    checks.check("negative control: only two-radius-identity fails", failing == ["two-radius-identity"])
    checks.check("negative control: residual exceeds tolerance", residual > TOLERANCE)
    return {"contact_residual": contact, "two_radius_residual": residual}
