"""Smoke runs of the scripts at tiny resolution."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import capmono

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args, cwd):
    src = str(Path(capmono.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env, cwd=cwd
    )


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_cap_energy_sweep_writes_its_csv(tmp_path):
    out = tmp_path / "cap_sweep.csv"
    proc = _run_script("cap_energy_sweep.py", "--count", "2", "--res", "16", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = _read_csv(out)
    assert rows[0] == ["theta", "bound", "willmore_cap", "gap_cap", "willmore_ball_disk", "gap_disk"]
    assert len(rows) == 3 and all(len(row) == 6 for row in rows[1:])
    for row in rows[1:]:
        theta, bound, w_cap, gap_cap, w_disk, gap_disk = map(float, row)
        assert gap_cap == pytest.approx(w_cap - bound, abs=1e-9)
        assert gap_disk == pytest.approx(w_disk - bound, abs=1e-9)


def test_monotonicity_sweep_writes_one_profile_per_point(tmp_path):
    out = tmp_path / "profiles"
    args = ("--points", "2", "--res", "16", "--r-count", "5", "--out-dir", str(out))
    proc = _run_script("monotonicity_sweep.py", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["profile_000.csv", "profile_001.csv"]
    for path in sorted(out.iterdir()):
        rows = _read_csv(path)
        assert rows[0] == ["r", "g", "gHat", "G", "R", "deficit", "residual"]
        assert len(rows) == 6 and all(len(row) == 7 for row in rows[1:])
    assert "worst forward difference" in proc.stdout


def test_memory_bounds_reports_every_measured_command(tmp_path):
    args = ("--plane-grid", "16", "--sphere-level", "1", "--nu-nv", "8")
    proc = _run_script("memory_bounds.py", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    settings = ["probe-sweep plane_grid=16", "ball-cap sphere_level=1", "ball-cap nu=8 nv=8", "halfspace-cap nu=8 nv=8"]
    expect = [f"{setting} {command}:" for setting in settings for command in ("energy", "monotonicity")]
    assert [line.split(": ")[0] + ":" for line in lines] == expect
    for line in lines:
        peak, seconds = re.fullmatch(r".*: exit [01], peak RSS ([0-9.]+) MB, ([0-9.]+) s", line).groups()
        assert float(peak) > 0 and float(seconds) > 0
    # the script leaves nothing in the directory it runs from
    assert not any(tmp_path.iterdir())


def _write_profiles(directory, profiles):
    directory.mkdir()
    for name, rows in profiles.items():
        (directory / name).write_text("".join(",".join(row) + "\n" for row in rows))


def test_profile_diff_reports_each_column_and_refuses_other_layouts(tmp_path):
    half = [["r", "g", "residual"], ["0.5", "2", "0"], ["1", "-4", "1e-12"]]
    ball = [["r", "gTheta", "branch"], ["0.5", "1", "general"], ["1", "3", "general"]]
    _write_profiles(tmp_path / "a", {"profile_000.csv": half, "profile_001.csv": ball})
    moved = [["r", "g", "residual"], ["0.5", "2.5", "0"], ["1", "-4", "3e-12"]]
    _write_profiles(tmp_path / "b", {"profile_000.csv": moved, "profile_001.csv": ball})
    proc = _run_script("profile_diff.py", "a", "b", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "profile_000.csv r: abs 0.000e+00 rel 0.000e+00",
        "profile_000.csv g: abs 5.000e-01 rel 2.000e-01",
        "profile_000.csv residual: abs 2.000e-12 rel 6.667e-01",
        "profile_001.csv r: abs 0.000e+00 rel 0.000e+00",
        "profile_001.csv gTheta: abs 0.000e+00 rel 0.000e+00",
        "profile_001.csv branch: text differs in 0 rows",
        "all r: abs 0.000e+00 rel 0.000e+00",
        "all g: abs 5.000e-01 rel 2.000e-01",
        "all residual: abs 2.000e-12 rel 6.667e-01",
        "all gTheta: abs 0.000e+00 rel 0.000e+00",
    ]
    # another file set, header, row count or text entry exits 1 and names the file
    edits = {
        "files": {"profile_000.csv": half, "profile_001.csv": ball, "profile_002.csv": half},
        "header": {"profile_000.csv": [["r", "G", "residual"]] + half[1:], "profile_001.csv": ball},
        "rows": {"profile_000.csv": half[:2], "profile_001.csv": ball},
        "text": {"profile_000.csv": half, "profile_001.csv": ball[:2] + [["1", "3", "origin"]]},
    }
    for edit, profiles in edits.items():
        _write_profiles(tmp_path / edit, profiles)
        proc = _run_script("profile_diff.py", "a", edit, cwd=tmp_path)
        assert proc.returncode == 1, edit
        assert "profile_00" in proc.stderr, edit
    assert _run_script("profile_diff.py", "a", "missing", cwd=tmp_path).returncode == 2
