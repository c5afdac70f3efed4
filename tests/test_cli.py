"""Command-line interface: subcommands, exit codes, determinism."""

import importlib.util
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capmono
from capmono import ball, halfspace, tables, wetted
from capmono.cli import main
from capmono.errors import ConfigError

BASE = """[run]
ambient = halfspace
theta = 2.0943951023932
generator = cap
radius = 1
center_x = 0
center_y = 0
colatitude = 1.5707963267949
amplitude = 0
mode = 0
[probes]
point = 0.86602540378444,0,0
point = 0.31,-0.12,0.47
[quadrature]
nu = 64
nv = 64
plane_grid = 256
sphere_level = 4
[profile]
r_min = 0.3
r_max = 3
r_count = 16
pair = 0.4,1.5
[output]
out_dir = OUT
tolerance = 0.005
seed = 0
"""


@pytest.fixture()
def cfg_path(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(BASE.replace("OUT", str(out)))
    return path, out


def test_generate_writes_tables(cfg_path, capsys):
    path, out = cfg_path
    assert main(["generate", "--config", str(path)]) == 0
    captured = capsys.readouterr().out
    assert "contact residual" in captured
    for name in ("surface.tsv", "boundary.tsv", "curve.tsv", "surface.bin", "boundary.bin"):
        assert (out / name).exists()
    # nothing reads the curve table, so it has no companion
    assert not (out / "curve.bin").exists()


def test_monotonicity_memory_does_not_grow_with_the_probes(tmp_path):
    # each profile is written as soon as its probe finishes and then
    # dropped, so the peak barely moves from 2 probes to 8 (by 0.02 MB).
    # Keeping every profile to the end grew it by 0.14 MB a probe here,
    # seven float arrays of 2,500 radii; few radii keep the traced CSV
    # writing short
    import tracemalloc

    from capmono.cli import Run, cmd_monotonicity

    stations = [(0.1 * i, 0.05, 0.4 + 0.05 * i) for i in range(8)]
    peaks = {}
    for count in (2, 8):
        out = tmp_path / f"out{count}"
        points = "".join(f"point = {x},{y},{z}\n" for x, y, z in stations[:count])
        text = BASE.replace("OUT", str(out)).replace("nu = 64\nnv = 64", "nu = 16\nnv = 16")
        text = text.replace("r_count = 16", "r_count = 2500")
        text = re.sub(r"(?m)^point = .*\n", "", text).replace("[probes]\n", "[probes]\n" + points)
        path = tmp_path / f"run{count}.cfg"
        path.write_text(text)
        assert main(["generate", "--config", str(path)]) == 0
        run = Run(tables.load_config(path), out)
        # the surface and its region are built before the trace starts
        run.surface, run.region
        tracemalloc.start()
        try:
            assert cmd_monotonicity(run) in (0, 1)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(p.name for p in out.glob("profile_*.csv"))[-1] == f"profile_{count - 1:03d}.csv"
    assert peaks[8] - peaks[2] < 0.2e6


def test_energy_requires_generated_surface(cfg_path, capsys):
    path, _ = cfg_path
    assert main(["energy", "--config", str(path)]) == 2


def test_energy_and_monotonicity(cfg_path, capsys):
    path, out = cfg_path
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["energy", "--config", str(path)]) == 0
    data = (out / "energy.json").read_text()
    assert "willmore" in data
    assert main(["monotonicity", "--config", str(path)]) == 0
    assert (out / "profile_000.csv").exists()
    captured = capsys.readouterr().out
    assert "worst monotonicity violation" in captured


def test_identity_suite(cfg_path, capsys):
    path, _ = cfg_path
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["identity-suite", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS gauss-bonnet" in out


def test_coarse_quadrature_breaches_tolerance(tmp_path, capsys):
    out = tmp_path / "coarse"
    text = BASE.replace("OUT", str(out)).replace("nu = 64", "nu = 8").replace("nv = 64", "nv = 8")
    text = text.replace("tolerance = 0.005", "tolerance = 0.001")
    path = tmp_path / "coarse.cfg"
    path.write_text(text)
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["monotonicity", "--config", str(path)]) == 1


def test_unknown_generator_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("OUT", str(tmp_path / "o")).replace("generator = cap", "generator = torus"))
    assert main(["generate", "--config", str(path)]) == 2


def test_missing_config_is_usage_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_deterministic_outputs(cfg_path):
    path, out = cfg_path
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["energy", "--config", str(path)]) == 0
    first = {name: (out / name).read_bytes() for name in ("surface.tsv", "energy.json")}
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["energy", "--config", str(path)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def _ball_text(out, base=BASE):
    return (
        base.replace("OUT", str(out))
        .replace("ambient = halfspace", "ambient = ball")
        .replace("generator = cap", "generator = flat-disk-ball")
        .replace("theta = 2.0943951023932", "theta = 1.0471975511966")
    )


def test_ball_suite_balance_law_reads_eta(tmp_path, monkeypatch, capsys):
    # the ball suite's balance law uses X = e3, whose eta terms do not
    # cancel on the sphere as X = x's do: eta scaled by 1.01 fails it (and
    # only it: the two-radius residuals come from monotonicity's companion,
    # written before the mutation), and the unmutated suite passes
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(
        _ball_text(out)
        .replace("generator = flat-disk-ball", "generator = cap-ball")
        .replace("theta = 1.0471975511966", "theta = 2.0943951023932")
        .replace("colatitude = 1.5707963267949", "colatitude = 1.0471975511966")
    )
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["monotonicity", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["identity-suite", "--config", str(path)]) == 0
    assert "PASS balance-law" in capsys.readouterr().out
    atoms = wetted.WettedRegion.curve_atoms

    def scaled(region):
        points, steps = atoms(region)
        return points, 1.01 * steps

    monkeypatch.setattr(wetted.WettedRegion, "curve_atoms", scaled)
    assert main(["identity-suite", "--config", str(path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL balance-law")


# the wetted measure is discretised once per run: by its curve atoms, which
# took the place of the sphere's grid
@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_monotonicity_builds_the_grid_once(tmp_path, monkeypatch, ambient):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(_TINY.replace("OUT", str(out)) if ambient == "halfspace" else _ball_text(out))
    assert main(["generate", "--config", str(path)]) == 0
    code = main(["monotonicity", "--config", str(path)])
    first = {p.name: p.read_bytes() for p in sorted(out.glob("profile_*.csv"))}
    assert len(first) == 2

    # a rerun places the region's curve atoms once for every probe
    builds = []
    atoms = wetted.WettedRegion.curve_atoms

    def counting(region):
        builds.append("atoms" not in region._cache)
        return atoms(region)

    monkeypatch.setattr(wetted.WettedRegion, "curve_atoms", counting)
    # and the weighted sample arrays are computed once, for every probe
    mono = halfspace if ambient == "halfspace" else ball
    h2 = []

    class Recording(mono.RadialPrefix):
        def __init__(self, points, center, arrays, **kwargs):
            if "h2" in arrays:
                h2.append(arrays["h2"])
            super().__init__(points, center, arrays, **kwargs)

    monkeypatch.setattr(mono, "RadialPrefix", Recording)
    assert main(["monotonicity", "--config", str(path)]) == code
    assert sum(builds) == 1 and len(builds) >= 2
    assert len(h2) >= 2 and all(a is h2[0] for a in h2)
    assert {p.name: p.read_bytes() for p in sorted(out.glob("profile_*.csv"))} == first


@pytest.mark.parametrize("command", ["monotonicity", "identity-suite"])
def test_nan_residual_fails_the_gate(cfg_path, monkeypatch, capsys, command):
    path, _ = cfg_path
    assert main(["generate", "--config", str(path)]) == 0
    real = halfspace.monotonicity_identity_detail

    def nan_detail(*args, **kwargs):
        detail = real(*args, **kwargs)
        detail["residual"] = float("nan")
        return detail

    monkeypatch.setattr(halfspace, "monotonicity_identity_detail", nan_detail)
    assert main([command, "--config", str(path)]) == 1
    assert "nan" in capsys.readouterr().out


# every column each ambient's profile CSV writes
_WRITTEN = {
    "halfspace": ("r_grid", "g", "g_hat", "big_g", "remainder", "deficit", "residual"),
    "ball": ("r_grid", "g", "g_hat", "big_g", "remainder", "residual"),
}


@pytest.mark.parametrize(
    "ambient, column", [(ambient, column) for ambient, columns in _WRITTEN.items() for column in columns]
)
def test_nan_profile_fails_the_gate(tmp_path, monkeypatch, capsys, ambient, column):
    # a NaN in the last row of one written column of the first profile,
    # while the two-radius residual stays small
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(_TINY.replace("OUT", str(out)) if ambient == "halfspace" else _ball_text(out, _TINY))
    assert main(["generate", "--config", str(path)]) == 0
    mono = halfspace if ambient == "halfspace" else ball
    real, calls = mono.monotonicity_profile, []

    def nan_profile(*args, **kwargs):
        profile = real(*args, **kwargs)
        if not calls:
            values = np.array(getattr(profile, column))
            values[-1] = float("nan")
            setattr(profile, column, values)
        calls.append(profile)
        return profile

    monkeypatch.setattr(mono, "monotonicity_profile", nan_profile)
    code = main(["monotonicity", "--config", str(path), "--tolerance", "0.01"])
    assert (out / "profile_000.csv").read_text().splitlines()[-1].count("nan") == 1
    assert len(calls) == 2
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL: a profile holds a non-finite value" in text and "PASS" not in text


def test_nan_tolerance_is_config_error(cfg_path, tmp_path):
    path, _ = cfg_path
    assert main(["generate", "--config", str(path), "--tolerance", "nan"]) == 2
    bad = tmp_path / "nan.cfg"
    bad.write_text(path.read_text().replace("tolerance = 0.005", "tolerance = nan"))
    assert main(["generate", "--config", str(bad)]) == 2


def test_console_entry_point(cfg_path):
    path, _ = cfg_path
    # the child imports the same package as this test, installed or not
    src = str(Path(capmono.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "capmono", "generate", "--config", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "contact residual" in proc.stdout


def _run_cli(args):
    src = str(Path(capmono.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "capmono", *args], capture_output=True, text=True, env=env)


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # numpy loads numpy.polynomial on its first read; the plane η's Gauss
    # rule is built on first use, so importing the command line never reads it
    src = str(Path(capmono.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, numpy, capmono.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# every capmono module but the package and the ``python -m`` entry point
_MODULES = sorted(p.stem for p in Path(capmono.__file__).parent.glob("*.py") if not p.stem.startswith("_"))


@pytest.mark.parametrize("module", _MODULES)
def test_each_module_imports_alone(module):
    # the package imports none of its modules, so each one must import what
    # it uses itself; a fresh interpreter shows an import-order dependency
    src = str(Path(capmono.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"import capmono.{module}"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_verification_commands_load_neither_numpy_ma_nor_polynomial(tmp_path, ambient):
    # a plain np.unique(ar) imports numpy.ma, and leggauss numpy.polynomial;
    # both ambients place their curve atoms and window η by the Gauss rules
    # written out in wetted.py, and neither needs either module.  No command
    # leaves a wetted grid behind
    path, out = _tiny_run(tmp_path, ambient)
    src = str(Path(capmono.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from capmono.cli import main\n"
        "codes = [main([c, '--config', sys.argv[1]]) for c in ('energy', 'monotonicity', 'identity-suite')]\n"
        "print(codes, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert not (out / "wetted_grid.bin").exists()
    assert proc.stdout.splitlines()[-1].endswith("] False False")


@pytest.mark.parametrize(
    "edit",
    [
        ("pair = 0.4,1.5", "pair = 1.5,0.4"),
        ("r_count = 16", "r_count = 1"),
        # would end in a MemoryError and exit 1 at monotonicity
        ("r_count = 16", "r_count = 1000000000000"),
        ("nu = 64", "nu = 4"),
        ("nu = 64", "nu = 200000"),
        ("nv = 64", "nv = 1001"),
        ("r_min = 0.3", "r_min = -1"),
        ("r_min = 0.3", "r_min = 1e-310"),
        ("radius = 1", "radius = -1"),
        ("radius = 1", "radius = 0"),
        ("plane_grid = 256", "plane_grid = 256.5"),
        ("sphere_level = 4", "sphere_level = 9"),
        ("sphere_level = 4", "sphere_level = 4.5"),
        ("seed = 0", "seed = 0\nthreads = 2"),
        ("generator = cap", "generator = cap-ball"),
        # the output directory is the config file itself, or lies under it
        ("/out\ntolerance", "/bad.cfg\ntolerance"),
        ("/out\ntolerance", "/bad.cfg/out\ntolerance"),
    ],
    ids=[
        "pair-order", "r-count", "r-count-max", "nu", "nu-max", "nv-max", "r-min", "r-min-subnormal", "radius-negative",
        "radius-zero", "plane-grid-float", "sphere-level-max", "sphere-level-float", "threads-2", "generator-ambient",
        "out-dir-file", "out-dir-under-file",
    ],
)
def test_bad_config_exits_2_without_traceback(tmp_path, edit):
    text = BASE.replace("OUT", str(tmp_path / "out"))
    assert edit[0] in text
    text = text.replace(*edit)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    proc = _run_cli(["generate", "--config", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, kind):
    # a config path naming a directory, or a config that is not UTF-8
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        # a Latin-1 e-acute in a comment is not UTF-8
        text = BASE.replace("OUT", str(tmp_path / "out")).replace("[run]", "[run] # \xe9", 1)
        path.write_bytes(text.encode("latin-1"))
    proc = _run_cli(["generate", "--config", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("configuration error: ") and proc.stderr.count("\n") == 1
    assert str(path) in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, name", [("generate", "surface.tsv"), ("energy", "energy.json"), ("monotonicity", "profile_000.csv")]
)
def test_directory_in_place_of_a_file_exits_2_with_one_line(tmp_path, command, name):
    # a directory where a command writes a file is an I/O error, not a failed gate
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(_TINY.replace("OUT", str(out)))
    if command != "generate":
        assert main(["generate", "--config", str(path)]) == 0
    (out / name).mkdir(parents=True)
    proc = _run_cli([command, "--config", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and str(out / name) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_with_threads_1_still_runs(cfg_path, capsys):
    # configs written for the threaded runs, the benchmark's among them,
    # name threads = 1: it is ignored, and any other value is refused
    path, _ = cfg_path
    text = path.read_text()
    path.write_text(text.replace("seed = 0", "seed = 0\nthreads = 1"))
    assert tables.parse_config(path.read_text()) == tables.parse_config(text)
    with pytest.raises(ConfigError, match="threads were removed"):
        tables.parse_config(text.replace("seed = 0", "seed = 0\nthreads = 2"))
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["monotonicity", "--config", str(path)]) == 0


def test_corrupt_companions_exit_0_with_the_same_outputs(tmp_path):
    # a damaged binary companion beside a valid table is read past: every
    # command prints and writes what a run without the companions does
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(BASE.replace("OUT", str(out)))
    assert _run_cli(["generate", "--config", str(path)]).returncode == 0
    companions = {name: (out / name).read_bytes() for name in ("surface.bin", "boundary.bin")}

    def run_all():
        runs = []
        for command in ("energy", "monotonicity", "identity-suite"):
            proc = _run_cli([command, "--config", str(path)])
            assert "Traceback" not in proc.stderr
            runs.append((command, proc.returncode, proc.stdout, proc.stderr))
        return runs, {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".json", ".csv")}

    for name in companions:
        (out / name).unlink()
    reference = run_all()
    assert [run[1] for run in reference[0]] == [0, 0, 0]
    # a middle sample's area weight moves by a few percent behind an intact
    # header; the other loses half its body
    data = bytearray(companions["surface.bin"])
    head = tables._HEAD
    _, key_len, count, _ = head.unpack_from(data)
    n = count // 12
    data[head.size + key_len + 8 * (3 * n + n // 2) + 5] ^= 0x10
    (out / "surface.bin").write_bytes(data)
    (out / "boundary.bin").write_bytes(companions["boundary.bin"][: len(companions["boundary.bin"]) // 2])
    assert run_all() == reference


def test_other_capmono_errors_exit_2(cfg_path, monkeypatch, capsys):
    from capmono import cli
    from capmono.errors import GeometryError

    def degenerate(*args, **kwargs):
        raise GeometryError("degenerate chart")

    monkeypatch.setattr(cli, "sample_chart", degenerate)
    path, _ = cfg_path
    assert main(["generate", "--config", str(path)]) == 2
    assert "degenerate chart" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, edit",
    [
        ("surface.tsv", lambda text: re.sub(r"^# ambient=.*\n", "", text, flags=re.M)),
        ("surface.tsv", lambda text: re.sub(r"^[^#\s]\S*", "abc", text, count=1, flags=re.M)),
        ("surface.tsv", lambda text: re.sub(r"^([^#]\S* \S* \S*) \S*", r"\1 nan", text, count=1, flags=re.M)),
        ("surface.tsv", lambda text: re.sub(r"^[^#].*\n", "", text, flags=re.M)),
        ("boundary.tsv", lambda text: text + "1 2 3\n"),
        # an edit in bytes: a Latin-1 e-acute in a header comment is not UTF-8
        ("surface.tsv", lambda text: text.replace("# capmono", "# capmono \xe9", 1).encode("latin-1")),
    ],
    ids=["no-ambient", "non-numeric", "nan-weight", "header-only", "short-row", "latin1-header"],
)
def test_malformed_table_exits_2(tmp_path, capsys, name, edit):
    out = tmp_path / "out"
    path = tmp_path / "ball.cfg"
    path.write_text(_ball_text(out))
    assert main(["generate", "--config", str(path)]) == 0
    table = out / name
    text = table.read_text()
    edited = edit(text)
    assert edited not in (text, text.encode())
    if isinstance(edited, bytes):
        table.write_bytes(edited)
    else:
        table.write_text(edited)
    capsys.readouterr()
    assert main(["energy", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert name in err and "configuration error" in err


_FUZZ_FLOATS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, math.nan, math.inf, -math.inf]))
_FUZZ = {
    "ambient": st.sampled_from(["halfspace", "ball", "wedge"]),
    "theta": _FUZZ_FLOATS,
    "generator": st.sampled_from(["cap", "flat-disk-ball", "cap-ball", "torus"]),
    "radius": _FUZZ_FLOATS,
    "center_x": _FUZZ_FLOATS,
    "amplitude": _FUZZ_FLOATS,
    "mode": st.integers(-3, 5),
    "nu": st.integers(-2, 16),
    "nv": st.integers(-2, 16),
    "plane_grid": st.integers(-2, 32),
    "sphere_level": st.integers(-2, 2),
    "point": st.tuples(_FUZZ_FLOATS, _FUZZ_FLOATS, _FUZZ_FLOATS).map(lambda p: ",".join(map(repr, p))),
    "r_min": _FUZZ_FLOATS,
    "r_max": _FUZZ_FLOATS,
    "r_count": st.integers(-2, 12),
    "pair": st.tuples(_FUZZ_FLOATS, _FUZZ_FLOATS).map(lambda p: ",".join(map(repr, p))),
    "tolerance": _FUZZ_FLOATS,
    "seed": st.integers(-3, 3),
    "threads": st.integers(-3, 2),
}
_TINY = (
    BASE.replace("nu = 64", "nu = 16")
    .replace("nv = 64", "nv = 16")
    .replace("plane_grid = 256", "plane_grid = 32")
    .replace("sphere_level = 4", "sphere_level = 2")
    .replace("r_count = 16", "r_count = 8")
)
_EDITS = st.sampled_from(sorted(_FUZZ)).flatmap(lambda key: st.tuples(st.just(key), _FUZZ[key]))


@settings(max_examples=12, deadline=None)
@given(st.lists(_EDITS, min_size=1, max_size=3))
def test_fuzzed_config_exit_codes(edits):
    """Every command on a fuzzed tiny config exits 0, 1 or 2; main() raising fails."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = _TINY.replace("OUT", str(Path(tmp) / "out")).splitlines()
        for key, value in edits:
            k = next((i for i, line in enumerate(lines) if line.startswith(f"{key} = ")), None)
            if k is None:
                # a key the canonical form leaves out goes at the end, in [output]
                lines.append(f"{key} = {value}")
            else:
                lines[k] = f"{key} = {value}"
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        for command in ("generate", "energy", "monotonicity", "identity-suite"):
            code = main([command, "--config", str(path)])
            assert code in (0, 1, 2)
            if code == 2:
                break


@pytest.mark.parametrize("command", ["monotonicity", "identity-suite"])
@pytest.mark.parametrize("ambient, per_probe", [("halfspace", 1), ("ball", 2)])
def test_one_terms_object_per_probe(tmp_path, monkeypatch, command, ambient, per_probe):
    # two probes and two pairs: each probe's eta restrictions (one in the
    # half-space, direct and companion in the ball) serve its profile and
    # both pairs
    from capmono import ball

    out = tmp_path / "out"
    text = _TINY.replace("OUT", str(out)) if ambient == "halfspace" else _ball_text(out, _TINY)
    text = text.replace("pair = 0.4,1.5", "pair = 0.4,1.5\npair = 0.5,2.0")
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["generate", "--config", str(path)]) == 0

    built = []

    class Counting(wetted.BallRestrictedEta):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(halfspace, "BallRestrictedEta", Counting)
    monkeypatch.setattr(ball, "BallRestrictedEta", Counting)
    assert main([command, "--config", str(path)]) in (0, 1)
    assert len(built) == 2 * per_probe


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_benchmark_tracer_instruments_the_library(tmp_path, ambient):
    # the benchmark's tracer patches library names (classes it subclasses,
    # functions it wraps); a rename or a new base class must not leave a
    # traced run blind or different, nor a patch behind
    from capmono import cli, energy, quadrature, radial, surfaces, tables

    tracing = _load_tracing()
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(_TINY.replace("OUT", str(out)) if ambient == "halfspace" else _ball_text(out, _TINY))
    modules = (cli, ball, energy, halfspace, quadrature, radial, surfaces, tables, wetted, wetted.WettedRegion)
    before = [dict(vars(m)) for m in modules]

    def outputs():
        files = [*sorted(out.iterdir()), *sorted(tmp_path.glob("*.stdout"))]
        return {p.name: p.read_bytes() for p in files}

    plain = tracing.run_pipeline(str(path), tmp_path, None)
    plain_outputs = outputs()
    tracer = tracing.Tracer("test")
    with tracing.instrumented(tracer):
        traced = tracing.run_pipeline(str(path), tmp_path, tracer)
    assert [c["exit"] for c in traced] == [c["exit"] for c in plain]
    assert outputs() == plain_outputs
    for name in ("wetted.BallRestrictedEta.objects", "radial.RadialPrefix.objects", "identity.calls"):
        assert tracer.counts[name] > 0, name
    # neither ambient builds a wetted grid: η is read from the curve
    assert tracer.counts["wetted.grid.builds"] == 0
    for module, attrs in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in attrs.items())
    assert halfspace.BallRestrictedEta is wetted.BallRestrictedEta


def _counting_terms(monkeypatch):
    """Count the probe terms built by either ambient from here on."""
    built = []
    for mono in (halfspace, ball):

        def counting(*args, _real=mono.probe_terms, **kwargs):
            built.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mono, "probe_terms", counting)
    return built


def _suite(capsys, path, *args):
    capsys.readouterr()
    code = main(["identity-suite", "--config", str(path), *args])
    return code, capsys.readouterr().out


def _tiny_run(tmp_path, ambient="halfspace", text=None):
    out = tmp_path / "out"
    text = text or _TINY
    path = tmp_path / "run.cfg"
    path.write_text(text.replace("OUT", str(out)) if ambient == "halfspace" else _ball_text(out, text))
    assert main(["generate", "--config", str(path)]) == 0
    return path, out


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_suite_reads_the_pair_residuals_of_monotonicity(tmp_path, monkeypatch, capsys, ambient):
    # without a monotonicity run the suite computes its residuals and leaves
    # no companion; after one it builds no probe terms (and, in the
    # half-space, touches no curve atoms) and prints the same
    path, out = _tiny_run(tmp_path, ambient)
    built = _counting_terms(monkeypatch)
    computed = _suite(capsys, path)
    assert built and not (out / tables.PAIR_RESIDUALS).exists()
    assert main(["monotonicity", "--config", str(path)]) in (0, 1)
    assert (out / tables.PAIR_RESIDUALS).is_file()
    built.clear()
    if ambient == "halfspace":

        def refuse(self):
            raise AssertionError("the curve atoms were placed")

        monkeypatch.setattr(wetted.WettedRegion, "curve_atoms", refuse)
    assert _suite(capsys, path) == computed
    assert built == []


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_pairless_suite_reads_the_default_pair_of_monotonicity(tmp_path, monkeypatch, capsys, ambient):
    # without pair lines both commands check the one default pair
    # (r_min, r_max): after monotonicity the suite builds no probe terms,
    # and it prints what it prints when it computes the pair itself
    path, out = _tiny_run(tmp_path, ambient, _TINY.replace("pair = 0.4,1.5\n", ""))
    assert main(["monotonicity", "--config", str(path)]) in (0, 1)
    built = _counting_terms(monkeypatch)
    read = _suite(capsys, path)
    assert built == []
    (out / tables.PAIR_RESIDUALS).unlink()
    assert _suite(capsys, path) == read
    assert built


def _rewrite_residuals(path, values=None, extra=0, prefix=b""):
    """Rewrite the companion behind its own key, after ``prefix``, with a
    valid CRC: ``values`` in place of the stored residuals, or ``extra``
    more entries."""
    data = path.read_bytes()
    head = tables._HEAD
    _, key_len, count, _ = head.unpack_from(data)
    key = data[head.size : head.size + key_len]
    stored = np.frombuffer(data[head.size + key_len :], dtype="<f8")
    body = np.asarray(values if values is not None else np.concatenate([stored, np.zeros(extra)]), dtype="<f8")
    tables._write_companion(path, prefix + key, len(body), [body])


def _edit_config(old, new):
    def edit(path, out, monkeypatch, tmp_path):
        path.write_text(path.read_text().replace(old, new, 1))
        return ()

    return edit


def _edit_file(change):
    def edit(path, out, monkeypatch, tmp_path):
        change(out / tables.PAIR_RESIDUALS)
        return ()

    return edit


def _edited_surface(path, out, monkeypatch, tmp_path):
    # one sample's area weight moves in its last printed digits
    table = out / "surface.tsv"
    lines = table.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = lines[row].split()
    cols[3] = repr(float(cols[3]) * (1 + 1e-9))
    lines[row] = " ".join(cols) + "\n"
    table.write_text("".join(lines))
    return ()


def _edited_source(path, out, monkeypatch, tmp_path):
    # identity.py, which the grid's stamp of three modules used to leave out
    edited = tmp_path / "sources"
    edited.mkdir()
    for source in tables._SOURCES.glob("*.py"):
        data = source.read_bytes()
        (edited / source.name).write_bytes(data + b"# edited\n" if source.stem == "identity" else data)
    monkeypatch.setattr(tables, "_SOURCES", edited)
    return ()


def _other_numpy(path, out, monkeypatch, tmp_path):
    monkeypatch.setattr(np, "__version__", "0.0.0")
    return ()


def _flip_body(target):
    data = bytearray(target.read_bytes())
    data[-2] ^= 0x01
    target.write_bytes(bytes(data))


_RESIDUAL_MISSES = {
    "probe": _edit_config("point = 0.31,-0.12,0.47", "point = 0.31,-0.12,0.48"),
    "pair": _edit_config("pair = 0.4,1.5", "pair = 0.4,1.6"),
    "seed": lambda path, out, mp, tmp: ("--seed", "1"),
    "surface-tsv": _edited_surface,
    "flipped-body": _edit_file(_flip_body),
    "truncated": _edit_file(lambda p: p.write_bytes(p.read_bytes()[:-8])),
    "count": _edit_file(lambda p: _rewrite_residuals(p, extra=1)),
    # the key layout that held the config's sphere level (2) ahead of the rest
    "sphere-level": _edit_file(lambda p: _rewrite_residuals(p, prefix=struct.pack("<q", 2))),
    "edited-source": _edited_source,
    "numpy-version": _other_numpy,
}


@pytest.mark.parametrize("case", sorted(_RESIDUAL_MISSES))
def test_pair_residuals_misses_recompute(tmp_path, monkeypatch, capsys, case):
    # the companion was written for other inputs, or is damaged: the suite
    # builds its probe terms and prints what a run without it prints
    text = _TINY
    if case == "seed":
        # random probes, drawn from the seed
        text = re.sub(r"point = .*\n", "", text)
    path, out = _tiny_run(tmp_path, text=text)
    assert main(["monotonicity", "--config", str(path)]) in (0, 1)
    args = _RESIDUAL_MISSES[case](path, out, monkeypatch, tmp_path)
    built = _counting_terms(monkeypatch)
    got = _suite(capsys, path, *args)
    assert built
    (out / tables.PAIR_RESIDUALS).unlink()
    assert _suite(capsys, path, *args) == got


def test_pair_residuals_ignore_the_plane_grid(tmp_path, monkeypatch, capsys):
    # plane_grid is accepted and ignored: a config that differs only in it
    # reads the residuals monotonicity stored, and prints the same
    path, out = _tiny_run(tmp_path)
    assert main(["monotonicity", "--config", str(path)]) in (0, 1)
    computed = _suite(capsys, path)
    path.write_text(path.read_text().replace("plane_grid = 32", "plane_grid = 40"))
    built = _counting_terms(monkeypatch)
    assert _suite(capsys, path) == computed
    assert built == []


def test_pair_residuals_ignore_the_sphere_level(tmp_path, monkeypatch, capsys):
    # sphere_level is accepted and ignored: a config that differs only in it
    # reads the residuals monotonicity stored, and prints the same
    path, out = _tiny_run(tmp_path)
    assert main(["monotonicity", "--config", str(path)]) in (0, 1)
    computed = _suite(capsys, path)
    path.write_text(path.read_text().replace("sphere_level = 2", "sphere_level = 3"))
    built = _counting_terms(monkeypatch)
    assert _suite(capsys, path) == computed
    assert built == []


@pytest.mark.parametrize("level", ["0", "8"])
def test_sphere_level_is_accepted_and_ignored(tmp_path, capsys, level):
    # the wetted measure has no grid, so a sphere level in its range sizes
    # nothing; the outputs equal those of the same config at level 2
    outputs = []
    text = _ball_text(tmp_path / "out", _TINY)
    for text in (text, text.replace("sphere_level = 2", f"sphere_level = {level}")):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        codes = [main([c, "--config", str(path)]) for c in ("generate", "energy", "monotonicity")]
        outputs.append((codes, capsys.readouterr().out, (tmp_path / "out" / "energy.json").read_bytes()))
    assert outputs[0][0][:2] == [0, 0] and outputs[1] == outputs[0]


def test_stored_nan_residual_fails_the_suite(tmp_path, monkeypatch, capsys):
    # a NaN behind a valid key and CRC is read, and it fails the gate
    path, out = _tiny_run(tmp_path)
    assert main(["monotonicity", "--config", str(path)]) in (0, 1)
    _rewrite_residuals(out / tables.PAIR_RESIDUALS, values=[float("nan"), 0.0])
    built = _counting_terms(monkeypatch)
    code, stdout = _suite(capsys, path)
    assert built == []
    assert code == 1
    assert "FAIL two-radius-identity: nan" in stdout
    assert [line.split()[1] for line in stdout.splitlines() if line.startswith("FAIL")] == ["two-radius-identity:"]
