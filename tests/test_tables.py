"""Interchange formats: sample tables, profile CSV, report JSON, config."""

import json
import struct
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmono import energy as en
from capmono import halfspace as hs
from capmono import tables
from capmono.errors import ConfigError
from capmono.surfaces import sample_chart, spherical_cap_halfspace
from capmono.wetted import curve_from_boundary


def test_surface_roundtrip(stock, tmp_path):
    surface, _ = stock.cap(2 * np.pi / 3)
    spath, bpath = tmp_path / "s.tsv", tmp_path / "b.tsv"
    tables.save_surface(surface, spath)
    tables.save_boundary(surface, bpath)
    back = tables.load_surface(spath, bpath)
    assert np.array_equal(back.points, surface.points)
    assert np.array_equal(back.weights, surface.weights)
    assert np.array_equal(back.normals, surface.normals)
    assert np.array_equal(back.mean_curvature, surface.mean_curvature)
    assert np.array_equal(back.gauss_curvature, surface.gauss_curvature)
    assert np.array_equal(back.boundary_conormals, surface.boundary_conormals)
    assert np.array_equal(back.boundary_kg, surface.boundary_kg)
    assert back.ambient.kind == surface.ambient.kind
    assert back.theta == surface.theta
    assert back.euler_characteristic == surface.euler_characteristic


def test_curve_roundtrip(stock, tmp_path):
    # the curve table is text only: its rows parse back to the curve's
    # arrays bit for bit, and it has no binary companion
    surface, _ = stock.cap(np.pi / 2)
    curve = curve_from_boundary(surface)
    path = tmp_path / "curve.tsv"
    tables.save_curve(curve, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.tsv"]
    head = path.read_text().splitlines()[:3]
    assert head == ["# capmono curve table v1", "# closed=1", f"# columns: {tables.CURVE_COLUMNS}"]
    rows = np.loadtxt(path, comments="#", ndmin=2)
    assert rows.tobytes() == np.column_stack([curve.points, curve.tangents, curve.weights]).tobytes()


# signed zeros, subnormals, the largest finite magnitudes and infinities
_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1.8e308, -1.8e308, np.inf, -np.inf])


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 9000])
def test_table_rows_match_savetxt(tmp_path, count):
    # the blocked writer prints the bytes np.savetxt(fmt="%.17g") prints,
    # on both sides of every block boundary
    rng = np.random.default_rng(count)
    rows = rng.standard_normal((count, 12)) * 10.0 ** rng.integers(-300, 300, (count, 12))
    extreme = rng.random((count, 12)) < 0.5
    rows[extreme] = rng.choice(_EXTREMES, int(extreme.sum()))
    path = tmp_path / "t.tsv"
    tables._save_table(path, ["head", "columns: a b"], rows)
    with (tmp_path / "ref.tsv").open("w", newline="\n") as fh:
        fh.write("# head\n# columns: a b\n")
        np.savetxt(fh, rows, fmt="%.17g")
    assert path.read_bytes() == (tmp_path / "ref.tsv").read_bytes()


@pytest.mark.parametrize("tail", ["", "\n", "\n\n   \n", "\n# a comment\n\t\n"])
def test_table_without_rows_is_refused(stock, tmp_path, tail):
    # a header followed by nothing but blank and comment lines has no rows;
    # np.loadtxt would only warn and return an array of shape (0, 1)
    surface, _ = stock.cap(np.pi / 2)
    path = tmp_path / "surface.tsv"
    tables.save_surface(surface, path)
    header = "".join(line for line in path.read_text().splitlines(keepends=True) if line.startswith("#"))
    path.write_text(header + tail)
    with pytest.raises(ConfigError, match="the table has no rows"):
        tables._load_table(path, tables.SURFACE_COLUMNS)


def test_table_that_is_not_text_is_refused(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"# columns: a\n\xff\xfe 1.5\n")
    with pytest.raises(ConfigError, match="the table is not text"):
        tables._load_table(path, "a")


def test_companion_hit_never_holds_the_text(tmp_path):
    # on a companion hit the texts are checksummed block by block and read
    # only up to their first row, so load_surface peaks at most 1.5 times
    # the columns it keeps.  On the probe-sweep tables (a 192 x 192 cap)
    # with numpy 2.4 it reads 1.33 times (4.7 MB against 3.6 MB kept);
    # holding each text whole to checksum it read 3.2 times (11.4 MB)
    import tracemalloc

    surface = sample_chart(spherical_cap_halfspace(np.pi / 3), 192, 192)
    spath, bpath = tmp_path / "surface.tsv", tmp_path / "boundary.tsv"
    tables.save_surface(surface, spath)
    tables.save_boundary(surface, bpath)
    tracemalloc.start()
    try:
        back = tables.load_surface(spath, bpath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.points.tobytes() == surface.points.tobytes()
    kept = 12 * 8 * (len(back.points) + len(back.boundary_points))
    assert peak <= 1.5 * kept


def test_companion_miss_parses_straight_into_the_columns(tmp_path):
    # with both companions deleted the texts are parsed block by block into
    # preallocated columns, so load_surface peaks at most 1.4 times the
    # columns it keeps.  On the probe-sweep tables (a 192 x 192 cap) with
    # numpy 2.4 it reads 1.33 times (4.7 MB against 3.6 MB kept); parsing
    # the whole text into rows and transposing them read 1.99 times (7.1 MB)
    import tracemalloc

    surface = sample_chart(spherical_cap_halfspace(np.pi / 3), 192, 192)
    spath, bpath = tmp_path / "surface.tsv", tmp_path / "boundary.tsv"
    tables.save_surface(surface, spath)
    tables.save_boundary(surface, bpath)
    hit = tables.load_surface(spath, bpath)
    for path in (spath, bpath):
        path.with_suffix(".bin").unlink()
    tracemalloc.start()
    try:
        back = tables.load_surface(spath, bpath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in ("points", "weights", "normals", "mean_curvature", "boundary_points", "boundary_kg_wetting"):
        got, expect = getattr(back, name), getattr(hit, name)
        assert got.tobytes() == expect.tobytes() and got.strides == expect.strides, name
    kept = 12 * 8 * (len(back.points) + len(back.boundary_points))
    assert peak <= 1.4 * kept


_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]),
)


_TABLES = st.integers(1, 12).flatmap(
    lambda k: st.lists(st.lists(_DOUBLES, min_size=k, max_size=k), min_size=1, max_size=30)
)


@settings(max_examples=40, deadline=None)
@given(_TABLES)
def test_companion_columns_equal_parsed_text(table):
    # %.17g round-trips every finite double, so the companion holds the
    # very columns the text parses to: bits, shape and layout
    rows = np.array(table, dtype=float)
    columns = " ".join(f"c{j}" for j in range(rows.shape[1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        tables._save_table(path, ["head", f"columns: {columns}"], rows)
        assert tables._companion_columns(path, tables._text_sum(path), rows.shape[1]) is not None
        _, fast, _ = tables._load_table(path, columns)
        path.with_suffix(".bin").unlink()
        _, parsed, _ = tables._load_table(path, columns)
    for cols in (fast, parsed):
        assert cols.shape == rows.T.shape and cols.dtype == np.float64
        assert cols.flags.c_contiguous and cols.flags.writeable
        assert cols.tobytes() == np.ascontiguousarray(rows.T).tobytes()


def test_edited_table_is_read_from_its_text(tmp_path):
    # one digit changed at the same length: the companion no longer
    # matches the text, which is what gets read
    path = tmp_path / "t.tsv"
    tables._save_table(path, ["columns: a b"], np.array([[0.125, 1.5], [2.25, -3.0]]))
    text = path.read_text()
    path.write_text(text.replace("0.125", "0.625", 1))
    assert path.stat().st_size == len(text)
    _, cols, _ = tables._load_table(path, "a b")
    assert cols.tolist() == [[0.625, 2.25], [1.5, -3.0]]


_TABLE_HEAD = tables._HEAD
# a table companion's key: K, the text's length and its crc32
_TABLE_KEY = "<QQI"


def _swap_shape(data):
    # the key claims the transposed table, n columns of K rows
    k, length, crc = struct.unpack_from(_TABLE_KEY, data, _TABLE_HEAD.size)
    n = _TABLE_HEAD.unpack_from(data)[2] // k
    rest = data[_TABLE_HEAD.size + struct.calcsize(_TABLE_KEY) :]
    return data[: _TABLE_HEAD.size] + struct.pack(_TABLE_KEY, n, length, crc) + rest


def _flip_body(data):
    # the last byte of the body: the header still matches the text
    return data[:-1] + bytes([data[-1] ^ 1])


def _parent_table_layout(data):
    """The companion the previous format wrote for the same table: magic
    CAPMTBL1, K, n, the text's length and crc32, the body's crc32, the body."""
    _, key_len, count, body_crc = _TABLE_HEAD.unpack_from(data)
    k, length, crc = struct.unpack_from(_TABLE_KEY, data, _TABLE_HEAD.size)
    old = struct.pack("<8sQQQII", b"CAPMTBL1", k, count // k, length, crc, body_crc)
    return old + data[_TABLE_HEAD.size + key_len :]


_CORRUPTIONS = {
    "missing": None,
    "empty": lambda data: b"",
    "header-only": lambda data: data[: _TABLE_HEAD.size],
    "short-header": lambda data: data[:12],
    "truncated": lambda data: data[:-8],
    "extended": lambda data: data + bytes(8),
    "wrong-magic": lambda data: b"CAPMCMP0" + data[8:],
    "wrong-shape": _swap_shape,
    "flipped-body": _flip_body,
    "garbage": lambda data: np.random.default_rng(0).bytes(len(data)),
    "directory": "directory",
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_bad_companion_falls_back_to_the_text(stock, tmp_path, corruption):
    surface, _ = stock.cap(np.pi / 2)
    spath, bpath = tmp_path / "s.tsv", tmp_path / "b.tsv"
    tables.save_surface(surface, spath)
    tables.save_boundary(surface, bpath)
    companion = spath.with_suffix(".bin")
    edit = _CORRUPTIONS[corruption]
    data = companion.read_bytes()
    companion.unlink()
    if edit == "directory":
        companion.mkdir()
    elif edit is not None:
        companion.write_bytes(edit(data))
    assert tables._companion_columns(spath, tables._text_sum(spath), 12) is None
    back = tables.load_surface(spath, bpath)
    assert back.points.tobytes() == surface.points.tobytes()
    assert back.traceless_sq.tobytes() == surface.traceless_sq.tobytes()


def test_companion_of_a_table_without_the_tsv_suffix(tmp_path):
    # a table named *.bin has no companion: it would overwrite the table
    path = tmp_path / "t.bin"
    tables._save_table(path, ["columns: a"], np.array([[1.5], [2.5]]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.bin"]
    assert tables._load_table(path, "a")[1].tolist() == [[1.5, 2.5]]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_table_with_its_companion_is_refused(tmp_path, value):
    # the finiteness check runs on the companion's columns as on the text's
    path = tmp_path / "t.tsv"
    tables._save_table(path, ["columns: a b"], np.array([[0.5, 1.0], [float(value), 2.0]]))
    assert tables._companion_columns(path, tables._text_sum(path), 2) is not None
    with pytest.raises(ConfigError, match="t.tsv: a table entry is not finite"):
        tables._load_table(path, "a b")
    path.with_suffix(".bin").unlink()
    with pytest.raises(ConfigError, match="t.tsv: a table entry is not finite"):
        tables._load_table(path, "a b")


def test_companion_errors_match_the_text(tmp_path):
    # a table read against the wrong column names fails as its text would
    path = tmp_path / "t.tsv"
    tables._save_table(path, ["columns: a b c d e f g"], np.arange(128.0 * 7).reshape(128, 7))
    with pytest.raises(ConfigError) as fast:
        tables._load_table(path, tables.SURFACE_COLUMNS)
    path.with_suffix(".bin").unlink()
    with pytest.raises(ConfigError) as parsed:
        tables._load_table(path, tables.SURFACE_COLUMNS)
    assert str(fast.value) == str(parsed.value)
    assert "expected rows of 12 columns, got an array of shape (128, 7)" in str(parsed.value)


def test_generate_writes_identical_companions(tmp_path, capsys):
    from capmono.cli import main

    def generate(out):
        path = tmp_path / "run.cfg"
        path.write_text(f"[quadrature]\nnu = 16\nnv = 16\nplane_grid = 32\n[output]\nout_dir = {out}\n")
        assert main(["generate", "--config", str(path)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.bin"))}

    first = generate(tmp_path / "a")
    # the curve table has no reader, so it gets no companion
    assert sorted(first) == ["boundary.bin", "surface.bin"]
    # over the first run's files, and into a fresh directory
    assert generate(tmp_path / "a") == first
    assert generate(tmp_path / "b") == first


def test_imported_surface_supports_energies(stock, tmp_path):
    surface, region = stock.disk(np.pi / 3)
    tables.save_surface(surface, tmp_path / "s.tsv")
    tables.save_boundary(surface, tmp_path / "b.tsv")
    back = tables.load_surface(tmp_path / "s.tsv", tmp_path / "b.tsv")
    assert en.willmore_ball(back, region) == pytest.approx(en.willmore_ball(surface, region), abs=1e-12)
    assert en.gauss_bonnet_residual(back) == pytest.approx(en.gauss_bonnet_residual(surface), abs=1e-15)


def test_profile_csv_format(stock, tmp_path):
    surface, region = stock.cap(2 * np.pi / 3)
    prof = hs.monotonicity_profile(surface, region, [0.3, 0.1, 0.4], np.linspace(0.3, 2.0, 8))
    path = tmp_path / "profile.csv"
    tables.profile_csv(prof, path)
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "r,g,gHat,G,R,deficit,residual"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == pytest.approx(0.3)


def test_ball_profile_csv(stock, tmp_path):
    from capmono import ball as bl

    surface, region = stock.disk(np.pi / 3)
    prof = bl.monotonicity_profile(surface, region, np.zeros(3), np.linspace(0.3, 1.5, 6))
    path = tmp_path / "bp.csv"
    tables.profile_csv(prof, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,gTheta,gHatTheta,G,R,residual,branch"
    assert lines[1].endswith(",origin")
    # the general branch: the same layout, six numbers and the branch name
    contact = np.array([np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])
    prof = bl.monotonicity_profile(surface, region, contact, np.linspace(0.3, 1.5, 6))
    tables.profile_csv(prof, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,gTheta,gHatTheta,G,R,residual,branch"
    for line in lines[1:]:
        *numbers, branch = line.split(",")
        assert branch == "general"
        assert len(numbers) == 6 and all(np.isfinite(float(v)) for v in numbers)


def test_report_json(stock, tmp_path):
    surface, region = stock.disk(np.pi / 3)
    report = en.energy_report(surface, region)
    path = tmp_path / "energy.json"
    tables.report_json(report, path)
    data = json.loads(path.read_text())
    assert data["schema"] == "capmono-energy-report/1"
    assert data["ambient"] == "ball"


# a config in the canonical form: every key, in section order, LF endings
_CANONICAL = """[run]
ambient = ball
theta = 1.0471975511965976
generator = flat-disk-ball
radius = 1.0
center_x = 0.0
center_y = 0.0
colatitude = 1.5707963267948966
amplitude = 0.0
mode = 0
[probes]
point = 0.5,0.1,0.2
point = 0.0,0.0,0.0
[quadrature]
nu = 96
nv = 256
[profile]
r_min = 0.25
r_max = 4.0
r_count = 40
pair = 0.3,1.2
[output]
out_dir = out
tolerance = 0.001
seed = 0
"""


def test_config_canonical_roundtrip():
    cfg = tables.RunConfig(
        ambient="ball",
        theta=np.pi / 3,
        generator="flat-disk-ball",
        probes=((0.5, 0.1, 0.2), (0.0, 0.0, 0.0)),
        pairs=((0.3, 1.2),),
        nu=96,
        nv=256,
    )
    assert tables.parse_config(_CANONICAL) == cfg
    # the canonical form names every setting the config carries
    keys = {line.split(" = ")[0] for line in _CANONICAL.splitlines() if " = " in line}
    assert "sphere_level" not in keys
    assert keys == {f.name for f in fields(tables.RunConfig)} - {"probes", "pairs"} | {"point", "pair"}
    # the removed threads key parses to the same config when it is 1, the
    # removed plane_grid key with any integer, and the removed sphere_level
    # key with any integer in its old range [0, 8]
    assert tables.parse_config(_CANONICAL + "threads = 1\n") == cfg
    for size in (7, 512, 4096):
        text = _CANONICAL.replace("[quadrature]\n", f"[quadrature]\nplane_grid = {size}\n")
        assert tables.parse_config(text) == cfg
    for level in (0, 5, 8):
        assert tables.parse_config(_CANONICAL.replace("[quadrature]\n", f"[quadrature]\nsphere_level = {level}\n")) == cfg


def test_config_accepts_comments_and_spacing():
    text = """
[run]
ambient = halfspace   # container
theta=1.5
generator =  cap
[probes]
point = 1,0,0
[output]
out_dir = somewhere
"""
    cfg = tables.parse_config(text)
    assert cfg.theta == 1.5
    assert cfg.probes == ((1.0, 0.0, 0.0),)
    assert cfg.out_dir == "somewhere"


@pytest.mark.parametrize(
    "text",
    [
        "[run]\nunknown_key = 3\n",
        "[nonsense]\n",
        "theta = 1\n",
        "[run]\ntheta = not-a-number\n",
        "[run]\ntheta = 9.0\n",
        "[run]\nambient = wedge\n",
        "[run]\ngenerator = torus\n",
        "[run]\nambient = halfspace\ngenerator = cap-ball\n",
        "[run]\nambient = ball\ngenerator = cap\n",
        "[probes]\npoint = 1,2\n",
        "[output]\ntolerance = nan\n",
        "[output]\ntolerance = inf\n",
        "[output]\ntolerance = 0\n",
        "[output]\ntolerance = -1e-3\n",
        "[quadrature]\nplane_grid = 1.5\n",
        "[run]\nplane_grid = 512\n",
        "[quadrature]\nsphere_level = -1\n",
        "[quadrature]\nsphere_level = 9\n",
        "[quadrature]\nsphere_level = 2.5\n",
        "[run]\nsphere_level = 5\n",
        "[quadrature]\nnu = 1001\n",
        "[quadrature]\nnv = 1001\n",
        "[quadrature]\nnu = 200000\n",
        "[output]\nthreads = 2\n",
        "[output]\nthreads = 0\n",
        "[run]\nthreads = 1\n",
    ],
)
def test_config_rejects_malformed(text):
    with pytest.raises(ConfigError):
        tables.parse_config(text)


_TINY = """[run]
theta = 2.0943951023931953
[probes]
point = 0.86602540378444,0.0,0.0
point = 0.31,-0.12,0.47
[quadrature]
nu = 16
nv = 16
plane_grid = 32
sphere_level = 2
[profile]
r_min = 0.3
r_max = 3.0
r_count = 8
pair = 0.4,1.5
[output]
out_dir = OUT
tolerance = 0.005
"""
_BALL = "ambient = ball\ngenerator = flat-disk-ball\ntheta = 1.0471975511965976"


def _tiny_config(tmp_path, ambient):
    text = _TINY.replace("OUT", str(tmp_path / "out"))
    if ambient == "ball":
        text = text.replace("theta = 2.0943951023931953", _BALL)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path), tmp_path / "out"


def test_pipeline_builds_the_ball_grid_once(tmp_path, monkeypatch, capsys):
    # energy needs |T|, monotonicity and identity-suite the η terms.  The
    # sphere's wetted measure is read from its curve atoms, which took the
    # place of its grid: each command places them once, and none asks the
    # region for a grid or writes a grid companion
    from capmono import wetted
    from capmono.cli import main

    path, out = _tiny_config(tmp_path, "ball")
    assert main(["generate", "--config", path]) == 0
    builds, grids = [], []
    atoms, grid = wetted.WettedRegion.curve_atoms, wetted.WettedRegion.grid

    def counting(self):
        builds.append("atoms" not in self._cache)
        return atoms(self)

    monkeypatch.setattr(wetted.WettedRegion, "curve_atoms", counting)
    monkeypatch.setattr(wetted.WettedRegion, "grid", lambda self: grids.append(self) or grid(self))
    codes = {}
    for command in ("energy", "monotonicity", "identity-suite"):
        builds.clear()
        codes[command] = main([command, "--config", path])
        assert sum(builds) == 1, command
    assert codes["energy"] == 0 and set(codes.values()) <= {0, 1}
    assert (out / "energy.json").exists()
    assert grids == []
    assert not (out / "wetted_grid.bin").exists()


def test_halfspace_energy_leaves_the_grid_companion_alone(tmp_path, monkeypatch, capsys):
    # no command reads or writes a wetted grid companion: one that an older
    # capmono left in the output directory keeps its bytes
    from capmono import wetted
    from capmono.cli import main

    path, out = _tiny_config(tmp_path, "halfspace")
    assert main(["generate", "--config", path]) == 0

    def refuse(self):
        raise AssertionError("the region was asked for a grid")

    monkeypatch.setattr(wetted.WettedRegion, "grid", refuse)
    stale = out / "wetted_grid.bin"
    stale.write_bytes(b"CAPMCMP2" + bytes(range(64)))
    assert main(["energy", "--config", path]) == 0
    assert stale.read_bytes() == b"CAPMCMP2" + bytes(range(64))


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_parent_layout_companions_are_misses_with_the_same_outputs(tmp_path, monkeypatch, capsys, ambient):
    # table companions in the previous layout (CAPMTBL1) are read past:
    # the tables come from their text
    from capmono.cli import main

    path, out = _tiny_config(tmp_path, ambient)
    assert main(["generate", "--config", path]) == 0
    widths = {"surface": 12, "boundary": 12}
    bins = [f"{stem}.bin" for stem in widths]
    current = {name: (out / name).read_bytes() for name in bins}

    def run_all():
        commands = ("energy", "monotonicity", "identity-suite")
        runs = [(command, main([command, "--config", path]), capsys.readouterr()) for command in commands]
        return runs, {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".json", ".csv")}

    for name in bins:
        (out / name).unlink()
    capsys.readouterr()
    reference = run_all()
    for name in bins:
        (out / name).write_bytes(_parent_table_layout(current[name]))
    for stem, width in widths.items():
        tsv = out / f"{stem}.tsv"
        assert tables._companion_columns(tsv, tables._text_sum(tsv), width) is None
    assert run_all() == reference
