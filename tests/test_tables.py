"""Interchange formats: sample tables, profile CSV, report JSON, config."""

import json
import struct
import sys
import tempfile
from dataclasses import fields, replace
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
from capmono.wetted import OrientedCurve, WettedRegion, curve_from_boundary, wetted_region


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


_TABLE_HEAD = tables._header(1)
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
plane_grid = 512
sphere_level = 6
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
    assert keys == {f.name for f in fields(tables.RunConfig)} - {"probes", "pairs"} | {"point", "pair"}
    # the removed threads key parses to the same config when it is 1
    assert tables.parse_config(_CANONICAL + "threads = 1\n") == cfg


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
        "[quadrature]\nplane_grid = 7\n",
        "[quadrature]\nplane_grid = 2049\n",
        "[quadrature]\nsphere_level = -1\n",
        "[quadrature]\nsphere_level = 9\n",
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


# -- wetted grid companion ---------------------------------------------------------


def _grid_surface(stock, wetting):
    return stock.cap(2 * np.pi / 3)[0] if wetting == "plane" else stock.capball(2 * np.pi / 3, np.pi / 3)[0]


def _counting_builds(monkeypatch):
    """Record every grid build: each one finds its curve band exactly once."""
    from capmono import wetted

    builds = []
    near_curve = wetted._near_curve

    def counting(*args, **kwargs):
        builds.append(1)
        return near_curve(*args, **kwargs)

    monkeypatch.setattr(wetted, "_near_curve", counting)
    return builds


def _assert_same_grid(got, expect):
    for a, b in zip(got, expect, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "wetting, key, value",
    [("sphere", "sphere_level", level) for level in (3, 4, 5, 6)] + [("plane", "grid_n", n) for n in (64, 512)],
)
def test_grid_companion_hit_equals_a_fresh_build(stock, tmp_path, monkeypatch, wetting, key, value):
    surface = _grid_surface(stock, wetting)
    store = tables.GridCompanion(tmp_path / tables.GRID_COMPANION)
    fresh = wetted_region(surface, **{key: value}).grid()
    _assert_same_grid(wetted_region(surface, **{key: value}, store=store).grid(), fresh)
    assert store.path.exists()
    builds = _counting_builds(monkeypatch)
    got = wetted_region(surface, **{key: value}, store=store).grid()
    assert builds == []
    _assert_same_grid(got, fresh)
    assert got[0].flags.f_contiguous == fresh[0].flags.f_contiguous


@pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize("wetting", ["plane", "sphere"])
def test_grid_is_the_same_before_and_after_wetted_nodes(stock, tmp_path, wetting, stored):
    # the region keeps only the compact winding and lays the grid out on
    # each call, so what it was asked first must not change the arrays: a
    # build, a companion read and the extraction of the wetted nodes all
    # leave the same four arrays
    surface = _grid_surface(stock, wetting)
    store = tables.GridCompanion(tmp_path / tables.GRID_COMPANION) if stored else None
    first = wetted_region(surface, grid_n=64, sphere_level=3, store=store)
    before = first.grid()
    first.wetted_nodes()
    _assert_same_grid(first.grid(), before)
    later = wetted_region(surface, grid_n=64, sphere_level=3, store=store)
    later.wetted_nodes()
    after = later.grid()
    _assert_same_grid(after, before)
    assert after[0].flags.f_contiguous == before[0].flags.f_contiguous
    assert store is None or store.path.is_file()


def _ulp_moved(region):
    curve = region.curves[0]
    points = curve.points.copy()
    points[7, 0] = np.nextafter(points[7, 0], np.inf)
    return replace(region, curves=(replace(curve, points=points),))


def _edited_sources(monkeypatch, tmp_path, module="geometry"):
    """Stamp a copy of the package's sources with one module edited."""
    edited = tmp_path / "sources"
    edited.mkdir()
    for path in tables._SOURCES.glob("*.py"):
        data = path.read_bytes()
        (edited / path.name).write_bytes(data + b"# edited\n" if path.stem == module else data)
    monkeypatch.setattr(tables, "_SOURCES", edited)


def _edited_source(region, monkeypatch, tmp_path):
    _edited_sources(monkeypatch, tmp_path)
    return region


def _other_numpy(region, monkeypatch, tmp_path):
    monkeypatch.setattr(np, "__version__", "0.0.0")
    return region


def _flip_grid_body(path):
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))


def _into_directory(path):
    path.unlink()
    path.mkdir()


_GRID_HEAD = tables._header(3)


def _flip_grid_key(path):
    # the last byte of the stored key, behind an intact header
    data = bytearray(path.read_bytes())
    data[_GRID_HEAD.size + _GRID_HEAD.unpack_from(data)[1] - 1] ^= 0x01
    path.write_bytes(bytes(data))


def _parent_grid_layout(path):
    """Rewrite the grid companion as the previous format wrote it: magic
    CAPMGRD1, the key's length, n, m and the body's crc32, then the key and the body."""
    data = path.read_bytes()
    _, key_len, n, m, _, crc = _GRID_HEAD.unpack_from(data)
    path.write_bytes(struct.pack("<8sQQQI", b"CAPMGRD1", key_len, n, m, crc) + data[_GRID_HEAD.size :])


# each case edits the base region (a plane or a sphere region of the
# wetting surface it names) or the companion its grid left
_GRID_MISSES = {
    "grid-n": ("plane", lambda r, mp, tmp: replace(r, grid_n=65), None),
    "grid-n-on-the-sphere": ("sphere", lambda r, mp, tmp: replace(r, grid_n=65), None),
    "sphere-level": ("sphere", lambda r, mp, tmp: replace(r, sphere_level=4), None),
    "sphere-level-on-the-plane": ("plane", lambda r, mp, tmp: replace(r, sphere_level=4), None),
    "wetting": ("sphere", lambda r, mp, tmp: replace(r, wetting="plane"), None),
    "boundary-ulp": ("plane", lambda r, mp, tmp: _ulp_moved(r), None),
    "boundary-ulp-on-the-sphere": ("sphere", lambda r, mp, tmp: _ulp_moved(r), None),
    "edited-source": ("plane", _edited_source, None),
    "numpy-version": ("plane", _other_numpy, None),
    "wrong-magic": ("plane", None, lambda p: p.write_bytes(b"CAPMCMP0" + p.read_bytes()[8:])),
    "flipped-key": ("sphere", None, _flip_grid_key),
    "truncated": ("plane", None, lambda p: p.write_bytes(p.read_bytes()[:-8])),
    "extended": ("plane", None, lambda p: p.write_bytes(p.read_bytes() + bytes(8))),
    "flipped-body": ("sphere", None, _flip_grid_body),
    "empty": ("plane", None, lambda p: p.write_bytes(b"")),
    "directory": ("sphere", None, _into_directory),
}


@pytest.mark.parametrize("case", sorted(_GRID_MISSES))
def test_grid_companion_misses_rebuild(stock, tmp_path, monkeypatch, case):
    wetting, edit_region, edit_file = _GRID_MISSES[case]
    surface = _grid_surface(stock, wetting)
    store = tables.GridCompanion(tmp_path / "out" / tables.GRID_COMPANION)
    store.path.parent.mkdir()
    base = wetted_region(surface, grid_n=64, sphere_level=3, store=store)
    base.grid()
    region = replace(base)
    if edit_region is not None:
        region = edit_region(region, monkeypatch, tmp_path)
    if edit_file is not None:
        edit_file(store.path)
    expect = replace(region, store=None).grid()
    builds = _counting_builds(monkeypatch)
    _assert_same_grid(region.grid(), expect)
    assert builds == [1]
    if case == "directory":
        # the write failed and left nothing behind
        assert store.path.is_dir() and sorted(p.name for p in store.path.parent.iterdir()) == [store.path.name]
    else:
        # the rebuilt grid replaced the companion, and is served from it
        builds.clear()
        _assert_same_grid(replace(region).grid(), expect)
        assert builds == []



def test_grid_companion_stores_the_winding_as_int8(stock, tmp_path):
    store = tables.GridCompanion(tmp_path / tables.GRID_COMPANION)
    wind = wetted_region(_grid_surface(stock, "plane"), grid_n=64, store=store).grid()[2]
    data = store.path.read_bytes()
    _, key_len, n, m, m_values, _ = _GRID_HEAD.unpack_from(data)
    assert n == len(wind) and m == m_values > 0
    assert len(data) == _GRID_HEAD.size + key_len + n + 16 * m


def _stacked_circles(copies, ccw=True):
    """A region whose grid winds ``copies`` times (or ``-copies``) inside the unit circle."""
    t = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    s = 1.0 if ccw else -1.0
    zero = np.zeros(len(t))
    curve = OrientedCurve(
        np.column_stack([np.cos(s * t), np.sin(s * t), zero]),
        np.column_stack([-s * np.sin(s * t), s * np.cos(s * t), zero]),
        np.full(len(t), 2 * np.pi / len(t)),
    )
    return WettedRegion((curve,) * copies, grid_n=32)


@pytest.mark.parametrize("copies, ccw", [(127, True), (128, False), (128, True), (129, False)])
def test_grid_winding_past_int8_is_rebuilt_not_stored(tmp_path, monkeypatch, copies, ccw):
    store = tables.GridCompanion(tmp_path / tables.GRID_COMPANION)
    region = replace(_stacked_circles(copies, ccw), store=store)
    expect = replace(region, store=None).grid()
    # the region compacts the winding and hands the store only an int8 one
    handed = []
    save = tables.GridCompanion.save
    monkeypatch.setattr(
        tables.GridCompanion, "save", lambda self, r, wind, *band: handed.append(wind.dtype) or save(self, r, wind, *band)
    )
    got = region.grid()
    _assert_same_grid(got, expect)
    assert np.max(np.abs(got[2])) == copies
    stored = -128 <= copies * (1 if ccw else -1) <= 127
    assert handed == ([np.dtype(np.int8)] if stored else [])
    assert store.path.exists() == stored
    # and the store writes nothing but an int8 winding
    with pytest.raises(TypeError, match="int8"):
        save(store, region, got[2], np.zeros(0, dtype=np.int64), np.zeros(0))
    assert store.path.exists() == stored
    builds = _counting_builds(monkeypatch)
    _assert_same_grid(replace(region).grid(), expect)
    assert builds == ([] if stored else [1])
    assert store.path.exists() == stored

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
    # energy needs |T|, monotonicity and identity-suite the eta terms: the
    # first builds the grid and the others read it
    from capmono.cli import main

    path, out = _tiny_config(tmp_path, "ball")
    assert main(["generate", "--config", path]) == 0
    builds = _counting_builds(monkeypatch)
    codes = {command: main([command, "--config", path]) for command in ("energy", "monotonicity", "identity-suite")}
    assert codes["energy"] == 0 and set(codes.values()) <= {0, 1}
    assert (out / "energy.json").exists()
    assert builds == [1]
    assert (out / tables.GRID_COMPANION).exists()


def test_halfspace_energy_leaves_the_grid_companion_alone(tmp_path, monkeypatch, capsys):
    from capmono.cli import main

    path, out = _tiny_config(tmp_path, "halfspace")
    assert main(["generate", "--config", path]) == 0

    def refuse(*args):
        raise AssertionError("the grid companion was touched")

    monkeypatch.setattr(tables.GridCompanion, "load", refuse)
    monkeypatch.setattr(tables.GridCompanion, "save", refuse)
    assert main(["energy", "--config", path]) == 0
    assert not (out / tables.GRID_COMPANION).exists()


def test_deleted_grid_companion_is_rewritten_with_the_same_bytes(tmp_path, capsys):
    from capmono.cli import main

    path, out = _tiny_config(tmp_path, "halfspace")
    assert main(["generate", "--config", path]) == 0
    assert main(["monotonicity", "--config", path]) in (0, 1)
    companion = out / tables.GRID_COMPANION
    first = companion.read_bytes()
    companion.unlink()
    assert main(["monotonicity", "--config", path]) in (0, 1)
    assert companion.read_bytes() == first


@pytest.mark.parametrize("ambient", ["halfspace", "ball"])
def test_parent_layout_companions_are_misses_with_the_same_outputs(tmp_path, monkeypatch, capsys, ambient):
    # companions in the previous layout (CAPMTBL1, CAPMGRD1) are read past:
    # the tables come from their text, the grid is built again and its
    # companion rewritten in the current layout
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
    grid = (out / tables.GRID_COMPANION).read_bytes()
    for name in bins:
        (out / name).write_bytes(_parent_table_layout(current[name]))
    _parent_grid_layout(out / tables.GRID_COMPANION)
    for stem, width in widths.items():
        tsv = out / f"{stem}.tsv"
        assert tables._companion_columns(tsv, tables._text_sum(tsv), width) is None
    builds = _counting_builds(monkeypatch)
    assert run_all() == reference
    assert builds == [1]
    assert (out / tables.GRID_COMPANION).read_bytes() == grid
