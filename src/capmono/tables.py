"""Structured-text interchange: surface and curve sample tables, profile
CSV exports, energy-report JSON, and the run-configuration format.

Tables are whitespace-separated with one sample per row and a commented
header carrying metadata; floats are printed with 17 significant digits so
round trips are lossless.  CSV files use '.' decimals, ',' separators, LF
line endings and 12 significant digits.

Each sample table ``name.tsv`` gets a binary companion ``name.bin``: a
fixed header (magic and version, the column count K, the row count n, the
byte length and ``zlib.crc32`` of the table's text, and the body's
``zlib.crc32``) followed by the (K, n) float64 columns, little-endian, one
contiguous row per column.  The companion is a checked cache of the parsed
text, read in place of it when its header matches the table's bytes and
its body its CRC; a table that was edited, copied in without its
companion or written by an older capmono is read from its text.  Deleting
a companion is always safe.

An output directory also gets a wetted grid companion ``wetted_grid.bin``
(``GridCompanion``), written by the first command that builds the wetted
grid and read by the later ones: a fixed header (magic and version, the
key's length, the node count, the band's cell count and the body's
``zlib.crc32``), the key, and the body: the integer winding (int64), the
antialiased band's cell indices (int64) and their values (float64), all
little-endian.  The key is the wetting surface, the plane grid size, the
sphere level, a stamp of the code that builds grids (``zlib.crc32`` of
the sources of ``wetted``, ``quadrature`` and ``geometry``, and numpy's
version) and the bytes of every curve's points, tangents and weights.  A
companion whose key differs in any byte, or whose size or body CRC is
wrong, is ignored and replaced by a fresh build; deleting it is always
safe.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import geometry, quadrature, wetted
from .errors import ConfigError
from .geometry import BALL, HALFSPACE, Ambient
from .surfaces import SampledSurface, contact_angle_residual
from .wetted import OrientedCurve, WettedRegion

_FULL = "%.17g"
_CSV = "%.12g"
# rows formatted per write of a sample table
_SAVE_BLOCK = 4096
# the companion's header: magic with version, K, n, the text's length and
# crc32, and the body's crc32
_COMPANION = struct.Struct("<8sQQQII")
_MAGIC = b"CAPMTBL1"
_BODY = np.dtype("<f8")
# the grid companion's header: magic with version, the key's length, the
# node count, the band's cell count, and the body's crc32
_GRID = struct.Struct("<8sQQQI")
_GRID_MAGIC = b"CAPMGRD1"
_GRID_BODY = (np.dtype("<i8"), np.dtype("<i8"), np.dtype("<f8"))
GRID_COMPANION = "wetted_grid.bin"

SURFACE_COLUMNS = "x1 x2 x3 weight nu1 nu2 nu3 H1 H2 H3 K Aring2"
BOUNDARY_COLUMNS = "x1 x2 x3 t1 t2 t3 c1 c2 c3 arcweight kg kg_wetting"
CURVE_COLUMNS = "x1 x2 x3 t1 t2 t3 weight"

# the largest wetted grids and chart resolutions whose single-threaded
# monotonicity run on the benchmark configs peaks under 1 GB (666 MB at
# plane_grid 2048 on probe-sweep, 340 MB at sphere_level 8, 920 MB on
# ball-cap at nu = nv = 1000, where it was 958 MB before the radial
# prefixes summed their scaled keys in place); the next plane step is
# about four times larger, and nu = nv = 1024 peaks at 963 MB (1003 MB
# before)
MAX_PLANE_GRID = 2048
MAX_SPHERE_LEVEL = 8
MAX_NU_NV = 1000

# the ambient of the surface each generator builds
GENERATOR_AMBIENT = {"cap": HALFSPACE, "flat-disk-ball": BALL, "cap-ball": BALL}


def _companion_path(path) -> Path | None:
    """The binary companion of a table; None when it would be the table itself."""
    path = Path(path)
    companion = path.with_suffix(".bin")
    return None if companion == path else companion


def _save_table(path, header: list[str], rows: np.ndarray) -> None:
    """Write the header lines and the rows, as ``np.savetxt(fmt="%.17g")`` does,
    and the table's binary companion.

    Rows go out in blocks of ``_SAVE_BLOCK``, each formatted by one ``%``
    on its flattened values, instead of one ``%`` per row; the blocks keep
    the temporaries bounded.  The text's length and CRC are taken from the
    blocks as they are written, and the companion's body one column at a
    time, its CRC going into the header last.
    """
    row = " ".join([_FULL] * rows.shape[1]) + "\n"

    def texts():
        yield "".join(f"# {line}\n" for line in header)
        for start in range(0, len(rows), _SAVE_BLOCK):
            block = rows[start : start + _SAVE_BLOCK]
            yield row * len(block) % tuple(block.ravel().tolist())

    length, crc = 0, 0
    with Path(path).open("wb") as fh:
        for text in texts():
            data = text.encode()
            fh.write(data)
            length += len(data)
            crc = zlib.crc32(data, crc)
    companion = _companion_path(path)
    if companion is None:
        return
    body_crc = 0
    with companion.open("wb") as fh:
        fh.seek(_COMPANION.size)
        for column in rows.T:
            column = np.ascontiguousarray(column, dtype=_BODY)
            fh.write(column)
            body_crc = zlib.crc32(column, body_crc)
        fh.seek(0)
        fh.write(_COMPANION.pack(_MAGIC, rows.shape[1], len(rows), length, crc, body_crc))


def _read_companion(path, text: bytes, width: int) -> np.ndarray | None:
    """The (width, n) columns the companion of ``path`` holds for this text, else None.

    The companion is used only when its header parses, it holds ``width``
    columns, its size is exact, the recorded length and CRC are those of
    ``text``, and the body's CRC is the recorded one; anything else, an
    unreadable file included, returns None and never raises.
    """
    companion = _companion_path(path)
    if companion is None:
        return None
    try:
        with companion.open("rb") as fh:
            magic, k, n, length, crc, body_crc = _COMPANION.unpack(fh.read(_COMPANION.size))
            if (
                magic != _MAGIC
                or k != width
                or n < 1
                or length != len(text)
                or crc != zlib.crc32(text)
                or fh.seek(0, io.SEEK_END) != _COMPANION.size + k * n * _BODY.itemsize
            ):
                return None
            fh.seek(_COMPANION.size)
            # a file cut short since the size check fails the reshape
            body = np.fromfile(fh, dtype=_BODY, count=k * n).reshape(k, n)
    except (OSError, ValueError, struct.error):
        return None
    if zlib.crc32(body) != body_crc:
        return None
    return body.astype(float, copy=False)


def _load_table(path, columns: str) -> tuple[list[str], np.ndarray]:
    """The leading comment lines (without '# ') and the columns of a table.

    The table is returned transposed, one contiguous row per column, so
    every column a caller takes is a contiguous view.  The columns come
    from the table's companion when it matches the table's bytes, and from
    the parsed text otherwise; the checks below run on either.  A table
    whose bytes do not decode, without rows, with an entry that is not a
    finite number, or with another number of columns than ``columns``
    names raises ConfigError.
    """
    text = Path(path).read_bytes()
    header = []
    try:
        with io.TextIOWrapper(io.BytesIO(text)) as fh:
            line = next(fh, "")
            while line.startswith("#"):
                header.append(line[1:].strip())
                line = next(fh, "")
            # the first row is the first line with text before any '#';
            # np.loadtxt would only warn on a table without one
            while line and not line.split("#", 1)[0].strip():
                line = next(fh, "")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: the table is not text: {exc}") from None
    if not line:
        raise ConfigError(f"{path}: the table has no rows")
    width = len(columns.split())
    cols = _read_companion(path, text, width)
    if cols is None:
        try:
            rows = np.loadtxt(io.TextIOWrapper(io.BytesIO(text)), comments="#", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: unreadable rows: {exc}") from None
        cols = np.ascontiguousarray(rows.T)
    if len(cols) != width:
        raise ConfigError(f"{path}: expected rows of {width} columns, got an array of shape {cols.T.shape}")
    # min and max carry any NaN or infinity, without a full-size temporary
    if not np.isfinite(cols.min()) or not np.isfinite(cols.max()):
        raise ConfigError(f"{path}: a table entry is not finite")
    return header, cols


class GridCompanion:
    """The wetted grid companion at ``path``: the store of ``WettedRegion``.

    ``load`` returns the stored windings only when the file's magic, key,
    size and body CRC all match, and None otherwise; an unreadable file
    returns None and never raises.  ``save`` writes a temporary file
    beside ``path`` and renames it over ``path``, so a reader sees the old
    file or the new one, never a part; a failed write is ignored.
    """

    def __init__(self, path):
        self.path = Path(path)

    @staticmethod
    def _key(region: WettedRegion) -> bytes:
        """The bytes a stored grid must have been built from."""
        stamp = 0
        for module in (wetted, quadrature, geometry):
            stamp = zlib.crc32(Path(module.__file__).read_bytes(), stamp)
        version = np.__version__.encode()
        parts = [
            struct.pack("<8sqqIQ", region.wetting.encode(), region.grid_n, region.sphere_level, stamp, len(version)),
            version,
        ]
        for curve in region.curves:
            for arr in (curve.points, curve.tangents, curve.weights):
                parts.append(struct.pack(f"<Q{arr.ndim}Q", arr.ndim, *arr.shape))
                parts.append(np.asarray(arr, dtype=_BODY).tobytes())
        return b"".join(parts)

    def load(self, region: WettedRegion) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The integer winding, the band cells and their values, if stored for ``region``."""
        try:
            key = self._key(region)
            with self.path.open("rb") as fh:
                magic, key_len, n, m, body_crc = _GRID.unpack(fh.read(_GRID.size))
                counts = (n, m, m)
                body = sum(count * dtype.itemsize for count, dtype in zip(counts, _GRID_BODY))
                if (
                    magic != _GRID_MAGIC
                    or key_len != len(key)
                    or fh.read(key_len) != key
                    or fh.seek(0, io.SEEK_END) != _GRID.size + key_len + body
                ):
                    return None
                fh.seek(_GRID.size + key_len)
                wind, cells, values = (np.fromfile(fh, dtype=d, count=c) for c, d in zip(counts, _GRID_BODY))
        except (OSError, ValueError, struct.error):
            return None
        crc = 0
        for arr in (wind, cells, values):
            crc = zlib.crc32(arr, crc)
        # a file cut short since the size check reads short arrays
        if crc != body_crc or [len(wind), len(cells), len(values)] != [n, m, m]:
            return None
        return wind.astype(np.int64, copy=False), cells.astype(np.int64, copy=False), values.astype(float, copy=False)

    def save(self, region: WettedRegion, wind: np.ndarray, cells: np.ndarray, values: np.ndarray) -> None:
        """Write the windings of ``region``'s grid; any OSError leaves no file behind and is ignored."""
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        try:
            key = self._key(region)
            body = [np.ascontiguousarray(a, dtype=d) for a, d in zip((wind, cells, values), _GRID_BODY)]
            crc = 0
            for arr in body:
                crc = zlib.crc32(arr, crc)
            with tmp.open("wb") as fh:
                fh.write(_GRID.pack(_GRID_MAGIC, len(key), len(wind), len(cells), crc))
                fh.write(key)
                for arr in body:
                    fh.write(arr)
            os.replace(tmp, self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass


def save_surface(surface: SampledSurface, path) -> None:
    """Write the interior sample table (one sample per row)."""
    rows = np.column_stack(
        [
            surface.points,
            surface.weights,
            surface.normals,
            surface.mean_curvature,
            surface.gauss_curvature,
            surface.traceless_sq,
        ]
    )
    header = [
        "capmono surface table v1",
        f"ambient={surface.ambient.kind} theta={_FULL % surface.theta} "
        f"chi={surface.euler_characteristic} generator={surface.metadata.get('generator', '?')}",
        f"columns: {SURFACE_COLUMNS}",
    ]
    _save_table(path, header, rows)


def save_boundary(surface: SampledSurface, path) -> None:
    """Write the boundary sample table (frame, weights and curvatures)."""
    rows = np.column_stack(
        [
            surface.boundary_points,
            surface.boundary_tangents,
            surface.boundary_conormals,
            surface.boundary_weights,
            surface.boundary_kg,
            surface.boundary_kg_wetting,
        ]
    )
    _save_table(path, ["capmono boundary table v1", f"columns: {BOUNDARY_COLUMNS}"], rows)


def load_surface(surface_path, boundary_path) -> SampledSurface:
    """Rebuild a surface from its two sample tables.

    A header without the ambient or a numeric theta, or a malformed table,
    raises ConfigError.
    """
    header, cols = _load_table(surface_path, SURFACE_COLUMNS)
    meta = {}
    for body in header:
        if body.startswith("ambient="):
            meta.update(tok.partition("=")[::2] for tok in body.split())
    _, bcols = _load_table(boundary_path, BOUNDARY_COLUMNS)
    try:
        ambient = Ambient(meta["ambient"], float(meta["theta"]))
        chi = int(meta.get("chi", 1))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{surface_path}: bad or missing ambient=, theta= or chi=: {exc}") from None
    surface = SampledSurface(
        ambient=ambient,
        points=cols[0:3].T,
        weights=cols[3],
        normals=cols[4:7].T,
        mean_curvature=cols[7:10].T,
        gauss_curvature=cols[10],
        traceless_sq=cols[11],
        boundary_points=bcols[0:3].T,
        boundary_tangents=bcols[3:6].T,
        boundary_conormals=bcols[6:9].T,
        boundary_weights=bcols[9],
        boundary_kg=bcols[10],
        boundary_kg_wetting=bcols[11],
        euler_characteristic=chi,
        metadata={"generator": meta.get("generator", "imported")},
    )
    surface.metadata["contact_residual"] = contact_angle_residual(surface)
    return surface


def save_curve(curve: OrientedCurve, path) -> None:
    rows = np.column_stack([curve.points, curve.tangents, curve.weights])
    header = ["capmono curve table v1", f"closed={int(curve.closed)}", f"columns: {CURVE_COLUMNS}"]
    _save_table(path, header, rows)


def load_curve(path) -> OrientedCurve:
    """Rebuild a curve from its table; a ``closed=`` other than 0 or 1 raises ConfigError."""
    header, cols = _load_table(path, CURVE_COLUMNS)
    closed = True
    for body in header:
        if "closed=" in body:
            flag = body.split("=", 1)[1]
            if flag not in ("0", "1"):
                raise ConfigError(f"{path}: closed= must be 0 or 1, got {flag!r}")
            closed = flag == "1"
    return OrientedCurve(cols[0:3].T, cols[3:6].T, cols[6], closed=closed)


# -- profile CSV ----------------------------------------------------------------


def profile_csv(profile, path) -> np.ndarray:
    """Write a monotonicity profile as CSV (half-space or ball layout).

    Returns the numeric table written, one row per radius.
    """
    if profile.branch is None:
        header = "r,g,gHat,G,R,deficit,residual"
        columns = (profile.deficit, profile.residual)
        end = "\n"
    else:
        header = "r,gTheta,gHatTheta,G,R,residual,branch"
        columns = (profile.residual,)
        # the ball layout has no deficit column and ends every row with the branch name
        end = f",{profile.branch}\n"
    common = (profile.r_grid, profile.g, profile.g_hat, profile.big_g, profile.remainder)
    table = np.column_stack([*common, *columns])
    with Path(path).open("w", newline="\n") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, table, fmt=_CSV, delimiter=",", newline=end)
    return table


def report_json(report, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


# -- run configuration -------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One experiment: a generator, quadrature resolutions, probes and grids.

    The canonical text form round-trips byte-identically through
    :func:`parse_config` / :func:`serialize_config`.
    """

    ambient: str = "halfspace"
    theta: float = math.pi / 2
    generator: str = "cap"
    radius: float = 1.0
    center_x: float = 0.0
    center_y: float = 0.0
    colatitude: float = math.pi / 2
    amplitude: float = 0.0
    mode: int = 0
    nu: int = 128
    nv: int = 128
    plane_grid: int = 512
    sphere_level: int = 6
    probes: tuple = ()
    r_min: float = 0.25
    r_max: float = 4.0
    r_count: int = 40
    pairs: tuple = ()
    out_dir: str = "out"
    tolerance: float = 1e-3
    seed: int = 0
    threads: int = 1


_SCHEMA = {
    "run": [
        ("ambient", str),
        ("theta", float),
        ("generator", str),
        ("radius", float),
        ("center_x", float),
        ("center_y", float),
        ("colatitude", float),
        ("amplitude", float),
        ("mode", int),
    ],
    "quadrature": [
        ("nu", int),
        ("nv", int),
        ("plane_grid", int),
        ("sphere_level", int),
    ],
    "profile": [
        ("r_min", float),
        ("r_max", float),
        ("r_count", int),
    ],
    "output": [
        ("out_dir", str),
        ("tolerance", float),
        ("seed", int),
        ("threads", int),
    ],
}


def _fmt(value) -> str:
    # configs carry full precision; the 12-digit style is for printed output
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: fixed section and key order, LF endings."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, _type in keys:
            lines.append(f"{key} = {_fmt(getattr(cfg, key))}")
        if section == "run":
            lines.append("[probes]")
            for p in cfg.probes:
                lines.append("point = " + ",".join(repr(float(v)) for v in p))
        if section == "profile":
            for pair in cfg.pairs:
                lines.append("pair = " + ",".join(repr(float(v)) for v in pair))
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value format; unknown keys are configuration errors."""
    values: dict = {}
    probes = []
    pairs = []
    section = None
    known = {sec: dict(keys) for sec, keys in _SCHEMA.items()}
    known["probes"] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in known:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, sep, value = (t.strip() for t in line.partition("="))
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        try:
            if section == "probes":
                if key != "point":
                    raise ConfigError(f"line {lineno}: only 'point' entries allowed in [probes]")
                parts = [float(v) for v in value.split(",")]
                if len(parts) != 3:
                    raise ConfigError(f"line {lineno}: probe points need three coordinates")
                probes.append(tuple(parts))
            elif section == "profile" and key == "pair":
                parts = [float(v) for v in value.split(",")]
                if len(parts) != 2:
                    raise ConfigError(f"line {lineno}: pairs need two radii")
                pairs.append(tuple(parts))
            elif key not in known[section]:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
            else:
                values[key] = known[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return _validated(RunConfig(**values, probes=tuple(probes), pairs=tuple(pairs)))


def _validated(cfg: RunConfig) -> RunConfig:
    numbers = [(f.name, getattr(cfg, f.name)) for f in fields(cfg) if isinstance(getattr(cfg, f.name), float)]
    numbers += [("probes", v) for point in cfg.probes for v in point]
    numbers += [("pairs", v) for pair in cfg.pairs for v in pair]
    # a NaN tolerance would let every gate comparison through
    infinite = [name for name, v in numbers if not math.isfinite(v)]
    builds = GENERATOR_AMBIENT.get(cfg.generator)
    problems = (
        (cfg.ambient not in (HALFSPACE, BALL), f"unknown ambient {cfg.ambient!r}"),
        (builds is None, f"unknown generator {cfg.generator!r}; expected one of {', '.join(GENERATOR_AMBIENT)}"),
        (builds not in (None, cfg.ambient), f"generator {cfg.generator!r} needs ambient = {builds}"),
        (bool(infinite), f"{', '.join(infinite)} must be finite"),
        (not 0.0 < cfg.theta < math.pi, "theta must lie strictly inside (0, pi)"),
        (not cfg.radius > 0.0, f"radius must be positive, got {cfg.radius!r}"),
        (
            not 8 <= min(cfg.nu, cfg.nv) <= max(cfg.nu, cfg.nv) <= MAX_NU_NV,
            f"nu and nv must lie in [8, {MAX_NU_NV}]",
        ),
        (not 8 <= cfg.plane_grid <= MAX_PLANE_GRID, f"plane_grid must lie in [8, {MAX_PLANE_GRID}]"),
        (not 0 <= cfg.sphere_level <= MAX_SPHERE_LEVEL, f"sphere_level must lie in [0, {MAX_SPHERE_LEVEL}]"),
        # a subnormal r_min overflows 1/r in the radius windows
        (
            not sys.float_info.min <= cfg.r_min < cfg.r_max,
            f"need r_min < r_max, with r_min at least {sys.float_info.min!r}",
        ),
        (cfg.r_count < 2, "r_count must be at least 2"),
        (not all(0.0 < sigma < rho for sigma, rho in cfg.pairs), "every pair needs 0 < sigma < rho"),
        (not cfg.tolerance > 0.0, f"tolerance must be positive, got {cfg.tolerance!r}"),
        (cfg.seed < 0, "seed must be non-negative"),
        (cfg.threads < 1, "threads must be at least 1"),
    )
    for bad, message in problems:
        if bad:
            raise ConfigError(message)
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return _validated(replace(cfg, **kwargs))
