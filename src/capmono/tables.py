"""Structured-text interchange: surface, boundary and curve sample tables,
profile CSV exports, energy-report JSON, and the run-configuration reader.

Tables are whitespace-separated with one sample per row and a commented
header carrying metadata; floats are printed with 17 significant digits so
round trips are lossless.  CSV files use '.' decimals, ',' separators, LF
line endings and 12 significant digits.  The curve table ``curve.tsv`` is
written for other tools: no command reads it, and it has no companion.

The surface and boundary tables ``name.tsv`` each get a binary companion
``name.bin``, and an output directory gets a pair residuals companion
``pair_residuals.bin`` (``ResidualCompanion``), written by
``monotonicity`` and read by ``identity-suite``.  All are checked caches
in one format: a fixed header (magic and version, the key's length, the
body's float64 element count, and the body's ``zlib.crc32``), the key,
and the body, all little-endian.  A companion is read only when its
magic, its key and its size are exact and its body matches its CRC;
anything else is a miss, so deleting a companion is always safe, and a
companion written by an older capmono is a miss too.

A table's key is its column count K and the byte length and
``zlib.crc32`` of its text, and its body is one array, the (K, n) float64
columns, one contiguous row per column; a table that was edited or copied
in without its companion is read from its text.  The pair residuals' key
is the float64 bytes of the probes and the pairs, the byte length and
``zlib.crc32`` of the ``surface.tsv`` and ``boundary.tsv`` texts the
surface was read from, and the ``source_stamp``; its body is the signed
raw two-radius residual of every (probe, pair), probe by probe, as
float64.  The ``source_stamp`` is the ``zlib.crc32`` of every capmono
source and numpy's version, so an edit of any module or another numpy
misses the residuals.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import BALL, HALFSPACE, Ambient
from .surfaces import SampledSurface, contact_angle_residual
from .wetted import OrientedCurve

_FULL = "%.17g"
_CSV = "%.12g"
# rows formatted per write of a sample table
_SAVE_BLOCK = 4096
# bytes of a table text read per block while its checksum is taken
_READ_BLOCK = 1 << 16
# rows of a table text parsed per block when its companion misses
_PARSE_BLOCK = 1024
# every companion starts with this magic
_MAGIC = b"CAPMCMP2"
_BODY = np.dtype("<f8")
# a companion's header: magic, the key's length, the body's element count, the body's crc32
_HEAD = struct.Struct("<8sQQI")
PAIR_RESIDUALS = "pair_residuals.bin"
# the directory whose *.py files the source stamp covers
_SOURCES = Path(__file__).parent

SURFACE_COLUMNS = "x1 x2 x3 weight nu1 nu2 nu3 H1 H2 H3 K Aring2"
BOUNDARY_COLUMNS = "x1 x2 x3 t1 t2 t3 c1 c2 c3 arcweight kg kg_wetting"
CURVE_COLUMNS = "x1 x2 x3 t1 t2 t3 weight"

# the largest chart resolution whose single-threaded monotonicity run on
# the benchmark configs peaks under 1 GB (os.wait4, one run each,
# scripts/memory_bounds.py: 452 MB on ball-cap, 382 MB and 381 MB on
# halfspace-cap and probe-sweep, all at nu = nv = 1000)
MAX_NU_NV = 1000

# the ambient of the surface each generator builds
GENERATOR_AMBIENT = {"cap": HALFSPACE, "flat-disk-ball": BALL, "cap-ball": BALL}


def _write_companion(path: Path, key: bytes, count: int, chunks) -> None:
    """Write the companion at ``path``: the header, ``key``, then the body.

    The body is the concatenation of ``chunks``, contiguous little-endian
    float64 arrays holding ``count`` elements in all; it is written chunk
    by chunk and its CRC goes into the header last.  The file
    is written beside ``path`` and renamed over it, so a reader sees the
    old file or the new one, never a part.  A companion is only a cache:
    any OSError leaves no temporary behind and is ignored.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        crc = 0
        with tmp.open("wb") as fh:
            fh.seek(_HEAD.size)
            fh.write(key)
            for chunk in chunks:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.seek(0)
            fh.write(_HEAD.pack(_MAGIC, len(key), count, crc))
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass


def _read_companion(path: Path, key: bytes) -> np.ndarray | None:
    """The float64 body of the companion at ``path``, if it holds one for ``key``.

    The companion is used only when its header parses, its magic is this
    format's, its stored key equals ``key`` byte for byte, its size is
    exact for the count it records, and the body's CRC is the recorded
    one; anything else, an unreadable file included, returns None and never
    raises.
    """
    try:
        with path.open("rb") as fh:
            magic, key_len, count, crc = _HEAD.unpack(fh.read(_HEAD.size))
            if (
                magic != _MAGIC
                or key_len != len(key)
                or fh.read(key_len) != key
                or fh.seek(0, io.SEEK_END) != _HEAD.size + key_len + count * _BODY.itemsize
            ):
                return None
            fh.seek(_HEAD.size + key_len)
            body = np.fromfile(fh, dtype=_BODY, count=count)
    except (OSError, ValueError, struct.error):
        return None
    # a file cut short since the size check reads a short body
    if zlib.crc32(body) != crc or len(body) != count:
        return None
    return body


def source_stamp() -> bytes:
    """The code a checked cache was computed by: the ``zlib.crc32`` of every
    capmono source file, in name order, and numpy's version.

    Raises OSError when a source cannot be read.
    """
    crc = 0
    for path in sorted(_SOURCES.glob("*.py")):
        crc = zlib.crc32(path.read_bytes(), crc)
    version = np.__version__.encode()
    return struct.pack("<IQ", crc, len(version)) + version


def _companion_path(path) -> Path | None:
    """The binary companion of a table; None when it would be the table itself."""
    path = Path(path)
    companion = path.with_suffix(".bin")
    return None if companion == path else companion


def _text_sum(path) -> tuple[int, int]:
    """The byte length and ``zlib.crc32`` of the table text at ``path``, read block by block."""
    length, crc = 0, 0
    with Path(path).open("rb") as fh:
        while block := fh.read(_READ_BLOCK):
            length += len(block)
            crc = zlib.crc32(block, crc)
    return length, crc


def _table_key(width: int, length: int, crc: int) -> bytes:
    """A table companion's key: the column count and the text's length and crc32."""
    return struct.pack("<QQI", width, length, crc)


def _write_rows(path, header: list[str], rows: np.ndarray) -> tuple[int, int]:
    """Write the header lines and the rows, as ``np.savetxt(fmt="%.17g")`` does;
    return the text's ``_text_sum``.

    Rows go out in blocks of ``_SAVE_BLOCK``, each formatted by one ``%``
    on its flattened values, instead of one ``%`` per row; the blocks keep
    the temporaries bounded.  The text's length and CRC are taken from the
    blocks as they are written.
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
    return length, crc


def _save_table(path, header: list[str], rows: np.ndarray) -> None:
    """Write the table (see ``_write_rows``) and its binary companion, the
    companion's body one column at a time."""
    length, crc = _write_rows(path, header, rows)
    companion = _companion_path(path)
    if companion is not None:
        columns = (np.ascontiguousarray(column, dtype=_BODY) for column in rows.T)
        _write_companion(companion, _table_key(rows.shape[1], length, crc), rows.size, columns)


def _companion_columns(path, text_sum: tuple[int, int], width: int) -> np.ndarray | None:
    """The (width, n) columns the companion of ``path`` holds for the text of ``text_sum``, else None."""
    companion = _companion_path(path)
    if companion is None:
        return None
    got = _read_companion(companion, _table_key(width, *text_sum))
    if got is None or not got.size or got.size % width:
        return None
    return got.reshape(width, -1).astype(float, copy=False)


def _is_row(line: str) -> bool:
    """Whether a line of a table text holds a row: text before any '#'."""
    return bool(line.split("#", 1)[0].strip())


def _parse_columns(path, width: int) -> np.ndarray:
    """The rows of the table text at ``path``, parsed into its (width, n) columns.

    One pass counts the rows, and the next parses them ``_PARSE_BLOCK`` at
    a time into the preallocated columns, so beside them only one block of
    lines and values is held.  Rows that do not parse, and rows of another
    width than ``width``, raise ConfigError.
    """
    try:
        with Path(path).open() as fh:
            cols = np.empty((width, sum(map(_is_row, fh))))
        with Path(path).open() as fh:
            rows = filter(_is_row, fh)
            for start in range(0, cols.shape[1], _PARSE_BLOCK):
                values = np.loadtxt(list(itertools.islice(rows, _PARSE_BLOCK)), comments="#", ndmin=2)
                if values.shape[1] != width:
                    shape = (cols.shape[1], values.shape[1])
                    raise ConfigError(f"{path}: expected rows of {width} columns, got an array of shape {shape}")
                cols[:, start : start + _PARSE_BLOCK] = values.T
    except ValueError as exc:
        raise ConfigError(f"{path}: unreadable rows: {exc}") from None
    return cols


def _load_table(path, columns: str) -> tuple[list[str], np.ndarray, tuple[int, int]]:
    """The leading comment lines (without '# '), the columns and the
    ``_text_sum`` of a table.

    The table is returned transposed, one contiguous row per column, so
    every column a caller takes is a contiguous view.  The columns come
    from the table's companion when it matches the table's bytes, and from
    the parsed text otherwise; the checks below run on either.  The text
    is never held whole: its checksum is taken block by block, the header
    is read up to the first row, and only a companion miss parses the
    rest, straight into the columns (``_parse_columns``).  A table whose
    bytes do not decode, without rows, with an entry
    that is not a finite number, or with another number of columns than
    ``columns`` names raises ConfigError.
    """
    text_sum = _text_sum(path)
    header = []
    try:
        with Path(path).open() as fh:
            line = next(fh, "")
            while line.startswith("#"):
                header.append(line[1:].strip())
                line = next(fh, "")
            # the first row is the first line with text before any '#';
            # np.loadtxt would only warn on a table without one
            while line and not _is_row(line):
                line = next(fh, "")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: the table is not text: {exc}") from None
    if not line:
        raise ConfigError(f"{path}: the table has no rows")
    width = len(columns.split())
    cols = _companion_columns(path, text_sum, width)
    if cols is None:
        cols = _parse_columns(path, width)
    if len(cols) != width:
        raise ConfigError(f"{path}: expected rows of {width} columns, got an array of shape {cols.T.shape}")
    # min and max carry any NaN or infinity, without a full-size temporary
    if not np.isfinite(cols.min()) or not np.isfinite(cols.max()):
        raise ConfigError(f"{path}: a table entry is not finite")
    return header, cols, text_sum


class ResidualCompanion:
    """The pair residuals companion at ``path`` for one set of probes and pairs.

    ``monotonicity`` saves the signed raw residual of every (probe, pair),
    probe by probe, and ``identity-suite`` loads them instead of rebuilding
    the probes' terms.  Both key the file on the probes and the pairs, the
    texts ``surface`` was read from
    (``load_surface`` records their ``_text_sum`` in
    ``surface.metadata["tables"]``) and the ``source_stamp``; a surface
    read from no tables, or sources that cannot be read, give no key, and
    nothing is loaded or saved.  ``load`` returns the residuals only when
    the file holds them for this key, one per (probe, pair), and None
    otherwise; ``save`` replaces the file whole, and a failed write is
    ignored (see ``_write_companion``).
    """

    def __init__(self, path, cfg: RunConfig, surface: SampledSurface, probes, pairs):
        self.path = Path(path)
        self.count = len(probes) * len(pairs)
        self.key = self._key(cfg, surface, probes, pairs)

    @staticmethod
    def _key(cfg: RunConfig, surface: SampledSurface, probes, pairs) -> bytes | None:
        """The bytes stored residuals must have been computed from."""
        sums = surface.metadata.get("tables")
        if sums is None:
            return None
        try:
            stamp = source_stamp()
        except OSError:
            return None
        probes = np.asarray(probes, dtype=_BODY).reshape(-1, 3)
        pairs = np.asarray(pairs, dtype=_BODY).reshape(-1, 2)
        head = struct.pack("<QQ4Q", len(probes), len(pairs), *sums[0], *sums[1])
        return b"".join((head, probes.tobytes(), pairs.tobytes(), stamp))

    def load(self) -> np.ndarray | None:
        """The stored residuals, if the file holds all of them for this key."""
        got = None if self.key is None else _read_companion(self.path, self.key)
        if got is None or len(got) != self.count:
            return None
        return got.astype(float, copy=False)

    def save(self, residuals) -> None:
        """Write the residuals, one per (probe, pair), probe by probe."""
        if self.key is not None:
            body = np.ascontiguousarray(residuals, dtype=_BODY)
            _write_companion(self.path, self.key, len(body), [body])


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
    header, cols, surface_sum = _load_table(surface_path, SURFACE_COLUMNS)
    meta = {}
    for body in header:
        if body.startswith("ambient="):
            meta.update(tok.partition("=")[::2] for tok in body.split())
    _, bcols, boundary_sum = _load_table(boundary_path, BOUNDARY_COLUMNS)
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
        # the texts read, which key the pair residuals companion
        metadata={"generator": meta.get("generator", "imported"), "tables": (surface_sum, boundary_sum)},
    )
    surface.metadata["contact_residual"] = contact_angle_residual(surface)
    return surface


def save_curve(curve: OrientedCurve, path) -> None:
    """Write the boundary curve table; it has no reader, so it gets no companion."""
    rows = np.column_stack([curve.points, curve.tangents, curve.weights])
    # every curve the program builds is closed, as the header states
    header = ["capmono curve table v1", "closed=1", f"columns: {CURVE_COLUMNS}"]
    _write_rows(path, header, rows)


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


def report_json(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# -- run configuration -------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One experiment: a generator, quadrature resolutions, probes and grids."""

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
    probes: tuple = ()
    r_min: float = 0.25
    r_max: float = 4.0
    r_count: int = 40
    pairs: tuple = ()
    out_dir: str = "out"
    tolerance: float = 1e-3
    seed: int = 0


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
    ],
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value format; unknown keys are configuration errors.

    The removed ``threads`` key is accepted in ``[output]`` with the value 1
    only, and ignored; the removed ``plane_grid`` key is accepted in
    ``[quadrature]`` with any integer value, and the removed
    ``sphere_level`` key with an integer in [0, 8], and both are ignored.
    """
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
            elif section == "output" and key == "threads":
                # every run is serial; older configs, the benchmark's
                # among them, still name the one thread
                if int(value) != 1:
                    raise ConfigError(f"line {lineno}: threads were removed; only 'threads = 1' is accepted")
            elif section == "quadrature" and key in ("plane_grid", "sphere_level"):
                # the wetted measure is read from the boundary curve; older
                # configs, the benchmark's among them, still size a grid.
                # A sphere level keeps the range it always had, so a config
                # an older capmono refused is refused still
                size = int(value)
                if key == "sphere_level" and not 0 <= size <= 8:
                    raise ConfigError(f"line {lineno}: sphere_level must lie in [0, 8]")
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
        # a subnormal r_min overflows 1/r in the radius windows
        (
            not sys.float_info.min <= cfg.r_min < cfg.r_max,
            f"need r_min < r_max, with r_min at least {sys.float_info.min!r}",
        ),
        (cfg.r_count < 2, "r_count must be at least 2"),
        (not all(0.0 < sigma < rho for sigma, rho in cfg.pairs), "every pair needs 0 < sigma < rho"),
        (not cfg.tolerance > 0.0, f"tolerance must be positive, got {cfg.tolerance!r}"),
        (cfg.seed < 0, "seed must be non-negative"),
    )
    for bad, message in problems:
        if bad:
            raise ConfigError(message)
    return cfg


def load_config(path) -> RunConfig:
    """Read and parse a config file; a directory or a file that is not UTF-8 raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except IsADirectoryError:
        raise ConfigError(f"{path}: the config is a directory") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: the config is not UTF-8 text: {exc}") from None
    return parse_config(text)


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return _validated(replace(cfg, **kwargs))
