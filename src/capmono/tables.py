"""Structured-text interchange: surface and curve sample tables, profile
CSV exports, energy-report JSON, and the run-configuration format.

Tables are whitespace-separated with one sample per row and a commented
header carrying metadata; floats are printed with 17 significant digits so
round trips are lossless.  CSV files use '.' decimals, ',' separators, LF
line endings and 12 significant digits.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import BALL, HALFSPACE, Ambient
from .surfaces import SampledSurface, contact_angle_residual
from .wetted import OrientedCurve

_FULL = "%.17g"
_CSV = "%.12g"

SURFACE_COLUMNS = "x1 x2 x3 weight nu1 nu2 nu3 H1 H2 H3 K Aring2"
BOUNDARY_COLUMNS = "x1 x2 x3 t1 t2 t3 c1 c2 c3 arcweight kg kg_wetting"
CURVE_COLUMNS = "x1 x2 x3 t1 t2 t3 weight"

# the largest wetted grids whose single-threaded monotonicity run on the
# benchmark configs peaks under 1 GB (796 MB at plane_grid 2048, 336 MB at
# sphere_level 8); the next plane step is about four times larger
MAX_PLANE_GRID = 2048
MAX_SPHERE_LEVEL = 8

# the ambient of the surface each generator builds
GENERATOR_AMBIENT = {"cap": HALFSPACE, "flat-disk-ball": BALL, "cap-ball": BALL}


def _save_table(path, header: list[str], rows: np.ndarray) -> None:
    with Path(path).open("w", newline="\n") as fh:
        fh.write("".join(f"# {line}\n" for line in header))
        np.savetxt(fh, rows, fmt=_FULL)


def _load_table(path, columns: str) -> tuple[list[str], np.ndarray]:
    """The leading comment lines (without '# ') and the rows of a table.

    A table without rows, with an entry that is not a finite number, or
    with another number of columns than ``columns`` names raises
    ConfigError.
    """
    header = []
    with Path(path).open() as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            header.append(line[1:].strip())
        else:
            raise ConfigError(f"{path}: the table has no rows")
    try:
        rows = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: unreadable rows: {exc}") from None
    width = len(columns.split())
    if rows.shape[1] != width:
        raise ConfigError(f"{path}: expected rows of {width} columns, got an array of shape {rows.shape}")
    # min and max carry any NaN or infinity, without a full-size temporary
    if not np.isfinite(rows.min()) or not np.isfinite(rows.max()):
        raise ConfigError(f"{path}: a table entry is not finite")
    return header, rows


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
    header, arr = _load_table(surface_path, SURFACE_COLUMNS)
    meta = {}
    for body in header:
        if body.startswith("ambient="):
            meta.update(tok.partition("=")[::2] for tok in body.split())
    _, barr = _load_table(boundary_path, BOUNDARY_COLUMNS)
    try:
        ambient = Ambient(meta["ambient"], float(meta["theta"]))
        chi = int(meta.get("chi", 1))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{surface_path}: bad or missing ambient=, theta= or chi=: {exc}") from None
    surface = SampledSurface(
        ambient=ambient,
        points=arr[:, 0:3],
        weights=arr[:, 3],
        normals=arr[:, 4:7],
        mean_curvature=arr[:, 7:10],
        gauss_curvature=arr[:, 10],
        traceless_sq=arr[:, 11],
        boundary_points=barr[:, 0:3],
        boundary_tangents=barr[:, 3:6],
        boundary_conormals=barr[:, 6:9],
        boundary_weights=barr[:, 9],
        boundary_kg=barr[:, 10],
        boundary_kg_wetting=barr[:, 11],
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
    header, arr = _load_table(path, CURVE_COLUMNS)
    closed = True
    for body in header:
        if "closed=" in body:
            closed = bool(int(body.split("=", 1)[1]))
    return OrientedCurve(arr[:, 0:3], arr[:, 3:6], arr[:, 6], closed=closed)


# -- profile CSV ----------------------------------------------------------------


def profile_csv(profile, path) -> np.ndarray:
    """Write a monotonicity profile as CSV (half-space or ball layout).

    Returns the numeric table written, one row per radius.
    """
    if hasattr(profile, "branch"):
        header = "r,gTheta,gHatTheta,G,R,residual,branch"
        columns = (profile.g_theta, profile.g_hat_theta, profile.big_g, profile.remainder, profile.residual)
        # the ball layout ends every row with the branch name
        end = f",{profile.branch}\n"
    else:
        header = "r,g,gHat,G,R,deficit,residual"
        columns = (
            profile.g, profile.g_hat, profile.big_g, profile.remainder, profile.deficit, profile.residual
        )
        end = "\n"
    table = np.column_stack([profile.r_grid, *columns])
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
        (min(cfg.nu, cfg.nv) < 8, "nu and nv must be at least 8"),
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
