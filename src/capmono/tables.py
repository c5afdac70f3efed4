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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import Ambient
from .surfaces import SampledSurface
from .wetted import OrientedCurve

_FULL = "%.17g"
_CSV = "%.12g"

SURFACE_COLUMNS = "x1 x2 x3 weight nu1 nu2 nu3 H1 H2 H3 K Aring2"
BOUNDARY_COLUMNS = "x1 x2 x3 t1 t2 t3 c1 c2 c3 arcweight kg kg_wetting"
CURVE_COLUMNS = "x1 x2 x3 t1 t2 t3 weight"


def _write_rows(fh, rows: np.ndarray):
    for row in rows:
        fh.write(" ".join(_FULL % v for v in row) + "\n")


def save_surface(surface: SampledSurface, path) -> None:
    """Write the interior sample table (one sample per row)."""
    path = Path(path)
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
    with path.open("w", newline="\n") as fh:
        fh.write("# capmono surface table v1\n")
        fh.write(
            f"# ambient={surface.ambient.kind} theta={_FULL % surface.theta} "
            f"chi={surface.euler_characteristic} generator={surface.metadata.get('generator', '?')}\n"
        )
        if surface.corner_angles:
            fh.write("# corners=" + ",".join(_FULL % a for a in surface.corner_angles) + "\n")
        fh.write(f"# columns: {SURFACE_COLUMNS}\n")
        _write_rows(fh, rows)


def save_boundary(surface: SampledSurface, path) -> None:
    """Write the boundary sample table (frame, weights and curvatures)."""
    path = Path(path)
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
    with path.open("w", newline="\n") as fh:
        fh.write("# capmono boundary table v1\n")
        fh.write(f"# columns: {BOUNDARY_COLUMNS}\n")
        _write_rows(fh, rows)


def load_surface(surface_path, boundary_path) -> SampledSurface:
    """Rebuild a surface from its two sample tables."""
    surface_path, boundary_path = Path(surface_path), Path(boundary_path)
    meta = {}
    corners: tuple = ()
    data = []
    for line in surface_path.read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("ambient="):
                for tok in body.split():
                    k, _, v = tok.partition("=")
                    meta[k] = v
            elif body.startswith("corners="):
                corners = tuple(float(v) for v in body.split("=", 1)[1].split(","))
            continue
        if line.strip():
            data.append([float(v) for v in line.split()])
    arr = np.asarray(data)
    bdata = []
    for line in boundary_path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        bdata.append([float(v) for v in line.split()])
    barr = np.asarray(bdata)
    ambient = Ambient(meta["ambient"], float(meta["theta"]))
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
        euler_characteristic=int(meta.get("chi", 1)),
        corner_angles=corners,
        metadata={"generator": meta.get("generator", "imported")},
    )
    from .surfaces import contact_angle_residual

    surface.metadata["contact_residual"] = contact_angle_residual(surface)
    return surface


def save_curve(curve: OrientedCurve, path) -> None:
    path = Path(path)
    rows = np.column_stack([curve.points, curve.tangents, curve.weights])
    with path.open("w", newline="\n") as fh:
        fh.write("# capmono curve table v1\n")
        fh.write(f"# closed={int(curve.closed)}\n")
        fh.write(f"# columns: {CURVE_COLUMNS}\n")
        _write_rows(fh, rows)


def load_curve(path) -> OrientedCurve:
    path = Path(path)
    closed = True
    data = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "closed=" in line:
                closed = bool(int(line.split("=", 1)[1]))
            continue
        if line.strip():
            data.append([float(v) for v in line.split()])
    arr = np.asarray(data)
    return OrientedCurve(arr[:, 0:3], arr[:, 3:6], arr[:, 6], closed=closed)


# -- profile CSV ----------------------------------------------------------------


def profile_csv(profile, path) -> None:
    """Write a monotonicity profile as CSV (half-space or ball layout)."""
    path = Path(path)
    is_ball = hasattr(profile, "branch")
    with path.open("w", newline="\n") as fh:
        if is_ball:
            fh.write("r,gTheta,gHatTheta,G,R,residual,branch\n")
            for i, r in enumerate(profile.r_grid):
                fh.write(
                    ",".join(
                        _CSV % v
                        for v in (
                            r,
                            profile.g_theta[i],
                            profile.g_hat_theta[i],
                            profile.big_g[i],
                            profile.remainder[i],
                            profile.residual[i],
                        )
                    )
                    + f",{profile.branch}\n"
                )
        else:
            fh.write("r,g,gHat,G,R,deficit,residual\n")
            for i, r in enumerate(profile.r_grid):
                fh.write(
                    ",".join(
                        _CSV % v
                        for v in (
                            r,
                            profile.g[i],
                            profile.g_hat[i],
                            profile.big_g[i],
                            profile.remainder[i],
                            profile.deficit[i],
                            profile.residual[i],
                        )
                    )
                    + "\n"
                )


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
        if section == "probes":
            if key != "point":
                raise ConfigError(f"line {lineno}: only 'point' entries allowed in [probes]")
            parts = [float(v) for v in value.split(",")]
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: probe points need three coordinates")
            probes.append(tuple(parts))
            continue
        if section == "profile" and key == "pair":
            parts = [float(v) for v in value.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: pairs need two radii")
            pairs.append(tuple(parts))
            continue
        if key not in known[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        typ = known[section][key]
        try:
            values[key] = typ(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return _validated(RunConfig(**values, probes=tuple(probes), pairs=tuple(pairs)))


def _validated(cfg: RunConfig) -> RunConfig:
    if cfg.ambient not in ("halfspace", "ball"):
        raise ConfigError(f"unknown ambient {cfg.ambient!r}")
    if not 0.0 < cfg.theta < math.pi:
        raise ConfigError("theta must lie strictly inside (0, pi)")
    # a NaN tolerance would let every gate comparison through
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0.0):
        raise ConfigError(f"tolerance must be finite and positive, got {cfg.tolerance!r}")
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return _validated(replace(cfg, **kwargs))
