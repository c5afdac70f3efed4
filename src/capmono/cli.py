"""Command-line front end: generate sampled surfaces, run energy reports,
sweep monotonicity profiles, and run the identity suite.

Each command runs in one process and writes from one run state
(:class:`Run`), which builds the surface, region, probes and their terms
only when a command first needs them, and takes the probes one after
another, in order.  ``monotonicity`` leaves the signed raw residual of
every (probe, pair) in the output directory's ``pair_residuals.bin``
(``tables.ResidualCompanion``).  ``identity-suite`` gates its two-radius
check on them, building no probe terms, when the file was written for its
own probes and pairs, the same sample tables, and the same capmono
sources and numpy; otherwise it computes them.

Exit codes: 0 when every gate passes, 1 only when a gate fails, 2 on a
usage or configuration error (a config that is missing, a directory or
not UTF-8, an output directory that is a file or lies under one), on an
input or output file that cannot be read or written, and on any other
capmono error (geometry, resolution, immersion).
"""

from __future__ import annotations

import argparse
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import ball, energy, halfspace, tables
from .errors import CapmonoError, ConfigError
from .fields import constant_field
from .surfaces import (
    SampledSurface,
    geodesic_disk_ball,
    perturb_chart,
    sample_chart,
    spherical_cap_ball,
    spherical_cap_halfspace,
)
from .tables import RunConfig
from .wetted import curve_from_boundary, wetted_region

_G = "%.12g"


def build_chart(cfg: RunConfig):
    # validation admits only the generators of tables.GENERATOR_AMBIENT
    if cfg.generator == "cap":
        chart = spherical_cap_halfspace(cfg.theta, cfg.radius, (cfg.center_x, cfg.center_y))
    elif cfg.generator == "flat-disk-ball":
        chart = geodesic_disk_ball(cfg.theta)
    else:
        chart = spherical_cap_ball(cfg.theta, cfg.colatitude)
    if cfg.amplitude != 0.0:
        chart = perturb_chart(chart, cfg.amplitude, cfg.mode)
    return chart


def _surface_paths(out: Path):
    return out / "surface.tsv", out / "boundary.tsv", out / "curve.tsv"


class Run:
    """One invocation's config and output directory, and what is built from them on first use.

    The probes are the config's or four seeded random points, the pairs the config's or (r_min, r_max).
    """

    def __init__(self, cfg: RunConfig, out: Path):
        self.cfg, self.out = cfg, out
        self.pairs = cfg.pairs or ((cfg.r_min, cfg.r_max),)

    @cached_property
    def surface(self) -> SampledSurface:
        spath, bpath, _ = _surface_paths(self.out)
        if not spath.exists() or not bpath.exists():
            raise ConfigError(f"no surface tables under {self.out}; run 'generate' first")
        return tables.load_surface(spath, bpath)

    @cached_property
    def region(self):
        return wetted_region(self.surface)

    @cached_property
    def mono(self):
        return halfspace if self.surface.ambient.kind == "halfspace" else ball

    @cached_property
    def probes(self) -> list:
        if self.cfg.probes:
            return [np.asarray(p, dtype=float) for p in self.cfg.probes]
        rng, box = np.random.default_rng(self.cfg.seed), (1.6 if self.cfg.ambient == "halfspace" else 0.8)
        return [rng.uniform(-box, box, 3) for _ in range(4)]

    @cached_property
    def companion(self) -> tables.ResidualCompanion:
        return tables.ResidualCompanion(self.out / tables.PAIR_RESIDUALS, self.surface, self.probes, self.pairs)

    def check(self, probe, grid=None):
        """One probe's profile (none without a grid) and signed raw pair residuals; its terms live only in this call."""
        terms = self.mono.probe_terms(self.surface, self.region, probe)
        profile = None if grid is None else self.mono.monotonicity_profile(terms, grid)
        return profile, [self.mono.monotonicity_identity_detail(terms, s, r)["residual"] for s, r in self.pairs]

    def residuals(self):
        """The signed raw residual of every (probe, pair): the companion's if it holds them, else computed."""
        stored = self.companion.load()
        if stored is not None:
            return stored
        return [res for probe in self.probes for res in self.check(probe)[1]]


def cmd_generate(run: Run) -> int:
    cfg, out = run.cfg, run.out
    chart = build_chart(cfg)
    surface = sample_chart(chart, cfg.nu, cfg.nv)
    coarse = sample_chart(chart, max(cfg.nu // 2, 8), max(cfg.nv // 2, 8))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"{out}: the output directory is a file or lies under one") from None
    spath, bpath, cpath = _surface_paths(out)
    tables.save_surface(surface, spath)
    tables.save_boundary(surface, bpath)
    tables.save_curve(curve_from_boundary(surface), cpath)
    area, carea = surface.area(), coarse.area()
    print(f"generator {cfg.generator}: {len(surface.points)} interior samples")
    print(f"area {_G % area} (halved resolution: {_G % carea}, delta {_G % abs(area - carea)})")
    print(f"boundary length {_G % surface.boundary_length()}")
    print(f"contact residual {_G % surface.metadata['contact_residual']}")
    print(f"wrote {spath}, {bpath}, {cpath}")
    return 0


def cmd_energy(run: Run) -> int:
    report = energy.energy_report(run.surface, run.region)
    path = run.out / "energy.json"
    tables.report_json(report, path)
    for key, value in sorted(report.items()):
        if isinstance(value, float):
            print(f"{key}: {_G % value}")
        elif isinstance(value, dict):
            for k2, v2 in sorted(value.items()):
                print(f"margins.{k2}: {_G % v2}")
    print(f"wrote {path}")
    return 0


def _passes(value: float, limit: float) -> bool:
    """The one gate: a value passes only if it is finite and at most limit."""
    return bool(np.isfinite(value)) and value <= limit


def _worst(values) -> float:
    """Largest of the values and 0; unlike max(), a NaN anywhere is kept."""
    return float(np.max([0.0, *values]))


def cmd_monotonicity(run: Run) -> int:
    cfg = run.cfg
    grid = np.linspace(cfg.r_min, cfg.r_max, cfg.r_count)
    # gate on raw two-radius residuals: at equality-case probes every
    # identity term vanishes and term-normalized ratios turn into 0/0 noise
    results = [run.check(probe, grid) for probe in run.probes]
    profiles = [prof for prof, _ in results]
    residuals = [res for _, probe_residuals in results for res in probe_residuals]
    worst_residual = _worst(np.abs(residuals))
    run.companion.save(residuals)
    finite = True
    for i, prof in enumerate(profiles):
        finite &= bool(np.all(np.isfinite(tables.profile_csv(prof, run.out / f"profile_{i:03d}.csv"))))
    worst_violation = float(np.min([0.0, *(prof.min_forward_difference() for prof in profiles)]))
    print(
        f"{len(profiles)} profiles: worst monotonicity violation {_G % worst_violation}, "
        f"worst identity residual {_G % worst_residual}"
    )
    if not _passes(worst_residual, cfg.tolerance):
        print(f"FAIL: residual exceeds tolerance {_G % cfg.tolerance}")
        return 1
    if not finite:
        print("FAIL: a profile holds a non-finite value")
        return 1
    print("PASS")
    return 0


def cmd_identity_suite(run: Run) -> int:
    surface, tol = run.surface, run.cfg.tolerance
    checks = []
    checks.append(("gauss-bonnet", abs(energy.gauss_bonnet_residual(surface)), tol))
    checks.append(("gauss-equation", abs(energy.gauss_equation_residual(surface)), tol))
    checks.append(("two-radius-identity", _worst(np.abs(run.residuals())), tol))
    if surface.ambient.kind == "ball":
        # X = e3, whose eta terms do not cancel: with X = x they do on the unit
        # sphere (div x = 2 = 2 x.x), and the row would never read eta
        e3 = constant_field((0.0, 0.0, 1.0))
        checks.append(("balance-law", abs(ball.first_variation_residual(surface, run.region, e3)), tol))
        checks.append(("divergence-identity", energy.divergence_identity_residual(surface), tol))
        rng = np.random.default_rng(run.cfg.seed)
        residuals = []
        for _ in range(200):
            u, v = (w / np.linalg.norm(w) for w in (rng.standard_normal(3), rng.standard_normal(3)))
            if np.linalg.norm(u - v) >= 1e-8:
                residuals.append(abs(ball.sphere_point_identity_residual(u, v)))
        checks.append(("sphere-point-identity", _worst(residuals), 1e-12))
    failed = 0
    for name, value, limit in checks:
        ok = _passes(value, limit)
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {_G % value} (tolerance {_G % limit})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capmono",
        description="numerical checks of capillary-surface energies and monotonicity identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "energy", "monotonicity", "identity-suite"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--tolerance", type=float, default=None, help="tolerance override")
        p.add_argument("--seed", type=int, default=None, help="seed for random probes")
    args = parser.parse_args(argv)
    try:
        cfg = tables.with_overrides(
            tables.load_config(args.config),
            out_dir=args.out,
            tolerance=args.tolerance,
            seed=args.seed,
        )
        handler = {
            "generate": cmd_generate,
            "energy": cmd_energy,
            "monotonicity": cmd_monotonicity,
            "identity-suite": cmd_identity_suite,
        }[args.command]
        return handler(Run(cfg, Path(cfg.out_dir)))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a directory, say, where a command reads or writes a file
        print(f"cannot read or write a file: {exc}", file=sys.stderr)
        return 2
    except CapmonoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
