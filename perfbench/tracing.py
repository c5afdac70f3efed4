"""In-process pipeline runner with optional layer spans.

Run as a child process by ``run.py``:

    python3 perfbench/tracing.py --config run.cfg --work DIR --pipeline ID [--trace]

With the program's ``src/`` on ``PYTHONPATH``, it runs the four
CLI subcommands in sequence through ``capmono.cli.main`` in this one process
(each command's stdout goes to ``DIR/<command>.stdout``), and writes
``DIR/inproc.json`` with exit codes, in-process seconds, and, with
``--trace``, the spans and counts recorded.

Spans are recorded from here, not from the library: each layer's public
functions are wrapped and the wrapper is installed under the name the
caller looks up (``cli`` imports ``sample_chart`` by name, ``halfspace``
and ``ball`` import ``RadialPrefix`` and ``BallRestrictedEta`` by name, and
so on).  A layer's self time is its span time minus the time of the spans
nested in it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

COMMANDS = ("generate", "energy", "monotonicity", "identity-suite")

# layer keys, as they appear in the per-layer metric names
CLI = "cli"
SAMPLE = "surfaces.sample_chart"
QUADRATURE = "quadrature"
GRID = "wetted.grid"
ETA = "wetted.BallRestrictedEta"
PREFIX = "radial.RadialPrefix"
IDENTITY = "identity"
ENERGY = "energy"
SAVE = "tables.save"
LOAD = "tables.load"
LAYERS = (CLI, SAMPLE, QUADRATURE, GRID, ETA, PREFIX, IDENTITY, ENERGY, SAVE, LOAD)
# counters recorded at the same boundaries, with their units
COUNTS = {
    "surfaces.samples": "count",
    "wetted.grid.builds": "count",
    "wetted.grid.nodes": "count",
    "wetted.grid.band_cells": "count",
    "wetted.BallRestrictedEta.objects": "count",
    "wetted.BallRestrictedEta.radii": "count",
    "radial.RadialPrefix.objects": "count",
    "radial.RadialPrefix.points": "count",
    "identity.calls": "count",
    "tables.bytes_written": "bytes",
    "tables.bytes_read": "bytes",
}


class Tracer:
    """Nested spans kept in memory; written out when the pipeline ends."""

    def __init__(self, pipeline: str):
        self.pipeline = pipeline
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": sid, "name": name, "layer": layer, "parent": parent, "pipeline": self.pipeline}
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter() - self._t0
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its direct children's."""
    child = Counter()
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s["layer"]] += s["end"] - s["start"] - child[s["id"]]
    return out


def _file_size(path) -> int:
    return Path(path).stat().st_size


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers on every layer boundary; restore on exit."""
    from capmono import ball, cli, energy, halfspace, quadrature, surfaces, tables, wetted

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(owner, attr, layer, after=None):
        fn = getattr(owner, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        patch(owner, attr, wrapper)

    def count_samples(surface, *args):
        tracer.counts["surfaces.samples"] += len(surface.points)

    wrap(cli, "sample_chart", SAMPLE, count_samples)

    for attr in ("gauss_legendre", "tensor_rule"):
        wrap(surfaces, attr, QUADRATURE)
    for attr in ("plane_grid", "sphere_mesh", "sphere_rule"):
        wrap(wetted, attr, QUADRATURE)
    # BallRestrictedEta and the sphere antialiasing import these at call time
    for attr in ("sphere_mesh", "barycentric_subtriangles", "spherical_triangle_areas"):
        wrap(quadrature, attr, QUADRATURE)

    grid = wetted.WettedRegion.grid

    @functools.wraps(grid)
    def traced_grid(self):
        if "grid" in self._cache:
            return grid(self)
        with tracer.span("wetted.WettedRegion.grid", GRID):
            out = grid(self)
        nodes, _, wind, wind_aa = out
        tracer.counts["wetted.grid.builds"] += 1
        tracer.counts["wetted.grid.nodes"] += len(nodes)
        tracer.counts["wetted.grid.band_cells"] += int((wind_aa != wind).sum())
        return out

    patch(wetted.WettedRegion, "grid", traced_grid)

    class TracedEta(wetted.BallRestrictedEta):
        def __init__(self, *args, **kwargs):
            with tracer.span("wetted.BallRestrictedEta.__init__", ETA):
                super().__init__(*args, **kwargs)
            tracer.counts["wetted.BallRestrictedEta.objects"] += 1

        def cumulative(self, key, radii):
            with tracer.span("wetted.BallRestrictedEta.cumulative", ETA):
                out = super().cumulative(key, radii)
            tracer.counts["wetted.BallRestrictedEta.radii"] += len(out)
            return out

        def windowed(self, key, r, halfwidth):
            with tracer.span("wetted.BallRestrictedEta.windowed", ETA):
                return super().windowed(key, r, halfwidth)

        def windowed_over_r2(self, key, r, halfwidth):
            with tracer.span("wetted.BallRestrictedEta.windowed_over_r2", ETA):
                return super().windowed_over_r2(key, r, halfwidth)

    class TracedPrefix(halfspace.RadialPrefix):
        def __init__(self, *args, **kwargs):
            with tracer.span("radial.RadialPrefix.__init__", PREFIX):
                super().__init__(*args, **kwargs)
            tracer.counts["radial.RadialPrefix.objects"] += 1
            tracer.counts["radial.RadialPrefix.points"] += self.n

    for method in ("cumulative", "windowed", "windowed_over_r2", "auto_halfwidth", "bounds_average"):
        base = getattr(halfspace.RadialPrefix, method)

        def traced_method(self, *args, _base=base, _name=f"radial.RadialPrefix.{method}", **kwargs):
            with tracer.span(_name, PREFIX):
                return _base(self, *args, **kwargs)

        setattr(TracedPrefix, method, functools.wraps(base)(traced_method))

    for owner in (halfspace, ball):
        patch(owner, "BallRestrictedEta", TracedEta)
    for owner in (halfspace, ball, energy):
        patch(owner, "RadialPrefix", TracedPrefix)

    def count_identity(*args):
        tracer.counts["identity.calls"] += 1

    for attr in ("monotonicity_profile", "monotonicity_identity_detail"):
        wrap(halfspace, attr, IDENTITY, count_identity)
    for attr in (
        "monotonicity_profile",
        "monotonicity_identity_detail",
        "first_variation_residual",
        "sphere_point_identity_residual",
    ):
        wrap(ball, attr, IDENTITY, count_identity)

    for attr in ("energy_report", "gauss_bonnet_residual", "gauss_equation_residual", "divergence_identity_residual"):
        wrap(energy, attr, ENERGY)

    def count_written(out, obj, path, *rest):
        tracer.counts["tables.bytes_written"] += _file_size(path)

    for attr in ("save_surface", "save_boundary", "save_curve", "profile_csv", "report_json"):
        wrap(tables, attr, SAVE, count_written)

    def count_read(out, surface_path, boundary_path, *rest):
        tracer.counts["tables.bytes_read"] += _file_size(surface_path) + _file_size(boundary_path)

    wrap(tables, "load_surface", LOAD, count_read)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def run_pipeline(config: str, work: Path, tracer: Tracer | None) -> list[dict]:
    """Run the four subcommands in this process; return exit codes and seconds."""
    from capmono import cli

    results = []
    for command in COMMANDS:
        argv = [command, "--config", config]
        with open(work / f"{command}.stdout", "w") as fh, contextlib.redirect_stdout(fh):
            t0 = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{command}", CLI):
                    code = cli.main(argv)
            seconds = time.perf_counter() - t0
        results.append({"command": command, "exit": code, "seconds": seconds})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--pipeline", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)
    report: dict = {"pipeline": args.pipeline, "traced": args.trace}
    if args.trace:
        tracer = Tracer(args.pipeline)
        with instrumented(tracer):
            report["commands"] = run_pipeline(args.config, work, tracer)
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
        report["self_s"] = self_times(tracer.spans)
    else:
        report["commands"] = run_pipeline(args.config, work, None)
    (work / "inproc.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
