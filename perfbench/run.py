"""capmono benchmark: end-to-end CLI verification pipelines and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import Checks, check_negative_control, check_pipeline
from tracing import COMMANDS, COUNTS, LAYERS
from workloads import WORKLOADS, config_text, negative_control_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 16
CHILD_TIMEOUT_S = 100.0

SETUP_PROGRAM = "import sys, capmono.cli, capmono.tables; capmono.tables.load_config(sys.argv[1])"


def child_env() -> dict:
    """One thread per child, the checkout's program first on the path, and
    bytecode cached as in an ordinary install."""
    env = dict(os.environ)
    env.pop("CAPMONO_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


def spawn(argv: list[str], stdout: Path) -> tuple[int, float, float]:
    """Run one child to completion: exit code, wall seconds, peak RSS in MB."""
    with open(stdout, "w") as out, open(stdout.with_suffix(".stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def cli_pipeline(config: Path, work: Path, out: Path, setup) -> dict:
    """Subcommands as separate CLI processes, one after another, into a fresh
    out; setup() takes one setup sample before each of them."""
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    exits, seconds, rss = {}, {}, []
    for command in COMMANDS:
        setup()
        argv = [sys.executable, "-m", "capmono", command, "--config", str(config)]
        exits[command], seconds[command], peak = spawn(argv, work / f"{command}.stdout")
        rss.append(peak)
    return {"exits": exits, "seconds": seconds, "peak_rss_mb": max(rss)}


def inproc_pipeline(config: Path, work: Path, out: Path, traced: bool, name: str) -> dict:
    """The four subcommands in one child process, optionally traced."""
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "tracing.py"), "--config", str(config), "--work", str(work), "--pipeline", name]
    code, _, _ = spawn(argv + (["--trace"] if traced else []), work / "tracing.stdout")
    path = work / "inproc.json"
    if code != 0 or not path.is_file():
        return {"child_exit": code, "exits": {c: None for c in COMMANDS}}
    report = json.loads(path.read_text())
    report["child_exit"] = code
    report["exits"] = {c["command"]: c["exit"] for c in report["commands"]}
    report["seconds"] = {c["command"]: c["seconds"] for c in report["commands"]}
    return report


def negative_control(work: Path, checks: Checks) -> dict:
    """Generate and verify the perturbed cap; checked, not timed."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    config = work / "run.cfg"
    config.write_text(negative_control_text(str(out)))
    exits = {}
    for command in ("generate", "identity-suite"):
        argv = [sys.executable, "-m", "capmono", command, "--config", str(config)]
        exits[command], _, _ = spawn(argv, work / f"{command}.stdout")
    return check_negative_control(checks, work, exits)


class Setup:
    """Interpreter start, ``import capmono`` and config parsing, which every
    CLI call pays.  Samples are taken one at a time through the run, so
    that a burst of other load moves few of them."""

    def __init__(self, config: Path, work: Path, checks: Checks):
        self.argv = [sys.executable, "-c", SETUP_PROGRAM, str(config)]
        self.stdout = work / "setup.stdout"
        self.checks = checks
        self.samples: list[float] = []
        spawn(self.argv, self.stdout)  # writes the bytecode caches, untimed

    def __call__(self) -> None:
        code, seconds, _ = spawn(self.argv, self.stdout)
        self.checks.check("setup exits 0", code == 0)
        self.samples.append(seconds)


def timed_loop(seconds: float, step, at_least: int = 1) -> list:
    """Call step() at least at_least times, then until the next call would
    overrun the budget."""
    results = []
    start = time.perf_counter()
    while len(results) < at_least or seconds > 0:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed + elapsed / len(results) > seconds:
            break
    return results


def same_outputs(checks: Checks, numbers: list[dict]) -> None:
    checks.check("outputs identical across pipelines", all(n == numbers[0] for n in numbers))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float, work: Path, checks: Checks) -> tuple[dict, dict]:
    config = work / "run.cfg"
    config.write_text(config_text(workload, seed, str(work / "out")))
    setup = Setup(config, work, checks)
    start = time.perf_counter()

    def step(k):
        run = cli_pipeline(config, work / f"p{k}", work / "out", setup)
        run["numbers"] = check_pipeline(checks, work / f"p{k}", work / "out", run["exits"], workload)
        return run

    runs = timed_loop(seconds, step)
    same_outputs(checks, [r["numbers"] for r in runs])
    # more setup samples fill the rest of the budget: setup is short, so
    # its fastest sample needs many of them to land in a quiet moment
    left = seconds - (time.perf_counter() - start)
    timed_loop(left, lambda k: setup(), at_least=MIN_SETUP_SAMPLES - len(setup.samples))
    control = negative_control(work / "negative", checks)

    med = statistics.median
    times = {c: [r["seconds"][c] for r in runs] for c in COMMANDS}
    # the long commands and the pipeline report their median over the run's
    # pipelines; setup reports its fastest sample, as other tenants' load
    # only ever adds time and swings a short sample far more than the
    # program's own work does
    metrics = {
        "pipeline_s": metric(med(sum(r["seconds"].values()) for r in runs), "s"),
        "monotonicity_s": metric(med(times["monotonicity"]), "s"),
        "identity_suite_s": metric(med(times["identity-suite"]), "s"),
        "peak_rss_mb": metric(med(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": metric(min(setup.samples), "s"),
    }
    detail = {
        "pipelines": len(runs),
        "command_medians": {c: med(v) for c, v in times.items()},
        "setup_samples": setup.samples,
        "samples": [{"seconds": r["seconds"], "peak_rss_mb": r["peak_rss_mb"]} for r in runs],
        "numbers": runs[0]["numbers"],
        "negative_control": control,
    }
    return metrics, detail


def per_layer(workload, seed: int, seconds: float, work: Path, checks: Checks) -> tuple[dict, dict]:
    config = work / "run.cfg"
    config.write_text(config_text(workload, seed, str(work / "out")))

    def step(k):
        # alternate which side runs first so drift does not bias the ratio
        order = (False, True) if k % 2 == 0 else (True, False)
        pair = {}
        for traced in order:
            name = f"{'t' if traced else 'u'}{k}"
            pair[traced] = inproc_pipeline(config, work / name, work / "out", traced, name)
            pair[traced]["numbers"] = check_pipeline(checks, work / name, work / "out", pair[traced]["exits"], workload)
        return pair

    pairs = timed_loop(seconds, step)
    same_outputs(checks, [p[t]["numbers"] for p in pairs for t in (False, True)])
    control = negative_control(work / "negative", checks)

    traced = [p[True] for p in pairs]
    ok = checks.check("traced and untraced children completed", all(p[t]["child_exit"] == 0 for p in pairs for t in p))
    if not ok:
        return {}, {"pairs": len(pairs), "negative_control": control}
    med = statistics.median

    def layer_median(key):
        return med(t["self_s"][key] for t in traced)

    def count_median(key):
        return med(t["counts"].get(key, 0) for t in traced)

    m = {f"{layer}.self_s": metric(layer_median(layer), "s") for layer in LAYERS if not layer.startswith("tables.")}
    m["tables.save_s"] = metric(layer_median("tables.save"), "s")
    m["tables.load_s"] = metric(layer_median("tables.load"), "s")
    for key, unit in COUNTS.items():
        m[key] = metric(count_median(key), unit)
    ratios = [sum(p[True]["seconds"].values()) / sum(p[False]["seconds"].values()) for p in pairs]
    m["trace.overhead_ratio"] = metric(med(ratios), "ratio")
    detail = {
        "pairs": len(pairs),
        "overhead_ratios": ratios,
        "numbers": pairs[0][True]["numbers"],
        "negative_control": control,
        "traces": [{k: t[k] for k in ("pipeline", "commands", "counts", "self_s", "spans")} for t in traced],
    }
    return m, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capmono benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "capmono" / "cli.py").is_file():
        print(f"no capmono sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-s{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    results = HERE / "_out"
    results.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        work.mkdir(parents=True)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(workload, args.seed, args.seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ratio": checks.failed / checks.attempted,
        "failures": checks.failures,
        "metrics": metrics,
        **detail,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("traces", "samples", "setup_samples")}
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
