"""Seeded benchmark of fairpost's CLI and estimator workloads.

Run from the repository root:

    python3 bench/run.py --workload solve_fixture --seed 0 --seconds 10 --trace 0

With --trace 0 the workload's input is generated at least three times and
for at least three seconds (the median is ``setup_s``), then its timed work
repeats for --seconds and at least the workload's ``min_iterations``; the
end-to-end metrics come from these untraced iterations.  With --trace 1 the
set-up runs once under the layer wrappers of spans.py, the timed work runs
untraced as above and then once traced, and the per-layer metrics come
from the spans; their overhead is ``trace.overhead_frac``.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it list every metric with its unit, extra figures for the workloads
that have them, and the run's provenance.  A full record of each run and
the spans of each traced run are written under bench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
# set-up repeats at least this often and for at least this long; its median
# is setup_s, so a fast set-up gets enough repeats to be steady
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0

# (name, unit); every end-to-end metric reads "lower is better".
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("err_hat", "frac")]


def _use_checkout_package() -> bool:
    """Put this checkout's src/ first on the import path, if it has fairpost."""
    src = ROOT / "src"
    if not (src / "fairpost" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(name: str, seed: int) -> dict:
    import numpy as np
    import fairpost
    from workloads import SPECS
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": name,
        "seed": seed,
        "workloads": {n: s.describe(seed) for n, s in SPECS.items()},
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fairpost": fairpost.__version__,
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _iterate_for(wl, seconds: float, checks) -> list:
    """Untraced timed iterations until --seconds have passed, and at least
    the workload's min_iterations: a median over several iterations for a
    noisy workload, and for predict_batches at least 100 batch latencies."""
    walls = []
    start = time.perf_counter()
    while (len(walls) < wl.p["min_iterations"]
           or time.perf_counter() - start < seconds):
        wl.reset()
        t0 = time.perf_counter()
        wl.iterate()
        walls.append(time.perf_counter() - t0)
        wl.check(checks)
    return walls


def _extras(wl, walls, checks) -> dict:
    """Figures printed beside the metrics for the workloads that have them."""
    extras = {"iterations": (len(walls), "count"),
              "fail_frac": (len(checks.failures) / checks.attempted, "frac")}
    latencies = getattr(wl, "latencies", None)
    if latencies:
        ms = sorted(1e3 * x for x in latencies)
        p90 = statistics.quantiles(ms, n=10)[8]
        extras.update(predict_p50_ms=(_median(ms), "ms"), predict_p90_ms=(p90, "ms"),
                      predict_batches=(len(ms), "count"),
                      predict_beyond_p90=(sum(1 for x in ms if x > p90), "count"))
    for name, value in wl.quality.items():
        if name != "err_hat":
            extras[name] = (value, "frac")
    return extras


def measure(wl, seconds: float) -> dict:
    """Untraced run: end-to-end metrics."""
    from workloads import Checks
    setup = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    checks = Checks()
    wl.check_setup(checks)
    walls = _iterate_for(wl, seconds, checks)
    values = {
        "setup_s": _median(setup),
        "wall_s": _median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_hat": wl.quality["err_hat"],
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "checks": checks,
        "extras": _extras(wl, walls, checks),
        "samples": {"setup_s": setup, "wall_s": walls},
    }


def trace(wl, seconds: float, run_id: str, spans_path: Path) -> dict:
    """Traced run: per-layer metrics from spans around fairpost's layers."""
    from spans import Tracer, instrument, layer_metrics, traced
    from workloads import Checks
    tracer = Tracer(run_id)
    with instrument(tracer):
        traced(tracer, "bench.setup", wl.setup, root=True)()
    checks = Checks()
    wl.check_setup(checks)
    walls = _iterate_for(wl, seconds, checks)
    wl.reset()
    with instrument(tracer):
        traced(tracer, "bench.iteration", wl.iterate, root=True)()
    wl.check(checks)
    timed = tracer.closed("bench.iteration")[0]
    traced_wall = (timed.end - timed.start) * 1e-9
    overhead = traced_wall / _median(walls) - 1.0
    metrics = layer_metrics(tracer, timed.id, overhead, wl.output_bytes())
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "checks": checks,
        "extras": {"spans": (len(tracer.spans), "count"),
                   "spans_file": (str(spans_path.relative_to(ROOT)), "path"),
                   "traced_wall_s": (traced_wall, "s"),
                   "untraced_wall_s": (_median(walls), "s")},
        "samples": {"wall_s": walls},
    }


def run_workload(spec, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run of spec in a scratch directory under bench/.work."""
    from workloads import make
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{spec.name}-") as tmp:
        wl = make(spec, seed, Path(tmp))
        if traced:
            run_id = f"{spec.name}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
            return trace(wl, seconds, run_id,
                         WORK / "spans" / f"{spec.name}-seed{seed}.csv")
        return measure(wl, seconds)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    if not _use_checkout_package():
        print(f"error: no fairpost package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import SPECS
    if args.workload not in SPECS:
        parser.error(f"--workload must be one of {', '.join(SPECS)}")
    # sweep sizes its pool as users get it
    os.environ.pop("FAIRPOST_WORKERS", None)

    spec = SPECS[args.workload]
    result = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    checks = result["checks"]
    line = {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures), "metrics": result["metrics"]}
    record = {"provenance": provenance(spec.name, args.seed), "trace": args.trace,
              "seconds": args.seconds, "result": line, "extras": result["extras"],
              "samples": result["samples"], "failures": checks.failures}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{spec.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"# {spec.name} seed={args.seed} trace={args.trace}: {spec.why}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {_fmt(metric['value'])} {metric['unit']}")
    for name, (value, unit) in result["extras"].items():
        print(f"# {name} = {_fmt(value)} {unit}")
    for failure in checks.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
