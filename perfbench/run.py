"""paraframe benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload verify-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; paraframe is imported from `src/`.
With `--trace 0` the result holds the end-to-end metrics of an untraced run
in a child process, plus the median set-up time of fresh interpreters.
With `--trace 1` it holds the per-layer metrics: an untraced and a traced
child run give self times and the tracing overhead, and two counting
passes in separate processes give call counts, which must agree exactly.
Every child runs one workload, single-threaded, and is waited for.
Times are scaled to a reference host speed (hostspeed.py).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7

#: Per-point span metrics: (metric, "name" or "layer", span name or layer).
SELF_MS = (
    ("hypersurface.immerse.self_ms", "name", "hypersurface.immerse"),
    ("hypersurface.orthonormal_frame.self_ms", "name", "hypersurface.orthonormal_frame"),
    ("hypersurface.bracket_field.self_ms", "name", "hypersurface.bracket_field"),
    ("hypersurface.sample_points.self_ms", "name", "hypersurface.sample_points"),
    ("frame.self_ms", "layer", "frame"),
    ("classifier.self_ms", "layer", "classifier"),
    ("nijenhuis.self_ms", "layer", "nijenhuis"),
    ("reference.self_ms", "layer", "reference"),
    ("report.analyze_point.self_ms", "name", "report.analyze_point"),
    ("report.self_ms", "layer", "report"),
    ("report.render.self_ms", "layer", "render"),
    ("cli.main.self_ms", "name", "cli.main"),
)

#: Per-point counts from the counting pass: (metric, counter name).
CALLS = (
    ("hypersurface.immerse.calls", "hypersurface.immerse"),
    ("hypersurface.orthonormal_frame.calls", "hypersurface.orthonormal_frame"),
    ("hypersurface.bracket_field.calls", "hypersurface.bracket_field"),
    ("jets.mul.calls", "jets.mul"),
    ("frame.curvature.calls", "frame.curvature"),
    ("nijenhuis.nijenhuis_direct.calls", "nijenhuis.nijenhuis_direct"),
    ("report.analyze_point.calls", "report.analyze_point"),
    ("report.render.bytes", "report.render.bytes"),
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(WORKER), mode, workload, str(seed), repr(seconds)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=2 * seconds + 90)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


#: Fresh interpreter: import the CLI, answer one classify, print the wall
#: seconds since the spawn time given as the first argument.
SETUP_CODE = """\
import contextlib, io, sys, time
from paraframe.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[2:])
print(rc, time.time() - float(sys.argv[1]), flush=True)
"""


def setup_seconds(seed: int) -> tuple[float, float]:
    """Median time from spawning an interpreter to its first CLI result.

    Returns the host-speed scaled median and the wall median.  This process
    and its interpreters share one CPU while they run, so that the kernel
    timed around each interpreter sees the same host speed.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _setup_seconds(seed)
    finally:
        os.sched_setaffinity(0, cpus)


def _setup_seconds(seed: int) -> tuple[float, float]:
    times, scaled = [], []
    for n in range(SETUP_REPEATS):
        kernel = hostspeed.kernel_seconds()
        model, point = (("s1", "0.3,0.7,1.1"), ("s2", "0.6,1.0,0.5"))[(seed + n) % 2]
        argv = [sys.executable, "-c", SETUP_CODE, repr(time.time()), "classify",
                "--model", model, "--point", point, "--format", "json"]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up interpreter did not finish") from exc
        rc, _, elapsed = proc.stdout.partition(" ")
        if proc.returncode != 0 or rc != "0":
            raise BenchError(f"set-up interpreter failed ({proc.returncode}):\n{proc.stderr}")
        times.append(float(elapsed))
        kernel = 0.5 * (kernel + hostspeed.kernel_seconds())
        scaled.append(times[-1] * hostspeed.REFERENCE_S / kernel)
    return statistics.median(scaled), statistics.median(times)


def p90(values: list[float]) -> float:
    """90th percentile (exclusive method); a single value is its own percentile."""
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def median_rate(run: dict, key: str = "scaled_s") -> float:
    """Median over calls of points per (scaled) second of the call."""
    return statistics.median(n / s for n, s in zip(run["op_points"], run[key]))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, list[dict], list[str]]:
    setup, setup_wall = setup_seconds(args.seed)
    run = run_worker("plain", args.workload, args.seed, args.seconds)
    lat_ms = [s * 1000.0 for s in run["scaled_s"]]
    wall_ms = [s * 1000.0 for s in run["latencies_s"]]
    n = len(lat_ms)
    metrics = {
        "points_per_s": metric(median_rate(run), "1/s"),
        "cmd_ms_p50": metric(statistics.median(lat_ms), "ms"),
        "cmd_ms_p90": metric(p90(lat_ms), "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    notes = [
        "times are scaled to the reference host speed (perfbench/hostspeed.py)",
        f"unscaled wall: points_per_s {median_rate(run, 'latencies_s'):.6g}, "
        f"cmd_ms_p50 {statistics.median(wall_ms):.6g}, cmd_ms_p90 {p90(wall_ms):.6g}, "
        f"setup_s {setup_wall:.6g}",
        f"points_per_s: median over calls; {run['points']} points in "
        f"{run['timed_s']:.3f} s of call time",
        f"cmd_ms_p50 / p90: {n} calls, about {n // 10} beyond p90",
        f"setup_s: median of {SETUP_REPEATS} fresh interpreters",
        f"failed_frac = {run['failed'] / n:.6g} ({run['failed']} of {n} calls)",
        f"stdout_sha256 (first {run['prefix_ops']} calls) = {run['prefix_sha256']}",
    ]
    return metrics, [run], notes


def per_layer(args) -> tuple[dict, list[dict], list[str]]:
    plain = run_worker("plain", args.workload, args.seed, args.seconds)
    traced = run_worker("traced", args.workload, args.seed, args.seconds)
    counts = [run_worker("count", args.workload, args.seed, 0) for _ in range(2)]
    first, second = (c["counts"] for c in counts)
    differ = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
              if first.get(k) != second.get(k)}
    if differ:
        raise BenchError(f"call counts differ between two counting passes with seed "
                         f"{args.seed}: {differ}")
    hashes = {r["prefix_sha256"] for r in (plain, traced, *counts)}
    if len(hashes) != 1:
        raise BenchError(f"stdout of the first operations differs with tracing on and off: "
                         f"{sorted(hashes)}")
    points = traced["points"]
    speed = sum(traced["scaled_s"]) / sum(traced["latencies_s"])
    metrics = {}
    for name, kind, key in SELF_MS:
        seconds = traced["self_s" if kind == "name" else "layer_self_s"].get(key, 0.0)
        metrics[name] = metric(1000.0 * seconds * speed / points, "ms/point")
    count = counts[0]
    for name, key in CALLS:
        unit = "B/point" if name.endswith(".bytes") else "count/point"
        metrics[name] = metric(count["counts"].get(key, 0) / count["points"], unit)
    metrics["trace.overhead_frac"] = metric(median_rate(plain) / median_rate(traced) - 1.0,
                                            "frac")
    notes = [
        f"traced run: {traced['ops']} calls, {points} points, {traced['spans']} spans "
        f"kept in {traced['span_file']}",
        f"counting pass: first {count['ops']} calls, {count['points']} points, "
        "identical counts and stdout in two processes and with tracing on and off",
    ]
    if traced["missing"]:
        notes.append(f"bindings absent from the program: {', '.join(traced['missing'])}")
    return metrics, [plain, traced, *counts], notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "paraframe" / "cli.py").is_file():
        print(f"error: no paraframe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports paraframe, so only once src/ is known to be there

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    try:
        metrics, runs, notes = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    for r in runs:
        for problem in r["problems"]:
            print(f"  FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
