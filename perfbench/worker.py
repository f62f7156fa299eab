"""One measured run of one workload, in its own process.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is `plain` (untraced, timed), `traced` (timed, with spans) or `count`
(the workload's fixed leading operations, with call counters).  The last
stdout line is a JSON object with the run's figures; paraframe's own
output is captured and never reaches this process's stdout.  Needs
paraframe importable (PYTHONPATH=src).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from paraframe import cli

import hostspeed
import tracing
import workloads

SPAN_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"


def call(argv, sampler: hostspeed.Sampler | None = None) -> tuple[int | None, str, float]:
    """Run `paraframe.cli.main(argv)`; return exit code, stdout and wall seconds.

    With a sampler, the kernel is also timed during the call, and the
    sampler's own time is left out of the returned seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    sampling = sampler.running() if sampler else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampling:
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    if sampler:
        seconds -= sampler.overhead
    if rc is None:
        print(err.getvalue(), file=sys.stderr)
    return rc, out.getvalue(), seconds


class Run:
    """Operations made, their latencies, and the gate's verdicts."""

    def __init__(self, workload: str):
        self.prefix = workloads.PREFIX_OPS[workload]
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.op_points: list[int] = []
        self.timed_s = 0.0
        self.failed = 0
        self.problems: list[str] = []
        self._sha = hashlib.sha256()

    def record(self, op: workloads.Op, rc, out: str, seconds: float, scaled: float) -> None:
        n = len(self.latencies)
        self.latencies.append(seconds)
        self.scaled.append(scaled)
        self.op_points.append(op.points)
        self.timed_s += seconds
        if n < self.prefix:
            self._sha.update(out.encode())
        problems = workloads.check(op, rc, out)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {n} {' '.join(op.argv)}: {p}" for p in problems[:3])

    def result(self) -> dict:
        return {
            "ops": len(self.latencies),
            "failed": self.failed,
            "points": sum(self.op_points),
            "timed_s": self.timed_s,
            "latencies_s": self.latencies,
            "scaled_s": self.scaled,
            "op_points": self.op_points,
            "prefix_ops": min(self.prefix, len(self.latencies)),
            "prefix_sha256": self._sha.hexdigest(),
            "problems": self.problems[:10],
        }


def timed_run(workload: str, seed: int, seconds: float, recorder=None) -> Run:
    """Operations until `seconds` of call time, and at least the hashed prefix.

    Operation 0 runs once untimed first, so that lazy imports and first-call
    costs are paid before timing starts.  The gate runs between calls,
    outside the timed region.  The host-speed kernel runs before and after
    each call and, from a timer signal, during it; its time is left out.
    """
    call(next(workloads.ops(workload, seed)).argv)
    run = Run(workload)
    stream = workloads.ops(workload, seed)
    sampler = hostspeed.Sampler()
    kernel = hostspeed.kernel_seconds()
    while run.timed_s < seconds or len(run.latencies) < run.prefix:
        op = next(stream)
        if recorder is not None:
            recorder.trace = len(run.latencies)
        sampler.samples, sampler.overhead = [kernel], 0.0
        rc, out, wall = call(op.argv, sampler)
        kernel = hostspeed.kernel_seconds()
        samples = [*sampler.samples, kernel]
        scaled = wall * hostspeed.REFERENCE_S * len(samples) / sum(samples)
        run.record(op, rc, out, wall, scaled)
    return run


def plain(workload: str, seed: int, seconds: float) -> dict:
    result = timed_run(workload, seed, seconds).result()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def traced(workload: str, seed: int, seconds: float) -> dict:
    before = tracing.originals(tracing.BINDINGS)
    recorder = tracing.SpanRecorder()
    with tracing.patched(tracing.BINDINGS, recorder.wrap) as present:
        run = timed_run(workload, seed, seconds, recorder)
    if tracing.originals(tracing.BINDINGS) != before:
        raise RuntimeError("a patched binding was not restored")
    by_name, by_layer = recorder.self_seconds()
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in recorder.spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    result = run.result()
    result.update(
        self_s=by_name,
        layer_self_s=by_layer,
        spans=len(recorder.spans),
        missing=[b.name for b in tracing.BINDINGS if b not in present],
        span_file=str(path.relative_to(SPAN_DIR.parent.parent)),
    )
    return result


def count(workload: str, seed: int) -> dict:
    counter = tracing.CallCounter()
    run = Run(workload)
    stream = workloads.ops(workload, seed)
    with tracing.patched((*tracing.BINDINGS, tracing.JET_MUL), counter.wrap):
        for _ in range(run.prefix):
            op = next(stream)
            rc, out, wall = call(op.argv)
            run.record(op, rc, out, wall, wall)
    result = run.result()
    result["counts"] = dict(sorted(counter.counts.items()))
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "plain":
        result = plain(workload, seed, seconds)
    elif mode == "traced":
        result = traced(workload, seed, seconds)
    elif mode == "count":
        result = count(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
