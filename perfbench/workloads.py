"""Seeded operation streams for the benchmark workloads, and their correctness gate.

An operation is one `paraframe.cli.main(argv)` call.  Each workload is an
endless, deterministic stream of operations drawn from the workload name and
the benchmark seed; the program only ever sees the generated argv lists.

The gate reads the captured stdout of an operation and compares it with the
hand-transcribed closed forms of `paraframe.reference`, never with a second
run of the pipeline under test.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from paraframe.hypersurface import ModelPoint, sample_points
from paraframe.reference import model_reference

#: Residual tolerance passed to every call as `--tol`; the gate uses the same.
TOL = 1e-9

#: verify --samples per call.
VERIFY_SAMPLES = 8

#: Sweep grid shape: the exclusion-crossing u1 axis, then the two others.
U1_COUNT, OTHER_COUNTS = 7, (3, 3)

#: Point pool drawn per model for point-commands (refilled with a new seed).
POINT_POOL = 64

#: Leading operations of each stream that the counting pass replays and the
#: stdout hash covers.  Each prefix holds every model, radius and format the
#: workload rotates through (for sweep-grid not every combination of them,
#: which would take 12 calls).
PREFIX_OPS = {"verify-mixed": 4, "sweep-grid": 3, "point-commands": 24}

WORKLOADS = tuple(PREFIX_OPS)

HALF_PI = math.pi / 2.0
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Op:
    """One CLI call and what the gate needs to judge its output."""

    argv: tuple[str, ...]
    kind: str  # verify | sweep | classify | curvature
    model: str
    r: float
    fmt: str
    points: int  # model points the call pushes through (samples, rows or 1)
    grid: tuple[tuple[float, float, int], ...] | None = None  # sweep axes
    point: tuple[float, ...] | None = None  # classify / curvature point


def _num(x: float) -> str:
    return repr(float(x))


def _common(model: str, r: float, fmt: str) -> list[str]:
    # values that may start with "-" are passed as --flag=value, which is how
    # argparse accepts them
    return ["--model", model, "--r", _num(r), "--tol", _num(TOL), "--format", fmt]


def _verify_ops(rng: random.Random) -> Iterator[Op]:
    for i in itertools.count():
        model = ("s1", "s2")[i % 2]
        r = (1.0, 2.0)[(i // 2) % 2]
        argv = ["verify", *_common(model, r, "json"),
                "--samples", str(VERIFY_SAMPLES), "--seed", str(rng.randrange(2**31))]
        yield Op(tuple(argv), "verify", model, r, "json", VERIFY_SAMPLES)


def _angle_axis(rng: random.Random, count: int) -> tuple[float, float, int]:
    """An axis inside [0, 2*pi), away from both ends."""
    span = rng.uniform(0.6, 1.2)
    start = rng.uniform(0.05, TWO_PI - span - 0.05)
    return (start, start + span, count)


def _sweep_grid(rng: random.Random, model: str) -> tuple[tuple[float, float, int], ...]:
    """Axes whose u1 axis puts exactly one column on a model exclusion.

    The column sits at index m of a 7-value linspace centred on the excluded
    value; every other u1 value keeps at least 0.15 from any exclusion, so
    those rows are in the domain and pass at the default tolerance.
    """
    m = rng.randint(1, U1_COUNT - 2)
    n0, n2 = OTHER_COUNTS
    if model == "s1":
        centre = rng.randint(1, 3) * HALF_PI
        h = rng.uniform(0.15, 0.22)
        u1 = (centre - m * h, centre + (U1_COUNT - 1 - m) * h, U1_COUNT)
        return (_angle_axis(rng, n0), u1, _angle_axis(rng, n2))
    h = rng.uniform(0.2, 0.4)
    u1 = (-m * h, (U1_COUNT - 1 - m) * h, U1_COUNT)
    start = rng.uniform(-2.4, 0.4)
    u3 = (start, start + rng.uniform(1.0, 2.0), n2)
    return (u1, _angle_axis(rng, n0), u3)


def _sweep_ops(rng: random.Random) -> Iterator[Op]:
    for i in itertools.count():
        model = ("s1", "s2")[i % 2]
        r = (1.0, 2.0)[(i // 2) % 2]
        fmt = ("csv", "json", "text")[i % 3]
        grid = _sweep_grid(rng, model)
        spec = ",".join(f"{_num(a)}:{_num(b)}:{n}" for a, b, n in grid)
        rows = math.prod(n for _, _, n in grid)
        argv = ["sweep", *_common(model, r, fmt), f"--grid={spec}"]
        yield Op(tuple(argv), "sweep", model, r, fmt, rows, grid)


def _point_ops(rng: random.Random) -> Iterator[Op]:
    pools: dict[str, list[ModelPoint]] = {"s1": [], "s2": []}
    for i in itertools.count():
        command = ("classify", "curvature")[i % 2]
        model = ("s1", "s2")[(i // 2) % 2]
        r = (1.0, 2.0)[(i // 4) % 2]
        fmt = ("text", "json", "csv")[i % 3]
        if not pools[model]:
            pools[model] = sample_points(model, POINT_POOL, rng.randrange(2**31))
        u = tuple(float(x) for x in pools[model].pop().u)
        argv = [command, *_common(model, r, fmt), "--point=" + ",".join(map(_num, u))]
        yield Op(tuple(argv), command, model, r, fmt, 1, point=u)


_STREAMS = {
    "verify-mixed": _verify_ops,
    "sweep-grid": _sweep_ops,
    "point-commands": _point_ops,
}


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The endless operation stream of a workload; equal seeds give equal streams."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _STREAMS[workload](random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _key_values(block: str) -> dict[str, str]:
    """`key = value` lines of the text format."""
    out = {}
    for line in block.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a key = value line: {line!r}")
        out[key] = value
    return out


def _csv_records(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(text.splitlines()))


def _class_list(value) -> list[str]:
    """Classes as rendered: a JSON list, `[F1, F11]` (text) or `[F1; F11]` (csv)."""
    if isinstance(value, list):
        return [str(v) for v in value]
    inner = value.strip().removeprefix("[").removesuffix("]")
    return [part.strip() for part in inner.replace(";", ",").split(",") if part.strip()]


def _point_fields(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        (record,) = _csv_records(out)
        return record
    return _key_values(out.strip("\n"))


def _sweep_records(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(out)["rows"]
    if fmt == "csv":
        return _csv_records(out)
    return [_key_values(block) for block in out.strip("\n").split("\n\n")]


def _close(value, target: float, what: str, problems: list[str]) -> None:
    if not abs(float(value) - target) <= TOL:
        problems.append(f"{what} = {value} but the closed form is {target!r}")


def _check_curvature(fields: dict, p: ModelPoint, where: str, problems: list[str]) -> None:
    ref = model_reference(p)
    _close(fields["tau"], ref.tau, f"{where} tau", problems)
    for key in ("k_01", "k_02", "k_12"):
        _close(fields[key], ref.sectional, f"{where} {key}", problems)


def grid_points(grid) -> list[np.ndarray]:
    axes = [np.linspace(a, b, n) for a, b, n in grid]
    return [np.array(u) for u in itertools.product(*axes)]


def _check_sweep(op: Op, out: str, problems: list[str]) -> None:
    records = _sweep_records(out, op.fmt)
    expected = grid_points(op.grid)
    if len(records) != len(expected):
        problems.append(f"{len(records)} sweep rows, expected {len(expected)}")
        return
    for n, (row, u) in enumerate(zip(records, expected)):
        where = f"row {n}"
        got = np.array([float(row[f"u{k}"]) for k in range(3)])
        if not np.array_equal(got, u):
            problems.append(f"{where} is at u = {got.tolist()}, expected {u.tolist()}")
            continue
        try:
            p = ModelPoint(model=op.model, r=op.r, u=u)
        except ValueError:
            if row["status"] != "skipped":
                problems.append(f"{where} outside the domain but status {row['status']!r}")
            continue
        if row["status"] != "PASS":
            problems.append(f"{where} in the domain but status {row['status']!r}")
            continue
        _check_curvature(row, p, where, problems)


def check(op: Op, rc: int | None, out: str) -> list[str]:
    """Problems with one operation's result; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems: list[str] = []
    try:
        if op.kind == "verify":
            report = json.loads(out)
            if report["status"] != "PASS":
                problems.append(f"verify {report['status']}: {report['failed']}")
        elif op.kind == "sweep":
            _check_sweep(op, out, problems)
        else:
            fields = _point_fields(out, op.fmt)
            p = ModelPoint(model=op.model, r=op.r, u=np.array(op.point))
            if op.kind == "classify":
                want = [f"F{c}" for c in model_reference(p).classes]
                if _class_list(fields["classes"]) != want:
                    problems.append(f"classes {fields['classes']} but the closed form is {want}")
            else:
                _check_curvature(fields, p, "curvature", problems)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
