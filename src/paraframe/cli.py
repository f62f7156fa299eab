"""Command-line interface.

    paraframe classify  --model s1 --r 1 --point 0.3,0.7,1.1
    paraframe curvature --model s2 --r 2 --point 0.6,1.0,0.5 --format json
    paraframe verify    --model s1 --samples 100 --seed 42 --format json
    paraframe sweep     --model s1 --grid 0,0.5:1.4:10,0 --format csv

Exit codes: 0 success / verification PASS, 1 verification FAIL or stdout
closed before all output was written (a broken pipe, as in `| head -n 1`;
no traceback is printed), 2 usage or domain error.

A sweep writes its rows a chunk at a time, as each chunk is analysed, so a
closed pipe can stop it mid-way.  A grid point outside the domain is a
`skipped` row and a point whose analysis fails a `FAIL` row, each with the
error in `warning`; one stderr line after the last row counts each kind,
and the sweep exits 0, as it does when a row fails a residual.

--point belongs to classify and curvature, --samples and --seed to verify,
--grid to sweep; --model, --r, --tol, --format and --config are common.
The same keys can be given in a config file of `key = value` lines
(--config PATH); a config file may hold keys of every command, and
command-line flags take precedence.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .hypersurface import MODELS, DomainError, ModelPoint
from .report import (
    SweepText,
    classify_report,
    curvature_report,
    render_csv,
    render_json,
    render_text,
    run_verify,
    sweep_rows,
)

USAGE_ERROR = 2


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    model: str
    r: float = 1.0
    point: np.ndarray | None = None
    grid: list[np.ndarray] | None = None
    samples: int = 100
    seed: int = 42
    tol: float = 1e-9
    fmt: str = "text"


def parse_point(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--point needs 3 comma-separated values, got {text!r}")
    try:
        return np.array([float(x) for x in parts])
    except ValueError as exc:
        raise UsageError(f"bad --point value: {exc}") from exc


def parse_grid(text: str) -> list[np.ndarray]:
    """Grid spec: three comma-separated axes, each `value` or `start:stop:count`.

    Rows are the Cartesian product in row-major order (first axis slowest).
    A range's ends and span must be finite; a single `value` may be any
    float, and a non-finite one is a skipped row.
    """
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--grid needs 3 comma-separated axis specs, got {text!r}")
    axes = []
    for part in parts:
        try:
            if ":" in part:
                pieces = part.split(":")
                if len(pieces) != 3:
                    raise ValueError("range spec is start:stop:count")
                start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
                if count < 0:
                    raise ValueError("count must be >= 0")
                if not math.isfinite(stop - start):  # also nan or inf at an end
                    raise ValueError("range ends and span must be finite")
                axes.append(np.linspace(start, stop, count))
            else:
                axes.append(np.array([float(part)]))
        except ValueError as exc:
            raise UsageError(f"bad --grid axis {part!r}: {exc}") from exc
    return axes


def read_config_file(path: str) -> dict[str, str]:
    """`key = value` lines; blank lines and # comments ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


_CONFIG_KEYS = ("model", "r", "point", "grid", "samples", "seed", "tol", "format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` only reads it.

    A parser is a web of reference cycles, so a parser rebuilt per call is
    garbage that only the cyclic collector frees, often only in its rare
    full collections: over 1,600 in-process `verify` calls that raised the
    peak resident memory by about 1 MB.
    """
    parser = argparse.ArgumentParser(
        prog="paraframe",
        description="Frame tensor calculus on hyperspheres: classification, "
        "curvature, verification and parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    point = [("--point", {"help": "u0,u1,u2"})]
    sampling = [
        ("--samples", {"type": int, "help": "verify sample count"}),
        ("--seed", {"type": int, "help": "sampling seed"}),
    ]
    grid = [("--grid", {"help": "axis specs: value or start:stop:count"})]
    for name, text, own in (
        ("classify", "class membership and scalar parameters at a point", point),
        ("curvature", "curvature tensors and scalars at a point", point),
        ("verify", "check every closed-form identity at sampled points", sampling),
        ("sweep", "evaluate a report row per grid point", grid),
    ):
        cmd = sub.add_parser(name, help=text)
        # flags a command does not take still read as None in make_config
        cmd.set_defaults(point=None, grid=None, samples=None, seed=None)
        cmd.add_argument("--model", choices=sorted(MODELS))
        cmd.add_argument("--r", type=float, default=None, help="radius (default 1)")
        for flag, kwargs in own:
            cmd.add_argument(flag, **kwargs)
        cmd.add_argument("--tol", type=float, default=None, help="residual tolerance")
        cmd.add_argument("--format", choices=("json", "csv", "text"), default=None)
        cmd.add_argument("--config", default=None, help="key = value config file")
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = read_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(flag, key, cast):
        if flag is not None:
            return cast(flag)
        if key in file_values:
            raw = file_values[key]
            try:
                return cast(raw)
            except (ValueError, UsageError) as exc:
                raise UsageError(f"bad config value for {key}: {exc}") from exc
        return None

    def source(key):
        return f"--{key}" if getattr(args, key) is not None else f"config key {key}"

    model = pick(args.model, "model", str)
    if model is None:
        raise UsageError("--model is required (flag or config file)")
    if model not in MODELS:
        raise UsageError(f"unknown model {model!r}")

    cfg = RunConfig(command=args.command, model=model)
    r = pick(args.r, "r", float)
    if r is not None:
        cfg.r = r
    if not (math.isfinite(cfg.r) and cfg.r > 0):
        raise UsageError(f"radius must be positive and finite, got {cfg.r}")
    cfg.point = pick(args.point, "point", parse_point)
    cfg.grid = pick(args.grid, "grid", parse_grid)
    samples = pick(args.samples, "samples", int)
    if samples is not None:
        if samples < 1:
            raise UsageError(f"{source('samples')} must be >= 1")
        cfg.samples = samples
    seed = pick(args.seed, "seed", int)
    if seed is not None:
        if seed < 0:
            raise UsageError(f"{source('seed')} must be >= 0, got {seed}")
        cfg.seed = seed
    tol = pick(args.tol, "tol", float)
    if tol is not None:
        if not (math.isfinite(tol) and tol > 0):
            raise UsageError(f"{source('tol')} must be positive and finite")
        cfg.tol = tol
    fmt = pick(args.format, "format", str)
    if fmt is not None:
        if fmt not in ("json", "csv", "text"):
            raise UsageError(f"unknown format {fmt!r}")
        cfg.fmt = fmt
    return cfg


def _emit(report: dict, fmt: str) -> None:
    print({"json": render_json, "csv": render_csv, "text": render_text}[fmt](report))


def cmd_point(cfg: RunConfig) -> int:
    """classify or curvature: the command's report at --point."""
    if cfg.point is None:
        raise UsageError(f"{cfg.command} needs --point u0,u1,u2")
    # module globals, read per call, so a binding patched here is the one run
    build = classify_report if cfg.command == "classify" else curvature_report
    _emit(build(ModelPoint(model=cfg.model, r=cfg.r, u=cfg.point), cfg.tol), cfg.fmt)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verify(cfg.model, cfg.r, cfg.samples, cfg.seed, cfg.tol)
    if cfg.fmt == "text":
        for check in report["checks"]:
            flag = "ok " if check["pass"] else "FAIL"
            print(f"{flag} {check['name']:35s} max residual {check['max_residual']:.3e}")
        if report["failed"]:
            print(f"FAIL: first failing identity: {report['failed'][0]}")
        else:
            print(f"PASS: {len(report['checks'])} identities within {cfg.tol:g} "
                  f"at {cfg.samples} points (seed {cfg.seed})")
    else:
        _emit(report, cfg.fmt)
    return 0 if report["status"] == "PASS" else 1


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.grid is None:
        raise UsageError("sweep needs --grid")
    text = SweepText(cfg.fmt, cfg.model, cfg.r)
    write = sys.stdout.write
    write(text.head)
    # row-major, without the tuple of every axis's values itertools.product keeps
    u0, u1, u2 = cfg.grid
    grid = ((x, y, z) for x in u0 for y in u1 for z in u2)
    for rows in sweep_rows(cfg.model, cfg.r, grid, cfg.tol):
        write(text.rows(rows))
    write(text.tail())
    skipped, failed = text.counts["skipped"], text.counts["FAIL"]
    if skipped:
        print(f"warning: {skipped} grid point(s) outside the domain were skipped",
              file=sys.stderr)
    if failed:
        print(f"warning: the analysis of {failed} grid point(s) failed; their rows are FAIL "
              "with the error in warning", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        handler = {
            "classify": cmd_point,
            "curvature": cmd_point,
            "verify": cmd_verify,
            "sweep": cmd_sweep,
        }[cfg.command]
        code = handler(cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's EPIPE recipe: the reader is gone, so point stdout at
        # devnull, where the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (UsageError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: an input whose values overflow the pipeline
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
