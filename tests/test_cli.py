import ast
import contextlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from paraframe import report
from paraframe.cli import build_parser, main, make_config
from paraframe.report import render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_classify_s1(capsys):
    code, rep, _ = run_json(capsys, "classify", "--model", "s1", "--r", "1", "--point", "0.3,0.7,1.1")
    assert code == 0
    assert rep["classes"] == ["F1", "F11"]
    assert rep["is_f0"] is False
    assert rep["status"] == "PASS"
    assert rep["params"]["theta_2"] == pytest.approx(-2.0 * math.tan(0.7), rel=1e-12)
    assert rep["params"]["omega_2"] == pytest.approx(1.0 / math.tan(0.7), rel=1e-12)


def test_classify_s2(capsys):
    code, rep, _ = run_json(capsys, "classify", "--model", "s2", "--r", "2", "--point", "0.6,1.0,0.5")
    assert code == 0
    assert rep["classes"] == ["F5", "F9"]
    coth, tanh = 1.0 / math.tanh(0.6), math.tanh(0.6)
    assert rep["params"]["theta_star_0"] == pytest.approx(-(coth + tanh) / 2.0, rel=1e-12)
    assert rep["params"]["mu"] == pytest.approx((tanh - coth) / 4.0, rel=1e-12)


def test_classify_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "classify", "--model", "s1", "--r", "1", "--point", "0,1.5707963,0")
    assert code == 2
    assert out == ""
    assert "pi/2" in err


def test_curvature_s1_radius_two(capsys):
    code, rep, _ = run_json(capsys, "curvature", "--model", "s1", "--r", "2", "--point", "0.3,0.7,1.1")
    assert code == 0
    assert rep["tau"] == pytest.approx(1.5, rel=1e-10)
    assert rep["tau_star"] == pytest.approx(0.0, abs=1e-10)
    for key in ("k_01", "k_02", "k_12"):
        assert rep[key] == pytest.approx(0.25, rel=1e-10)


def test_curvature_s2(capsys):
    code, rep, _ = run_json(capsys, "curvature", "--model", "s2", "--r", "1", "--point", "0.6,1.0,0.5")
    assert code == 0
    assert rep["tau"] == pytest.approx(-6.0, rel=1e-10)
    for key in ("k_01", "k_02", "k_12"):
        assert rep[key] == pytest.approx(-1.0, rel=1e-10)


def test_curvature_space_form(capsys):
    code, rep, _ = run_json(capsys, "curvature", "--model", "s1", "--r", "1", "--point", "0.3,0.7,1.1")
    assert code == 0
    assert rep["kappa"] == 1.0
    assert rep["space_form_residual"] <= 1e-9


def test_verify_passes(capsys):
    for model in ("s1", "s2"):
        code, rep, _ = run_json(capsys, "verify", "--model", model, "--samples", "15", "--seed", "42")
        assert code == 0
        assert rep["status"] == "PASS"
        assert rep["failed"] == []
        assert all(c["pass"] for c in rep["checks"])


def test_verify_impossible_tolerance_fails(capsys):
    code, rep, _ = run_json(
        capsys, "verify", "--model", "s1", "--samples", "10", "--seed", "42", "--tol", "1e-18"
    )
    assert code == 1
    assert rep["status"] == "FAIL"
    assert rep["failed"]


def test_verify_text_names_first_failure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "s1", "--samples", "5", "--seed", "42", "--tol", "1e-18"
    )
    assert code == 1
    assert "first failing identity" in out


def test_verify_reports_deterministic_in_process(capsys):
    args = ("verify", "--model", "s2", "--samples", "10", "--seed", "7", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_theta2_column(capsys):
    grid = f"0,{math.pi / 6}:{math.pi / 3}:3,0"
    code, out, _ = run_cli(capsys, "sweep", "--model", "s1", "--r", "1", "--grid", grid, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    i_theta2 = header.index("theta_2")
    i_classes = header.index("classes")
    got = [float(row[i_theta2]) for row in rows]
    expected = [-2.0 * math.tan(u) for u in (math.pi / 6, math.pi / 4, math.pi / 3)]
    assert got == pytest.approx(expected, rel=1e-12)
    assert all(row[i_classes] == "F1+F11" for row in rows)


def test_sweep_empty_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "s1", "--grid", "0,0.5:1.0:0,0", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1  # header only


def test_sweep_skips_domain_violations(capsys):
    # u1 axis hits 0, pi/2, pi: those rows are skipped with a warning
    grid = f"0.5,0:{math.pi}:5,0.5"
    code, out, err = run_cli(capsys, "sweep", "--model", "s1", "--grid", grid, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    status = [row[5] for row in rows]
    assert status.count("skipped") == 3
    assert status.count("PASS") == 2
    assert "skipped" in err


@pytest.mark.parametrize("axis", ["0.5:inf:2", "-inf:inf:3", "-1e308:1e308:3", "nan:1:2"])
def test_sweep_rejects_a_non_finite_range(capsys, axis):
    # np.linspace over these would warn and sweep nan or inf values the user
    # did not type; the range is a usage error naming its axis, also where
    # warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "sweep", "--model", "s1", f"--grid=0.3,{axis},1.1")
    assert code == 2
    assert out == ""
    assert err == f"error: bad --grid axis {axis!r}: range ends and span must be finite\n"


#: The error of each s2 point at u = (0.5, u1, u2) whose analysis fails, by u2.
FAILING_U2 = {
    20.0: "induced metric not Riemannian",
    400.0: "induced metric not Riemannian",
    800.0: "math range error",  # cosh(800) overflows a float
}


@pytest.mark.parametrize("grid", ["0.5,1.0,400:20:2", "0.5,1.0,20:400:2", "0.5,0.7,800"])
def test_sweep_failing_points_are_fail_rows(capsys, grid):
    # every failing s2 point is a FAIL row with its own error, also when the
    # points are analysed in one chunk; the sweep exits 0, as for a row that
    # fails a residual, and one stderr line counts the failed points
    code, out, err = run_cli(capsys, "sweep", "--model", "s2", f"--grid={grid}", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["status"], row["warning"]) for row in rows] == [
        ("FAIL", FAILING_U2[row["u2"]]) for row in rows
    ]
    assert all(len(row) == 7 for row in rows)  # filled as a skipped row is
    assert err == (f"warning: the analysis of {len(rows)} grid point(s) failed; their rows "
                   "are FAIL with the error in warning\n")


class _Discard:
    """A stdout that keeps no text."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


#: Bound on how much more a 5,000-row sweep may hold at its peak than a
#: 500-row one.  A sweep renders and writes each chunk of rows before it
#: reads the next grid points, so both hold one chunk at a time.  Measured
#: (Python 3.11, numpy 2.4) the 5,000-row peak is 90-100 KB above the
#: 500-row one in every format, most of it freed tuples that CPython keeps on
#: its free lists and tracemalloc counts as held.  A sweep that holds every
#: row until the last one is analysed peaks 1.7-5.3 MB higher.
SWEEP_PEAK_MARGIN = 256 * 1024


def _sweep_peak(fmt: str, grid: str) -> int:
    """The tracemalloc peak of an s1 sweep over the grid."""
    argv = ["sweep", "--model", "s1", f"--grid={grid}", "--format", fmt]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(_Discard()):
            assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - before


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_sweep_memory_does_not_grow_with_its_rows(fmt):
    # u0 = 0 and 4 are in the domain and u0 >= 8 is not, so 100 of the 500
    # rows and 200 of the 5,000 are analysed, each sweep in full chunks
    grid = "0:196:{},0.3:1.2:10,0.2:5:10"  # u0_count x 10 x 10 rows
    _sweep_peak(fmt, grid.format(5))  # one-off allocations outside the window
    assert _sweep_peak(fmt, grid.format(50)) - _sweep_peak(fmt, grid.format(5)) <= SWEEP_PEAK_MARGIN


#: Bound on how much more a sweep may hold at its peak when one axis of its
#: grid holds 40,000 values than when it holds 500.  Measured (Python 3.11,
#: numpy 2.4) the peak grows by 308 KB, parse_grid's float64 axis;
#: itertools.product over the axes, which keeps a tuple of every axis's
#: values (numpy scalars), grew by 1,542 KB.
SWEEP_AXIS_MARGIN = 1024 * 1024


def test_sweep_memory_does_not_grow_with_its_axes():
    # the last axis is empty, so the sweep has no rows and its peak is that of
    # the grid alone; a sweep of 40,000 skipped rows takes seconds under
    # tracemalloc, and rows are bounded by the test above
    grid = "0.3,6:400:{},1:2:0"
    _sweep_peak("csv", grid.format(500))  # one-off allocations outside the window
    growth = _sweep_peak("csv", grid.format(40_000)) - _sweep_peak("csv", grid.format(500))
    assert growth <= SWEEP_AXIS_MARGIN


#: Bound on how much more `run_verify` may hold at its peak while it draws
#: 2,000 samples than while it draws 400.  It draws and analyses CHUNK
#: samples at a time; the analysis is stubbed out, as test_batch.py's
#: test_full_chunk_memory_peak bounds its one chunk.  Measured (Python 3.11,
#: numpy 2.4) the peak does not grow; drawing every sample before analysing
#: any grew it by about 315 B per sample, 1.1 MB from 400 to 4,000.
VERIFY_PEAK_MARGIN = 64 * 1024


def _verify_peak(samples: int) -> int:
    """The tracemalloc peak of an s1 verify of that many samples."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before, _ = tracemalloc.get_traced_memory()
        report.run_verify("s1", 1.0, samples, 1, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - before


def test_verify_memory_does_not_grow_with_its_samples(monkeypatch):
    monkeypatch.setattr(report, "_analysed", lambda batch, tol: [])
    _verify_peak(400)  # one-off allocations outside the window
    assert _verify_peak(2000) - _verify_peak(400) <= VERIFY_PEAK_MARGIN


# a sweep's point that overflows is a FAIL row: test_sweep_failing_points_are_fail_rows
@pytest.mark.parametrize("command, flag", [("classify", "--point")])
def test_overflow_is_an_error_not_a_crash(capsys, command, flag):
    # cosh(800) overflows a float: exit 2 with one error line, not a traceback
    # and not the verification-FAIL code 1
    code, out, err = run_cli(capsys, command, "--model", "s2", flag, "0.5,0.7,800")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: math range error"


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep defaults\n"
        "model = s1\n"
        "r = 1.0\n"
        "point = 0.3,0.7,1.1\n"
        "samples = 5\n"
        "format = json\n"
    )
    code, out, _ = run_cli(capsys, "classify", "--config", str(cfg))
    assert code == 0
    rep = json.loads(out)
    assert rep["model"] == "s1"
    assert rep["r"] == 1.0

    code, out, _ = run_cli(capsys, "classify", "--config", str(cfg), "--r", "2.5")
    rep = json.loads(out)
    assert rep["r"] == 2.5


def test_defaults_where_neither_flag_nor_config_gives_a_value():
    cfg = make_config(build_parser().parse_args(["verify", "--model", "s1"]))
    assert (cfg.r, cfg.samples, cfg.seed, cfg.tol, cfg.fmt) == (1.0, 100, 42, 1e-9, "text")
    assert (type(cfg.r), type(cfg.samples), type(cfg.seed), type(cfg.tol)) == (float, int, int, float)
    assert cfg.point is None and cfg.grid is None
    # classify takes no --samples or --seed, yet reads their defaults
    args = build_parser().parse_args(["classify", "--model", "s1", "--point", "0.3,0.7,1.1"])
    cfg = make_config(args)
    assert (cfg.samples, cfg.seed) == (100, 42)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key, value in (("bogus", "1"), ("parallel", "true")):
        cfg.write_text(f"model = s1\n{key} = {value}\n")
        code, _, err = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 2
        assert key in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "classify", "--point", "0.3,0.7,1.1")[0] == 2  # no model
    assert run_cli(capsys, "classify", "--model", "s1")[0] == 2  # no point
    assert run_cli(capsys, "classify", "--model", "s1", "--point", "1,2")[0] == 2
    assert run_cli(capsys, "sweep", "--model", "s1", "--grid", "1,2")[0] == 2
    assert run_cli(capsys, "sweep", "--model", "s1")[0] == 2
    assert run_cli(capsys, "verify", "--model", "s1", "--samples", "0")[0] == 2
    assert run_cli(capsys, "classify", "--model", "s1", "--point", "0.3,0.7,1.1", "--r", "-1")[0] == 2


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--model", "s1", "--seed", "-3")
    assert (code, out) == (2, "")
    assert err.strip() == "error: --seed must be >= 0, got -3"

    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = s1\nseed = -3\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.strip() == "error: config key seed must be >= 0, got -3"


@pytest.mark.parametrize(
    "key, value, message",
    [("samples", "0", "must be >= 1"), ("tol", "-1", "must be positive and finite"),
     ("tol", "nan", "must be positive and finite")],
)
def test_bad_value_names_its_flag_or_config_key(tmp_path, capsys, key, value, message):
    code, out, err = run_cli(capsys, "verify", "--model", "s1", f"--{key}", value)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: --{key} {message}"

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = s1\n{key} = {value}\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.strip() == f"error: config key {key} {message}"


def test_commands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ["classify", "--model", "s1", "--point", "0.3,0.7,1.1", "--grid", "x"],
        ["verify", "--model", "s1", "--point", "garbage"],
        ["classify", "--model", "s1", "--point", "0.3,0.7,1.1", "--samples", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_render_json_17_digits():
    text = render_json({"x": 1.0 / 3.0, "y": 2.0, "n": 7, "flag": True, "none": None})
    assert '"x": 0.33333333333333331' in text
    assert '"y": 2' in text
    assert '"flag": true' in text
    assert '"none": null' in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "y": 2.0, "n": 7, "flag": True, "none": None}


def test_csv_format_for_point_commands(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--model", "s1", "--point", "0.3,0.7,1.1", "--format", "csv"
    )
    assert code == 0
    header, values = out.strip().splitlines()
    assert header.split(",")[0] == "command"
    assert values.split(",")[0] == "classify"


def test_subprocess_byte_identical():
    cmd = [
        sys.executable, "-m", "paraframe",
        "verify", "--model", "s1", "--samples", "20", "--seed", "42", "--format", "json",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_no_command_imports_numpy_random():
    # verify draws from the standard library's random.Random: numpy.random
    # (with OpenSSL's hashlib and the Cython runtime) stays unloaded
    code = """
import contextlib, io, sys
from paraframe.cli import main
for argv in (["classify", "--model", "s1", "--point", "0.3,0.7,1.1"],
             ["curvature", "--model", "s2", "--point", "0.6,1.0,0.5"],
             ["verify", "--model", "s1", "--samples", "5"],
             ["sweep", "--model", "s1", "--grid", "0.3,0.5:1.4:3,1.1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.random" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


#: numpy names whose calls reach BLAS level 2/3 or LAPACK.  np.vecdot, BLAS
#: level-1 ddot, is the one BLAS call allowed: `sphere_residual` forms <z, z>
#: over a batch with it, bitwise np.dot point by point, and it costs at most
#: 0.14 MB of peak memory.
_BLAS_NAMES = {"linalg", "dot", "matmul", "tensordot", "inner"}


def _blas_uses(tree: ast.AST) -> list[str]:
    """The @ operators, BLAS or LAPACK names and einsum(optimize=) calls in
    a module, by line."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            uses += [(node.lineno, n) for n in names if _BLAS_NAMES & set(n.split("."))]
        elif (isinstance(node, ast.Call) and "einsum" in ast.unparse(node.func)
              and any(k.arg == "optimize" for k in node.keywords)):
            uses.append((node.lineno, "einsum(optimize=)"))
    return [f"line {line}: {what}" for line, what in sorted(uses)]


def test_no_command_calls_blas_or_lapack():
    # the first BLAS level-2/3 or LAPACK call makes OpenBLAS allocate and
    # touch its work buffers, about 1.3 MB of peak memory for the 3x3
    # products and the Riemannian gate, which need neither; einsum without
    # optimize= runs its own loops
    assert _blas_uses(ast.parse("a @ b; a @= b; np.linalg.eigvalsh(g); x.dot(y)\n"
                                "from numpy.linalg import inv; import numpy.linalg\n"
                                "np.einsum('ij,jk', a, b, optimize=True); np.vecdot(z, z)")) == [
        "line 1: @", "line 1: @", "line 1: dot", "line 1: linalg", "line 2: numpy.linalg",
        "line 2: numpy.linalg", "line 3: einsum(optimize=)",
    ]
    src = Path(report.__file__).parent
    uses = {path.name: _blas_uses(ast.parse(path.read_text())) for path in src.glob("*.py")}
    assert "hypersurface.py" in uses
    assert {name: found for name, found in uses.items() if found} == {}


def test_closed_stdout_exits_1_without_traceback():
    # about 160 KB of csv, more than a pipe buffer holds, so the writes after
    # the reader closes its end fail with EPIPE
    cmd = [
        sys.executable, "-m", "paraframe",
        "sweep", "--model", "s1", "--grid", "0.3,0.5:1.4:400,1.1", "--format", "csv",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert header.startswith(b"model,r,u0,u1,u2,status")
    assert err == b""
