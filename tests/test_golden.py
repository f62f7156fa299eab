"""Golden outputs: every command and format replayed against pinned stdout bytes.

Each case runs `paraframe.cli.main(argv)` in process and compares its exit
code and the exact stdout bytes with the files in tests/golden/.  The files
pin the output contract across refactors; rewrite them only for an intended
output change, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from paraframe.cli import main
from paraframe.report import render_csv, render_text

GOLDEN = Path(__file__).parent / "golden"

#: u1 runs over 0, pi/4, pi/2, 3pi/4, pi: three of five columns are skipped.
SWEEP_GRID = "0.3:0.9:2,0:3.141592653589793:5,1.1"

POINTS = {"s1": ("1", "0.3,0.7,1.1"), "s2": ("2", "0.6,1.0,0.5")}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command in ("classify", "curvature"):
        for model, (r, point) in POINTS.items():
            for fmt in ("json", "csv", "text"):
                cases[f"{command}_{model}_{fmt}"] = [
                    command, "--model", model, "--r", r, "--point", point, "--format", fmt,
                ]
    for model in POINTS:
        for fmt in ("json", "text"):
            cases[f"verify_{model}_{fmt}"] = [
                "verify", "--model", model, "--samples", "3", "--seed", "42", "--format", fmt,
            ]
    cases["verify_s1_text_fail"] = [
        "verify", "--model", "s1", "--samples", "3", "--seed", "42", "--tol", "1e-30",
    ]
    for fmt in ("csv", "json", "text"):
        cases[f"sweep_s1_{fmt}"] = [
            "sweep", "--model", "s1", "--r", "1", "--grid", SWEEP_GRID, "--format", fmt,
        ]
    return cases


CASES = _cases()


def run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, exit_codes):
    code, out = run(CASES[name])
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()


EDGE_REPORT = {
    "a": {},
    "b": [],
    "c": [{"x": 1.5}, {}],
    "d": {"e": {}},
    "f": True,
    "g": 'q,"',
    "h": [1, 2.5, False],
}


def test_render_edge_cases():
    # empty dicts are blank lines in text and absent in CSV
    assert render_text(EDGE_REPORT) == (
        '\nb = []\nc[0].x = 1.5\n\n\nf = true\ng = q,"\nh = [1, 2.5, false]'
    )
    assert render_csv(EDGE_REPORT) == 'b,c[0].x,f,g,h\n[],1.5,true,"q,""",[1; 2.5; false]'
    assert render_text({}) == ""
    assert render_text(0.1) == " = 0.10000000000000001"


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    write()
