"""Golden outputs: every command and format replayed against pinned stdout bytes.

Each case runs `paraframe.cli.main(argv)` in process and compares its exit
code and the exact stdout bytes with the files in tests/golden/.  A second
golden, tests/golden/pipeline.txt, pins the library-level arrays of the
frame pipeline (the immersion jet, the frame coefficients and the bracket
data) at `.17g` on general, non-diagonal frames that the CLI cases never
reach.  The files pin the output contract across refactors; rewrite them
only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py --write

after checking what the change does to them, without writing, with

    PYTHONPATH=src python tests/test_golden.py --drift

which prints per file whether it is unchanged, changed only in its numbers,
or changed in its text, and the largest relative change of its numbers.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import curved, skew
from paraframe.cli import main
from paraframe.hypersurface import (
    EUCLIDEAN,
    MODELS,
    bracket_field,
    evaluate_immersion,
    immerse,
    orthonormal_frame,
    sample_points,
)
from paraframe.jets import partials
from paraframe.hypersurface import ModelPoint
from paraframe.report import (
    REPORT_EPS,
    SWEEP_COLUMNS,
    SweepText,
    _csv_field,
    _entries,
    classify_report,
    curvature_report,
    render_csv,
    render_json,
    render_text,
)

GOLDEN = Path(__file__).parent / "golden"

#: u1 runs over 0, pi/4, pi/2, 3pi/4, pi: three of five columns are skipped.
SWEEP_GRID = "0.3:0.9:2,0:3.141592653589793:5,1.1"

#: s2 grid of 5 x 3 x 3 rows; the middle u1 column (u1 = 0) is skipped.
CHUNK_GRID = "-0.6:0.6:5,0.4:2.0:3,-1:1:3"

#: s1 grid with an empty u1 axis: no rows.
EMPTY_GRID = "0.3,0.5:1:0,1.1"

#: s2 grid of 3 rows whose last two points fail in the analysis, each its own
#: way ("induced metric not Riemannian", "math range error"): FAIL rows.
FAIL_GRID = "0.5,0.7,1:800:3"

#: s1 grid of 12 x 3 x 3 rows; the middle u1 column (u1 = pi/2) is skipped.
WIDE_GRID = "0.1:6.0:12,1.0:2.141592653589793:3,0.2:5.0:3"

#: Grids whose skipped rows carry every rejection message of their model: on
#: s1, u0 >= 2pi, a negative u2 and u1 on 0, pi/2 and pi (2 of 20 rows are
#: analysed); on s2, u1 = 0 and u2 below 0 and at or above 2pi (2 of 9); and
#: a nan or an inf in a grid point.
REJECT_GRIDS = {
    "s1_reject": ("s1", "6.0:6.5:2,0:3.141592653589793:5,-0.5:1.1:2"),
    "s2_reject": ("s2", "-0.5:0.5:3,-1:7:3,0.3"),
    "s1_nan": ("s1", "nan,0.7,1.1:1.2:2"),
    "s2_inf": ("s2", "0.5,0.7:0.9:2,inf"),
}

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
    # several points per analysis chunk: 19 samples on either model, and a
    # 45-row grid whose u1 = 0 rows (9 of them) sit between the analysed
    # rows; each is one chunk at CHUNK = 64
    cases["verify_s2_chunks_json"] = [
        "verify", "--model", "s2", "--r", "2", "--samples", "19", "--seed", "5", "--format", "json",
    ]
    cases["verify_s1_chunks_json"] = [
        "verify", "--model", "s1", "--samples", "19", "--seed", "5", "--format", "json",
    ]
    for fmt in ("csv", "json", "text"):
        cases[f"sweep_s2_chunks_{fmt}"] = [
            "sweep", "--model", "s2", "--r", "1", f"--grid={CHUNK_GRID}", "--format", fmt,
        ]
        cases[f"sweep_s1_empty_{fmt}"] = [
            "sweep", "--model", "s1", f"--grid={EMPTY_GRID}", "--format", fmt,
        ]
    for fmt in ("csv", "json"):
        cases[f"sweep_s2_fail_{fmt}"] = [
            "sweep", "--model", "s2", f"--grid={FAIL_GRID}", "--format", fmt,
        ]
    # the same at wider chunks: 43 samples (one chunk) on either model, and
    # a 108-row grid whose 72 in-domain rows split 64 + 8, with runs of
    # skipped u1 = pi/2 rows inside the chunks
    cases["verify_s1_wide_json"] = [
        "verify", "--model", "s1", "--r", "0.5", "--samples", "43", "--seed", "9", "--format", "json",
    ]
    cases["verify_s2_wide_json"] = [
        "verify", "--model", "s2", "--samples", "43", "--seed", "9", "--format", "json",
    ]
    cases["sweep_s1_wide_csv"] = [
        "sweep", "--model", "s1", "--r", "1", f"--grid={WIDE_GRID}", "--format", "csv",
    ]
    for name, (model, grid) in REJECT_GRIDS.items():
        for fmt in ("csv", "json"):
            cases[f"sweep_{name}_{fmt}"] = [
                "sweep", "--model", model, f"--grid={grid}", "--format", fmt,
            ]
    # across the CHUNK = 64 boundary: 70 samples (chunks of 64 and 6) on
    # either model
    cases["verify_s1_split_json"] = [
        "verify", "--model", "s1", "--r", "2", "--samples", "70", "--seed", "13", "--format", "json",
    ]
    cases["verify_s2_split_json"] = [
        "verify", "--model", "s2", "--samples", "70", "--seed", "13", "--format", "json",
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


@pytest.mark.parametrize(
    "render", [render_json, render_text, render_csv,
               lambda report: SweepText("csv", report["model"], report["r"])]
)
def test_renderers_reject_numpy_scalars(render):
    # a report holds plain Python scalars only; a numpy one is not formatted
    with pytest.raises(TypeError, match="float64"):
        render({"model": "s1", "r": np.float64(2.0)})


@pytest.mark.parametrize("row", [
    (0.3, np.float64(0.7), 1.1, "skipped", "outside"),
    (0.3, 0.7, 1.1, "PASS", "", "F1+F11", False, *[0.0] * 23, np.float64(2.0)),
])
def test_sweep_text_rejects_numpy_scalars_in_rows(row):
    with pytest.raises(TypeError, match="float64"):
        SweepText("csv", "s1", 1.0).rows([row])


def _generic_sweep(fmt: str, model: str, r: float, rows: list[dict]) -> str:
    """A sweep's text from the generic renderers: the reference SweepText
    must equal."""
    if fmt == "json":
        skipped = sum(row["status"] == "skipped" and len(row) == 7 for row in rows)
        payload = {"command": "sweep", "model": model, "r": r, "rows": rows, "skipped": skipped}
        return render_json(payload) + "\n"
    if fmt == "text":
        return "".join(render_text(row) + "\n\n" for row in rows)
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(_csv_field(row.get(col, "")) for col in SWEEP_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


#: Every float edge case a %.17g slot must write as format(x, ".17g") does.
EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308, 0.1]
texts = st.text(st.sampled_from('ab%,"\n\\\x01 é'), max_size=6)
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
analysed_rows = st.tuples(
    floats, floats, floats, st.sampled_from(("PASS", "FAIL")), texts, texts, st.booleans(),
    *[floats] * (len(SWEEP_COLUMNS) - 9),
)
short_rows = st.tuples(floats, floats, floats, st.sampled_from(("skipped", "FAIL")), texts)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(("csv", "json", "text")),
    texts,
    floats,
    st.lists(st.lists(st.one_of(analysed_rows, short_rows), max_size=4), max_size=4),
)
@example("json", "s%1", 1.0, [[], [(0.5, 0.7, 1.0, "FAIL", "x%sy")], []])
def test_sweep_text_is_the_generic_renderers(fmt, model, r, chunks):
    text = SweepText(fmt, model, r)
    streamed = text.head + "".join(text.rows(rows) for rows in chunks) + text.tail()
    rows = [dict(zip(SWEEP_COLUMNS, (model, r, *row))) for rows in chunks for row in rows]
    assert streamed == _generic_sweep(fmt, model, r, rows)
    assert text.counts == {
        status: sum(len(row) == 7 and row["status"] == status for row in rows)
        for status in ("skipped", "FAIL")
    }


@pytest.mark.parametrize("render", [render_text, render_csv])
def test_text_and_csv_reject_none(render):
    # None is JSON's null only; the empty dict, not None, is the blank leaf
    with pytest.raises(TypeError, match="NoneType"):
        render({"model": "s1", "r": None})


@pytest.mark.parametrize("build", [classify_report, curvature_report])
def test_point_reports_take_a_numpy_radius(build):
    u = np.array([0.6, 1.0, 0.5])
    plain = build(ModelPoint(model="s2", r=2.0, u=u), 1e-9)
    numpy_r = build(ModelPoint(model="s2", r=np.float64(2.0), u=u), 1e-9)
    for render in (render_json, render_text, render_csv):
        assert render(numpy_r) == render(plain)


def _loop_entries(name: str, t: np.ndarray) -> dict[str, float]:
    out = {}
    for idx in np.ndindex(t.shape):
        v = float(t[idx])
        if abs(v) > REPORT_EPS:
            out[f"{name}_" + "".join(str(i) for i in idx)] = v
    return out


@pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3), (3, 3, 3, 3)])
def test_entries_is_the_index_loop(shape):
    rng = np.random.default_rng(len(shape))
    t = rng.normal(size=shape) * (rng.uniform(size=shape) < 0.5)
    edge = [REPORT_EPS, -REPORT_EPS, np.nextafter(REPORT_EPS, 1.0), -0.0, np.nan, -np.inf]
    t.flat[: len(edge)] = edge
    got, want = _entries("R", t), _loop_entries("R", t)
    assert list(got) == list(want)
    assert [(type(v), float(v).hex()) for v in got.values()] == [
        (type(v), v.hex()) for v in want.values()
    ]


CUSTOM_POINTS = ([0.35, 1.2, -0.7], [-0.9, 0.4, 2.0], [1.1, -2.3, 0.1])


def _pipeline_inputs():
    """(label, signature, jet) for every point the pipeline golden pins."""
    for model in ("s1", "s2"):
        for r in (1e-3, 1e4):
            for p in sample_points(model, 2, seed=7, r=r):
                label = f"{model} r={r:.17g} u={','.join(f'{x:.17g}' for x in p.u)}"
                yield label, MODELS[model].signature, immerse(p)
    for name, coords in (("curved", curved), ("skew", skew)):
        for u in CUSTOM_POINTS:
            label = f"{name} u={','.join(f'{x:.17g}' for x in u)}"
            yield label, EUCLIDEAN, evaluate_immersion(coords, np.array(u))


def pipeline_text() -> str:
    """Every pipeline array at every pinned point, one `.17g` line per array."""
    lines = []
    for label, sig, jet in _pipeline_inputs():
        fc = orthonormal_frame(jet, sig)
        sf = bracket_field(fc)
        arrays = {
            "jet.value": jet.value, "jet.d1": jet.d1,
            **{f"jet.d{k}": np.moveaxis(partials(jet.coords, k), range(k), range(-k - 1, -1))
               for k in (2, 3)},
            "fc.a": fc.a, "sf.c": sf.c, "sf.dc": sf.dc,
        }
        lines.append(f"# {label}")
        for name, arr in arrays.items():
            lines.append(f"{name} {' '.join(f'{x:.17g}' for x in np.ravel(arr))}")
    return "\n".join(lines) + "\n"


def test_pipeline_golden():
    golden = (GOLDEN / "pipeline.txt").read_text().splitlines()
    assert pipeline_text().splitlines() == golden


def regenerated() -> dict[str, bytes]:
    """Every golden file's bytes as the code now writes them, by file name."""
    files, codes = {}, {}
    for name, argv in sorted(CASES.items()):
        codes[name], files[f"{name}.stdout"] = run(argv)
    files["exit_codes.json"] = (json.dumps(codes, indent=2, sort_keys=True) + "\n").encode()
    files["pipeline.txt"] = pipeline_text().encode()
    return files


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, data in regenerated().items():
        (GOLDEN / name).write_bytes(data)


#: A number in a golden file; digits inside a name (F11, u0, R_0101) are not.
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def drift() -> None:
    """Print, for each golden file regenerated in memory, whether its bytes
    equal the stored ones ("same"), equal them once every number is masked
    ("numbers"), or differ in text ("TEXT"), and the largest relative change
    of a stored number of magnitude above 1e-6.  Nothing is written."""
    for name, data in regenerated().items():
        old, new = (GOLDEN / name).read_text(), data.decode()
        if old == new:
            print(f"{name}: same")
            continue
        if NUMBER.sub("#", old) != NUMBER.sub("#", new):
            print(f"{name}: TEXT")
            continue
        pairs = zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new)))
        worst = max((abs(y - x) / abs(x) for x, y in pairs if abs(x) > 1e-6), default=0.0)
        print(f"{name}: numbers, largest relative drift {worst:.3g}")


if __name__ == "__main__":
    modes = {"--write": write, "--drift": drift}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit("usage: test_golden.py --write | --drift")
    modes[sys.argv[1]]()
