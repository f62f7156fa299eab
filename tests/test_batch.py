"""A batch is its points: each row of a chunk's analysis equals that point's
analysis run alone (both read through `points`), bit for bit, or both raise
the first failing point's error; and verify's batched fold of a chunk's
checks equals folding them point by point.

Points are drawn from the whole accepted domain of both models, including
parameters next to the excluded loci and s2 parameters far outside the
sampled box, where the pipeline fails or loses accuracy; the property holds
there too.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from paraframe import report
from paraframe.hypersurface import (
    EXCLUSION,
    TWO_PI,
    DomainError,
    ModelPoint,
    PointBatch,
    sample_points,
)
from paraframe.report import (
    CHUNK,
    SWEEP_COLUMNS,
    _batches,
    _class_names,
    _entries,
    run_verify,
    sweep_rows,
)
from paraframe.structure import ETA
from paraframe.tensors import max_abs
from points import analyze_point, analyze_points

RADII = (1e-3, 1.0, 2.0, 1e4)
TOL = 1e-9

angle = st.floats(0.0, TWO_PI, exclude_max=True)
# within 1e-2 of a multiple of pi/2 (down to the exclusion itself), either side
near_quarter = st.builds(
    lambda k, side, d: k * math.pi / 2.0 + side * d,
    st.integers(0, 4),
    st.sampled_from((-1.0, 1.0)),
    st.floats(EXCLUSION, 1e-2),
)
anything = st.floats(allow_nan=False, allow_infinity=False)
s2_coordinate = st.one_of(st.floats(-3.0, 3.0), st.floats(-40.0, 40.0), anything)

PARAMS = {
    "s1": st.tuples(angle, st.one_of(angle, near_quarter), angle),
    "s2": st.tuples(st.one_of(s2_coordinate, st.floats(-1e-2, 1e-2)), angle, s2_coordinate),
}


def _point(model: str, r: float, u) -> ModelPoint | None:
    try:
        return ModelPoint(model=model, r=r, u=np.array(u))
    except DomainError:
        return None


@st.composite
def chunks(draw, one_radius: bool = False) -> list[ModelPoint]:
    """1 to CHUNK accepted points of one model, each at its own radius, or
    all at one radius, as a verify call draws them."""
    model = draw(st.sampled_from(sorted(PARAMS)))
    radius = st.just(draw(st.sampled_from(RADII))) if one_radius else st.sampled_from(RADII)
    point = st.builds(_point, st.just(model), radius, PARAMS[model])
    return draw(st.lists(point.filter(lambda p: p is not None), min_size=1, max_size=CHUNK))


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _arrays(a) -> dict[str, object]:
    """Every number of a PointAnalysis, keyed by where it is."""
    out = {"c": a.field.c, "dc": a.field.dc}
    out.update({"gamma": a.connection.gamma, "dgamma": a.connection.dgamma})
    out.update({f"lee.{k}": getattr(a.lee, k) for k in ("theta", "theta_star", "omega")})
    out.update({f"component.{s}": t for s, t in a.decomposition.components.items()})
    out.update({f"param.{k}": v for k, v in a.decomposition.params.items()})
    out["decomposition.residual"] = a.decomposition.residual
    for k in ("f", "nijenhuis", "assoc_nijenhuis", "curvature", "ricci", "ricci_star", "tau",
              "tau_star", "k", "kappa", "d_eta", "nabla_xi_xi"):
        out[k] = getattr(a, k)
    out.update({f"residual.{k}": v for k, v in a.residuals.items()})
    out["max_residual"] = a.max_residual
    return out


def _outcome(run):
    try:
        return run(), None
    except Exception as exc:  # the property compares whatever is raised
        return None, (type(exc), str(exc))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks())
# with warnings as errors, the second point's overflow in a batched stage
# comes before the first point's own error
@example([ModelPoint("s2", 1.0, [0.5, 1.0, 20.0]), ModelPoint("s2", 1e4, [0.5, 1.0, 709.0])])
def test_batch_equals_its_points(chunk):
    singles, single_error = _outcome(lambda: [analyze_point(p, TOL) for p in chunk])
    batch, batch_error = _outcome(lambda: analyze_points(chunk, TOL))
    assert batch_error == single_error
    if single_error is not None:
        return
    assert len(batch) == len(singles)
    for b, s in zip(batch, singles):
        assert (b.label, b.status) == (s.label, s.status)
        assert list(b.residuals) == list(s.residuals)
        assert list(b.decomposition.params) == list(s.decomposition.params)
        mine_all = _arrays(b)
        for key, value in _arrays(s).items():
            mine = mine_all[key]
            assert type(mine) is type(value), key
            assert np.shape(mine) == np.shape(value), key
            assert np.array_equal(_bits(mine), _bits(value)), key


def _point_checks(model: str, a, tol: float) -> dict[str, float]:
    """Every verify check at one point, from its PointAnalysis, one point at
    a time: the point-by-point definition the batched fold must match."""
    ref = a.reference
    checks = dict(a.residuals)
    checks.update(
        {
            "gamma_vs_closed_form": max_abs(a.connection.gamma - ref.gamma),
            "f_vs_closed_form": max_abs(a.f - ref.f),
            "nijenhuis_vs_closed_form": max_abs(a.nijenhuis - ref.nijenhuis),
            "assoc_nijenhuis_vs_closed_form": max_abs(a.assoc_nijenhuis - ref.assoc_nijenhuis),
            "curvature_vs_closed_form": max_abs(a.curvature - ref.curvature),
            "ricci_vs_closed_form": max_abs(a.ricci - ref.ricci),
            "ricci_star_vs_closed_form": max_abs(a.ricci_star - ref.ricci_star),
            "tau_vs_closed_form": abs(a.tau - ref.tau),
            "tau_star_vs_closed_form": abs(a.tau_star - ref.tau_star),
            "sectional_vs_closed_form": max(abs(k - ref.sectional) for k in a.k),
            "lee_params_vs_closed_form": max(
                abs(a.decomposition.params[key] - val) for key, val in ref.lee_params.items()
            ),
            "class_label": 0.0 if a.label.classes == ref.classes else 1.0,
            "class_components_nonvanishing": 0.0
            if all(max_abs(a.decomposition.components[sid]) > tol for sid in ref.classes)
            else 1.0,
            "d_eta_vs_closed_form": max_abs(a.d_eta - ref.d_eta),
            "nabla_xi_xi_vs_closed_form": max_abs(a.nabla_xi_xi - ref.nabla_xi_xi),
        }
    )
    if model == "s1":
        checks["n_plus_deta_xi"] = max_abs(
            a.nijenhuis + np.einsum("ij,k->ijk", a.d_eta, ETA)
        )
    return checks


def _folded_points(chunk: list[ModelPoint], tol: float) -> list[tuple[str, int, bool]]:
    worst: dict[str, float] = {}
    for a in [analyze_point(p, tol) for p in chunk]:
        for name, value in _point_checks(chunk[0].model, a, tol).items():
            # np.maximum, unlike max(), keeps a NaN: a NaN residual is the worst
            worst[name] = float(np.maximum(worst[name], value)) if name in worst else value
    return [(name, _bits(v).item(), v <= tol) for name, v in worst.items()]


def _folded_batch(chunk: list[ModelPoint], tol: float) -> list[tuple[str, int, bool]]:
    # run_verify over exactly these points: one chunk, in order, at their radius
    u = np.array([p.u for p in chunk])
    with mock.patch("paraframe.report.sample_u", lambda *args: u):
        checks = run_verify(chunk[0].model, chunk[0].r, len(chunk), 0, tol)["checks"]
    for c in checks:
        assert type(c["max_residual"]) is float and type(c["pass"]) is bool
    return [(c["name"], _bits(c["max_residual"]).item(), c["pass"]) for c in checks]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks(one_radius=True), st.sampled_from((TOL, 1e-30)))
@example([ModelPoint("s2", 1e4, [0.5, 1.0, 20.0]), ModelPoint("s2", 1e4, [0.5, 1.0, 709.0])], TOL)
# chunks that pass: the sampled box, where every check is within 1e-9
@example(sample_points("s1", CHUNK, seed=3), TOL)
@example(sample_points("s2", 3, seed=4, r=2.0), TOL)
def test_verify_fold_equals_its_points(chunk, tol):
    singles, single_error = _outcome(lambda: _folded_points(chunk, tol))
    batch, batch_error = _outcome(lambda: _folded_batch(chunk, tol))
    assert batch_error == single_error
    assert batch == singles


@pytest.mark.parametrize("samples, nan_call", [(8, 0), (100, 0), (100, 1)])
def test_verify_fold_keeps_a_nan(samples, nan_call):
    # one point's NaN space_form residual, in the first or the second chunk,
    # is the check's max_residual and fails it (Python's max(0.0, nan) is 0.0)
    original, calls = report.frame.space_form_residual, []

    def space_form(*args):
        res = original(*args)
        if len(calls) == nan_call:
            res[-1] = math.nan
        calls.append(res)
        return res

    with mock.patch.object(report.frame, "space_form_residual", space_form):
        out = run_verify("s1", 1.0, samples, 1, TOL)
    assert len(calls) == -(-samples // CHUNK)
    (check,) = [c for c in out["checks"] if c["name"] == "space_form"]
    assert math.isnan(check["max_residual"]) and check["pass"] is False
    assert out["failed"] == ["space_form"] and out["status"] == "FAIL"


def _point_fields(a) -> dict:
    """The sweep fields of one point's own analysis, read field by field:
    the per-point definition the rows read off a batch must match."""
    k01, k02, k12 = a.k.tolist()
    row = {
        "status": a.status,
        "warning": "",
        "classes": "+".join(_class_names(a.label)),
        "is_f0": a.label.is_f0,
        "class_residual": a.residuals["class_decomposition"],
    }
    for key in ("theta_0", "theta_1", "theta_2", "theta_star_0", "omega_1", "omega_2", "lam",
                "mu", "nu"):
        row[key] = a.decomposition.params[key]
    row.update(tau=a.tau, tau_star=a.tau_star, k_01=k01, k_02=k02, k_12=k12)
    row["space_form_residual"] = a.residuals["space_form"]
    entries = {
        **_entries("R", a.curvature),
        **_entries("rho", a.ricci),
        **_entries("rho_star", a.ricci_star),
    }
    for key in ("R_0101", "R_0202", "R_1212", "rho_00", "rho_11", "rho_22", "rho_star_12"):
        row[key] = entries.get(key, 0.0)
    row["max_residual"] = max(a.residuals.values())
    return row


def _point_rows(model: str, r: float, grid, tol: float) -> list[dict]:
    rows = []
    for u in grid:
        row = {"model": model, "r": float(r), "u0": float(u[0]), "u1": float(u[1]),
               "u2": float(u[2])}
        try:
            p = ModelPoint(model=model, r=r, u=np.asarray(u, dtype=float))
        except ValueError as exc:
            row.update(status="skipped", warning=str(exc))
        else:
            try:
                row.update(_point_fields(analyze_point(p, tol)))
            except (ValueError, ArithmeticError, RuntimeWarning) as exc:
                row.update(status="FAIL", warning=str(exc))
        rows.append(row)
    return rows


def _sweep_dicts(model: str, r: float, grid, tol: float) -> list[dict]:
    """The rows of `sweep_rows`, each keyed by its columns after the sweep's
    model and r."""
    out = []
    for chunk in sweep_rows(model, r, grid, tol):
        for row in chunk:
            assert len(row) in (5, len(SWEEP_COLUMNS) - 2)
            out.append(dict(zip(SWEEP_COLUMNS, (model, float(r), *row))))
    return out


def _typed_bits(rows: list[dict]) -> list[list[tuple]]:
    return [
        [(k, type(v), _bits(v).item() if isinstance(v, float) else v) for k, v in row.items()]
        for row in rows
    ]


#: A grid point outside each model's domain, so its row is skipped.
SKIPPED = {"s1": (1.0, math.pi / 2.0, 1.0), "s2": (0.0, 1.0, 0.5)}


@st.composite
def sweeps(draw) -> tuple[str, float, list]:
    """One model, one radius and up to CHUNK + 8 grid points, some skipped."""
    model = draw(st.sampled_from(sorted(PARAMS)))
    u = st.one_of(PARAMS[model], st.just(SKIPPED[model]))
    return model, draw(st.sampled_from(RADII)), draw(st.lists(u, min_size=1, max_size=CHUNK + 8))


def _sampled_sweep(model: str, n: int) -> tuple[str, float, list]:
    grid = [tuple(p.u) for p in sample_points(model, n, seed=6)]
    return model, 1.0, grid[:5] + [SKIPPED[model]] + grid[5:]


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweeps())
# rows that pass, across a chunk boundary with a skipped row inside a chunk
@example(_sampled_sweep("s1", CHUNK + 5))
@example(_sampled_sweep("s2", CHUNK + 5))
# a point that fails on its own between two that pass, in one chunk
@example(("s2", 1.0, [(0.5, 1.0, 1.0), (0.5, 1.0, 20.0), (0.6, 1.0, 0.5)]))
# a run of more than CHUNK skipped rows between the points of a chunk
@example(("s1", 1.0, [(0.3, 0.7, 1.1), *[SKIPPED["s1"]] * (CHUNK + 3), (0.4, 0.7, 1.1)]))
def test_sweep_rows_equal_their_points(sweep):
    model, r, grid = sweep
    batch = _typed_bits(_sweep_dicts(model, r, grid, TOL))
    assert batch == _typed_bits(_point_rows(model, r, grid, TOL))


def test_sweep_rows_build_no_model_point_in_the_domain():
    # every grid point, in the domain or not, is checked and batched as floats
    grid = [tuple(p.u) for p in sample_points("s1", 10, seed=6)]
    grid += [SKIPPED["s1"], (math.nan, 0.7, 1.1)]
    with mock.patch("paraframe.report.ModelPoint", wraps=ModelPoint) as built:
        rows = [row for chunk in sweep_rows("s1", 1.0, grid, TOL) for row in chunk]
    assert [row[3] for row in rows] == ["PASS"] * 10 + ["skipped"] * 2
    assert rows[-1][4] == "u must be 3 finite parameters"
    assert built.call_count == 0


#: Coordinates at the edges of both domains: signed zeros, non-finite and
#: extreme values, the excluded loci and points 1e-7 (inside the exclusion)
#: and 2e-6 (outside it) from them, and 2pi and the doubles around it.
EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
         TWO_PI, math.nextafter(TWO_PI, 0.0), math.nextafter(TWO_PI, 7.0)]
EDGES += [k * math.pi / 2.0 + d for k in range(5) for d in (0.0, -1e-7, 1e-7, -2e-6, 2e-6)]
edge_coordinate = st.one_of(st.sampled_from(EDGES), angle, anything)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(("s1", "s2", "s3")),
    st.sampled_from((1.0, 2.0, 0.0, -1.0, math.nan, math.inf)),
    st.lists(st.tuples(edge_coordinate, edge_coordinate, edge_coordinate), min_size=1,
             max_size=6),
)
@example("s1", 1.0, [(0.3, 0.0, 1.1), (0.3, math.pi / 2.0 + 1e-7, 1.1), (7.0, 0.7, 1.1),
                     (0.3, 0.7, -0.0), (0.3, 0.7, -1e-300), (0.3, 0.7, TWO_PI)])
@example("s2", 1.0, [(-0.0, 1.0, 0.5), (1e-7, 1.0, 0.5), (0.5, TWO_PI, 0.5),
                     (0.5, -1e-300, 0.5), (0.5, 1.0, math.inf)])
@example("s1", -1.0, [(0.3, 0.7, 1.1), (math.nan, 0.7, 1.1)])
@example("s3", 1.0, [(0.3, 0.7, 1.1)])
def test_skipped_rows_carry_the_model_point_error(model, r, grid):
    # a grid point is skipped exactly when ModelPoint rejects it, with the
    # text of the error ModelPoint raises; an unknown model skips every row
    rows = [row for chunk in sweep_rows(model, r, grid, TOL) for row in chunk]
    assert len(rows) == len(grid)
    for u, row in zip(grid, rows):
        try:
            ModelPoint(model=model, r=r, u=np.array(u))
        except ValueError as exc:
            assert row[3:] == ("skipped", str(exc))
        else:
            assert row[3] != "skipped"


#: Bound on the tracemalloc peak of one `_batches` call on a full CHUNK of
#: points.  Measured at CHUNK = 64 (numpy 2.4): 943 KB on s1 and 942 KB on
#: s2, 4% under the bound, with jets stored to their degree and products over
#: more than 256 cells run in blocks.  Without the blocks, 64 points peaked at
#: 1486 KB, and jets holding all 20 coefficients at every degree peaked at
#: 1660 KB at 32 points, so unblocking the products, widening the storage
#: again or a larger CHUNK fails here before it shows in a process's resident
#: memory.
PEAK_BOUND = 980 * 1024


@pytest.mark.parametrize("model", ["s1", "s2"])
def test_full_chunk_memory_peak(model):
    points = PointBatch.of(sample_points(model, CHUNK, seed=1))
    _batches(points, TOL)  # one-off allocations outside the window
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _batches(points, TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - before <= PEAK_BOUND


def test_a_failing_point_bisects_its_chunk():
    # a chunk that raises is run again as two halves, so the one failing point
    # of 64 costs 2 log2(64) + 1 = 13 front calls, not 1 + 64; its row is
    # still FAIL with its own error, and every other row is analysed
    grid = [tuple(p.u) for p in sample_points("s2", CHUNK - 1, seed=6)]
    grid.insert(40, (0.5, 1.0, 400.0))
    with mock.patch("paraframe.report.immerse", wraps=report.immerse) as immerse:
        rows = [row for chunk in sweep_rows("s2", 1.0, grid, TOL) for row in chunk]
    assert [row[3] for row in rows] == ["PASS"] * 40 + ["FAIL"] + ["PASS"] * (CHUNK - 41)
    assert rows[40][4] == "induced metric not Riemannian"
    assert immerse.call_count <= 2 * int(math.log2(CHUNK)) + 1


@pytest.mark.parametrize("u3", [(1.0, 400.0), (400.0,)])
def test_a_mostly_failing_chunk_is_analysed_point_by_point(u3):
    # rows alternating PASS and FAIL (u3 = 400 fails), or every row failing:
    # halving each failing batch down to single points would cost
    # 2 * 64 - 1 = 127 front calls; a batch of at most POINTWISE points whose
    # halves both fail runs its points alone, 1 + 2 + 4 + 8 + 64 = 79
    grid = [(u1, 0.7, x) for u1 in np.linspace(0.5, 1.5, CHUNK // len(u3)) for x in u3]
    with mock.patch("paraframe.report.immerse", wraps=report.immerse) as immerse:
        rows = [row for chunk in sweep_rows("s2", 1.0, grid, TOL) for row in chunk]
    assert [row[3] for row in rows] == [("PASS", "FAIL")[x == 400.0] for _, _, x in grid]
    assert {row[4] for row in rows if row[3] == "FAIL"} == {"induced metric not Riemannian"}
    assert immerse.call_count <= 79
