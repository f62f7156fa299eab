"""Point analysis, verification suite and deterministic serialization.

Reports are plain dicts with a fixed key order.  Their scalars are plain
`float`, `int`, `bool` and `str`, and `None` in JSON only (as null); the
renderers format each by its exact type, floats at 17 significant digits, so
identical configurations produce byte-identical artifacts.  Any other type,
a numpy scalar included, is a TypeError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import classifier, frame, nijenhuis, tensors
from .hypersurface import MODELS, ModelPoint, bracket_field, immerse, orthonormal_frame
from .hypersurface import sample_points, sphere_residual
from .reference import ModelReference, model_reference, reference_key
from .structure import PHI, metric_compat
from .tensors import DIM, max_abs

#: Entries smaller than this are dropped from "nonzero component" listings.
REPORT_EPS = 1e-12


# ---------------------------------------------------------------------------
# per-point analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointAnalysis:
    """Every stage of the pipeline at one point, with its identity residuals
    and the closed-form targets they are checked against.

    `_analyze_field` builds one for a whole chunk of points: then every
    array, scalar and residual carries a leading point axis, and `label`,
    `reference` and `status` are lists with one entry per point.
    """

    field: frame.StructureField
    connection: frame.ConnectionCoeffs
    f: np.ndarray
    lee: classifier.LeeForms
    decomposition: classifier.FDecomposition
    label: classifier.ClassLabel
    nijenhuis: np.ndarray
    assoc_nijenhuis: np.ndarray
    curvature: np.ndarray
    ricci: np.ndarray
    ricci_star: np.ndarray
    tau: float
    tau_star: float
    k: tuple[float, float, float]
    kappa: float
    d_eta: np.ndarray
    nabla_xi_xi: np.ndarray
    reference: ModelReference
    residuals: dict[str, float]
    status: str


#: Points per call of the pipeline.  On a 2-core VM (Python 3.11, numpy 2.4)
#: a `_batches` call costs about 2.0 ms plus 0.085 ms per point, on s1 and s2
#: alike (best of 30 rounds at 1-64 points of distinct u1, each with its own
#: reference), so the fixed part is three quarters at 8 points, two fifths at
#: 32 and a quarter at 64, where the 54 in-domain rows of a sweep-grid
#: benchmark call are one chunk.  The stages' arrays grow with the chunk, but jet products
#: over more than 256 cells run in blocks, so 64 points peak at 0.94 MB
#: (tracemalloc; 1.49 MB unblocked), and the sweep-grid benchmark's peak RSS
#: is 0.4% above that of chunks of 32 (BENCH_12.json).
CHUNK = 64


def _chunked(points: Sequence[ModelPoint]) -> Iterator[list[ModelPoint]]:
    """Runs of at most CHUNK consecutive points of one model, in order."""
    chunk: list[ModelPoint] = []
    for p in points:
        if chunk and (len(chunk) == CHUNK or p.model != chunk[0].model):
            yield chunk
            chunk = []
        chunk.append(p)
    if chunk:
        yield chunk


def analyze_points(points: Sequence[ModelPoint], tol: float) -> list[PointAnalysis]:
    """Run the full pipeline at each point and collect tensors and residuals.

    The whole pipeline, from the jet stages (immerse, orthonormal_frame,
    bracket_field) to the residuals, runs once per chunk of points (see
    `_chunked`), each point a row of the batched arrays; only the sphere
    residual and kappa are evaluated point by point, and the closed-form
    reference once per distinct `reference_key` of a chunk.
    Every result is bitwise the result for that point alone.  If a chunk
    raises, it is run again one point at a time, so the error raised is the
    first failing point's own.
    """
    return [
        _point(b, n)
        for chunk in _chunked(points)
        for b in _batches(chunk, tol)
        for n in range(len(b.status))
    ]


def analyze_point(p: ModelPoint, tol: float) -> PointAnalysis:
    """Run the full pipeline at one point; see analyze_points."""
    return analyze_points([p], tol)[0]


#: The planes span{e_a, e_b} of the reported sectional curvatures k_ab, and
#: their report keys.
_PLANES = tuple((np.eye(DIM)[a], np.eye(DIM)[b]) for a, b in ((0, 1), (0, 2), (1, 2)))
_SECTIONAL_KEYS = ("k_01", "k_02", "k_12")


def _batches(chunk: list[ModelPoint], tol: float) -> list[PointAnalysis]:
    """The batched analysis of one chunk: the jet front (immerse,
    orthonormal_frame, bracket_field) and its residuals, then `_analyze_field`;
    if the chunk raises, one batch per point instead."""
    try:
        jet = immerse(chunk)
        fc = orthonormal_frame(jet, chunk[0].spec.signature)
        sf = bracket_field(fc)
        # one closed form per distinct reference_key, shared by its points
        keys = [reference_key(p) for p in chunk]
        shared = {key: model_reference(p) for key, p in dict(zip(keys, chunk)).items()}
        refs = [shared[key] for key in keys]
        # the one axiom that reads the metric, against the frame's true Gram matrix
        gram = fc.a @ fc.metric @ np.swapaxes(fc.a, -1, -2)
        residuals = {
            "on_sphere": np.array([sphere_residual(p, z) for p, z in zip(chunk, jet.value)]),
            "frame_gram": max_abs(gram - np.eye(DIM), 2),
            "structure_axioms": metric_compat(gram),
            "bracket_vs_closed_form": max_abs(sf.c - np.stack([ref.c for ref in refs]), 3),
            "bracket_deriv_vs_closed_form": max_abs(sf.dc - np.stack([ref.dc for ref in refs]), 4),
        }
        kappa = np.array([p.spec.kappa(p.r) for p in chunk])
        batch = _analyze_field(sf, kappa, refs, residuals, tol)
    except (ValueError, ArithmeticError, RuntimeWarning):
        # RuntimeWarning is raised only where warnings are errors; a batched
        # stage meets one point's overflow before another point's error
        if len(chunk) == 1:
            raise
        return [b for p in chunk for b in _batches([p], tol)]
    return [batch]


def _analyze_field(sf: frame.StructureField, kappa: np.ndarray, refs: list[ModelReference],
                   residuals: dict[str, np.ndarray], tol: float) -> PointAnalysis:
    """The algebraic tail of `_batches` on a batched StructureField; `refs`
    are stored as given, and the front's `residuals` come first."""
    conn = frame.koszul(sf)

    f = classifier.fundamental_tensor(conn)
    lee = classifier.lee_forms(f)
    decomp = classifier.class_components(f, lee)
    labels = classifier.classify(decomp, classifier.classification_tol(f))

    n_f = nijenhuis.nijenhuis_from_F(f)
    hn_f = nijenhuis.assoc_nijenhuis_from_F(f)
    n_d, hn_d = nijenhuis.nijenhuis_direct(conn, sf)

    r4 = frame.curvature(conn, sf)
    rho = tensors.contract_metric(r4)
    rho_star = tensors.contract_metric(r4, PHI)

    fs1, fs2 = classifier.f_symmetry_residuals(f)
    rsym = tensors.curvature_symmetry_residuals(r4)
    residuals = {
        **residuals,
        "jacobi_identity": frame.jacobi_residual(sf),
        "connection_metric": conn.metric_defect(),
        "connection_torsion": conn.torsion_defect(sf),
        "f_symmetry_first": fs1,
        "f_symmetry_second": fs2,
        "lee_omega_0": np.abs(lee.omega[:, 0]),
        "lee_theta1_plus_thetastar2": np.abs(lee.theta[:, 1] + lee.theta_star[:, 2]),
        "lee_theta2_plus_thetastar1": np.abs(lee.theta[:, 2] + lee.theta_star[:, 1]),
        "nabla_eta_relation": classifier.check_nabla_eta_relation(conn, f),
        "class_decomposition": decomp.residual,
        "nijenhuis_cross_route": max_abs(n_f - n_d, 3),
        "assoc_nijenhuis_cross_route": max_abs(hn_f - hn_d, 3),
        "curvature_symmetries": functools.reduce(np.maximum, rsym.values()),
        "ricci_symmetry": tensors.symmetry_defect(rho),
        "space_form": frame.space_form_residual(r4, kappa),
    }
    return PointAnalysis(
        field=sf,
        connection=conn,
        f=f,
        lee=lee,
        decomposition=decomp,
        label=labels,
        nijenhuis=n_f,
        assoc_nijenhuis=hn_f,
        curvature=r4,
        ricci=rho,
        ricci_star=rho_star,
        tau=np.trace(rho, axis1=-2, axis2=-1),
        tau_star=np.trace(rho_star, axis1=-2, axis2=-1),
        k=tuple(frame.sectional(r4, x, y) for x, y in _PLANES),
        kappa=kappa,
        d_eta=frame.d_eta(conn),
        nabla_xi_xi=frame.nabla_xi_xi(conn),
        reference=refs,
        residuals=residuals,
        status=[
            "PASS" if worst <= tol else "FAIL"
            for worst in functools.reduce(np.maximum, residuals.values())
        ],
    )


def _point(b, n: int):
    """Point n of a batched value: an array drops its point axis (a 1-D one
    gives a Python float), a list gives entry n, and dicts, tuples and
    dataclasses are rebuilt from their members' point n."""
    if isinstance(b, np.ndarray):
        return float(b[n]) if b.ndim == 1 else b[n]
    if isinstance(b, list):
        return b[n]
    if isinstance(b, dict):
        return {key: _point(v, n) for key, v in b.items()}
    if isinstance(b, tuple):
        return tuple(_point(v, n) for v in b)
    return type(b)(**{f.name: _point(getattr(b, f.name), n) for f in fields(b)})


def _entries(name: str, t: np.ndarray) -> dict[str, float]:
    """Nonzero components keyed like R_0101, in index order."""
    idx = np.nonzero(np.abs(t) > REPORT_EPS)  # row-major
    return {
        f"{name}_" + "".join(map(str, i)): v
        for i, v in zip(zip(*(k.tolist() for k in idx)), t[idx].tolist())
    }


def _class_names(label) -> list[str]:
    return [f"F{s}" for s in label.classes]


def classify_report(p: ModelPoint, tol: float) -> dict:
    a = analyze_point(p, tol)
    return {
        "command": "classify",
        "model": p.model,
        "r": float(p.r),
        "point": [float(x) for x in p.u],
        "classes": _class_names(a.label),
        "is_f0": a.label.is_f0,
        "params": a.decomposition.params,
        "class_residual": a.decomposition.residual,
        "f_components": _entries("F", a.f),
        "status": a.status,
    }


def curvature_report(p: ModelPoint, tol: float) -> dict:
    a = analyze_point(p, tol)
    return {
        "command": "curvature",
        "model": p.model,
        "r": float(p.r),
        "point": [float(x) for x in p.u],
        "curvature_components": _entries("R", a.curvature),
        "ricci": _entries("rho", a.ricci),
        "ricci_star": _entries("rho_star", a.ricci_star),
        "tau": a.tau,
        "tau_star": a.tau_star,
        **dict(zip(_SECTIONAL_KEYS, a.k)),
        "kappa": a.kappa,
        "space_form_residual": a.residuals["space_form"],
        "status": a.status,
    }


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _checks(model: str, a: PointAnalysis, tol: float) -> dict[str, float]:
    """Every identity residual of a batched analysis, closed-form targets
    included, each maximised over the batch's points."""
    refs = a.reference
    ref = {
        name: np.array([getattr(r, name) for r in refs])
        for name in ("gamma", "f", "nijenhuis", "assoc_nijenhuis", "curvature", "ricci",
                     "ricci_star", "tau", "tau_star", "sectional", "d_eta", "nabla_xi_xi")
    }
    params = a.decomposition.params
    components = a.decomposition.components
    checks = dict(a.residuals)
    checks.update(
        {
            "gamma_vs_closed_form": max_abs(a.connection.gamma - ref["gamma"], 3),
            "f_vs_closed_form": max_abs(a.f - ref["f"], 3),
            "nijenhuis_vs_closed_form": max_abs(a.nijenhuis - ref["nijenhuis"], 3),
            "assoc_nijenhuis_vs_closed_form": max_abs(
                a.assoc_nijenhuis - ref["assoc_nijenhuis"], 3
            ),
            "curvature_vs_closed_form": max_abs(a.curvature - ref["curvature"], 4),
            "ricci_vs_closed_form": max_abs(a.ricci - ref["ricci"], 2),
            "ricci_star_vs_closed_form": max_abs(a.ricci_star - ref["ricci_star"], 2),
            "tau_vs_closed_form": np.abs(a.tau - ref["tau"]),
            "tau_star_vs_closed_form": np.abs(a.tau_star - ref["tau_star"]),
            "sectional_vs_closed_form": max_abs(
                np.stack(a.k, axis=-1) - ref["sectional"][:, None], 1
            ),
            "lee_params_vs_closed_form": max_abs(
                np.stack(
                    [params[key] - [r.lee_params[key] for r in refs] for key in refs[0].lee_params],
                    axis=-1,
                ),
                1,
            ),
            "class_label": np.array(
                [0.0 if label.classes == r.classes else 1.0 for label, r in zip(a.label, refs)]
            ),
            # the points of a chunk share one model, so one class list
            "class_components_nonvanishing": np.where(
                np.all([max_abs(components[sid], 3) > tol for sid in refs[0].classes], axis=0),
                0.0,
                1.0,
            ),
            "d_eta_vs_closed_form": max_abs(a.d_eta - ref["d_eta"], 2),
            "nabla_xi_xi_vs_closed_form": max_abs(a.nabla_xi_xi - ref["nabla_xi_xi"], 1),
        }
    )
    checks.update(MODELS[model].identities(a))
    return {name: float(np.max(v)) for name, v in checks.items()}


def run_verify(model: str, r: float, samples: int, seed: int, tol: float) -> dict:
    """Evaluate every identity at seeded sample points; PASS iff all within tol."""
    points = sample_points(model, samples, seed, r=r)
    worst: dict[str, float] = {}
    for chunk in _chunked(points):
        for b in _batches(chunk, tol):
            for name, value in _checks(model, b, tol).items():
                worst[name] = max(worst.get(name, 0.0), value)
    checks = [
        {"name": name, "max_residual": value, "pass": value <= tol}
        for name, value in worst.items()
    ]
    failed = [c["name"] for c in checks if not c["pass"]]
    return {
        "command": "verify",
        "model": model,
        "r": r,
        "samples": samples,
        "seed": seed,
        "tol": tol,
        "checks": checks,
        "failed": failed,
        "status": "PASS" if not failed else "FAIL",
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


#: Text of each scalar type a report may hold, keyed by exact type, so a
#: numpy scalar or a subclass of float or str has no entry.
_SCALARS = {
    float: lambda x: format(x, ".17g"),
    bool: lambda x: "true" if x else "false",
    int: str,
    str: str,
}


def format_scalar(x) -> str:
    """The text of scalar x; a type `_SCALARS` lacks is a TypeError."""
    text = _SCALARS.get(type(x))
    if text is None:
        raise TypeError(f"cannot render a value of type {type(x).__name__}")
    return text(x)


#: JSON string escapes: \" and \\ for quote and backslash, \u00XX below 0x20.
_JSON_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}
)


def _json_escape(s: str) -> str:
    return '"' + s.translate(_JSON_ESCAPES) + '"'


#: JSON escapes strings and adds null.
_JSON_SCALARS = {**_SCALARS, str: _json_escape, type(None): lambda x: "null"}


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{_json_escape(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [render_json(v, indent + 1) for v in obj]
    else:
        return format_scalar(obj)  # a type neither table holds: a TypeError
    if not items:
        return brackets
    pad = "\n" + "  " * indent
    return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]


def _leaves(obj, sep: str, prefix: str = ""):
    """Yield (dotted key, leaf) pairs in report order, leaves unformatted.

    A list of scalars is one leaf, its formatted items joined by `sep`; an
    empty dict is its own leaf, so a None leaf stays a TypeError outside JSON.
    """
    if isinstance(obj, dict):
        if not obj:
            yield prefix, obj
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            if isinstance(v, (dict, list, tuple)):
                yield from _leaves(v, sep, key)
            else:
                yield key, v
    elif isinstance(obj, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            yield prefix, "[" + sep.join(format_scalar(v) for v in obj) + "]"
        else:
            for n, v in enumerate(obj):
                yield from _leaves(v, sep, f"{prefix}[{n}]")
    else:
        yield prefix, obj


def render_text(obj) -> str:
    """Flat key = value lines for human reading; an empty dict is a blank line."""
    return "\n".join("" if type(v) is dict else f"{k} = {format_scalar(v)}"
                     for k, v in _leaves(obj, ", "))


def _csv_field(v) -> str:
    """A string quoted if it holds a comma, quote or newline; the text of a
    number or bool never does, so it skips the scan."""
    if type(v) is not str:
        return format_scalar(v)
    if any(ch in v for ch in ',"\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def render_csv(report: dict) -> str:
    """One header line of dotted keys and one line of values."""
    pairs = [(k, v) for k, v in _leaves(report, "; ") if type(v) is not dict]
    header = ",".join(_csv_field(k) for k, _ in pairs)
    values = ",".join(_csv_field(v) for _, v in pairs)
    return header + "\n" + values


def sweep_rows(model: str, r: float, grid: Iterable, tol: float) -> list[dict]:
    """One row per grid point u, in order; domain violations are reported,
    not raised.

    In-domain points are analysed CHUNK at a time, and each row reads its
    fields off the chunk's batched analysis, so no analysis outlives its
    chunk.
    """
    rows: list[dict] = []
    pending: list[tuple[dict, ModelPoint]] = []

    def flush():
        if not pending:
            return
        fields = [f for b in _batches([p for _, p in pending], tol) for f in _batch_rows(b)]
        for (row, _), f in zip(pending, fields):
            row.update(f)
        pending.clear()

    for u in grid:
        row = {"model": model, "r": float(r), "u0": float(u[0]), "u1": float(u[1]),
               "u2": float(u[2])}
        rows.append(row)
        try:
            p = ModelPoint(model=model, r=r, u=np.asarray(u, dtype=float))
        except ValueError as exc:
            row.update(status="skipped", warning=str(exc))
            continue
        pending.append((row, p))
        if len(pending) == CHUNK:
            flush()
    flush()
    return rows


#: The fixed curvature columns of a sweep row: the field and component each
#: reads; a component within REPORT_EPS of 0 reads 0.0, as in `_entries`.
_SWEEP_ENTRIES = (
    ("R_0101", "curvature", (0, 1, 0, 1)),
    ("R_0202", "curvature", (0, 2, 0, 2)),
    ("R_1212", "curvature", (1, 2, 1, 2)),
    ("rho_00", "ricci", (0, 0)),
    ("rho_11", "ricci", (1, 1)),
    ("rho_22", "ricci", (2, 2)),
    ("rho_star_12", "ricci_star", (1, 2)),
)

#: The class parameters of a sweep row, read off the decomposition.
_SWEEP_PARAMS = ("theta_0", "theta_1", "theta_2", "theta_star_0", "omega_1", "omega_2",
                 "lam", "mu", "nu")

#: The columns of a sweep row: the grid point, then `_batch_rows`' fields.
SWEEP_COLUMNS = [
    "model", "r", "u0", "u1", "u2", "status", "warning", "classes", "is_f0", "class_residual",
    *_SWEEP_PARAMS, "tau", "tau_star", *_SECTIONAL_KEYS, "space_form_residual",
    *(key for key, _, _ in _SWEEP_ENTRIES), "max_residual",
]


def _batch_rows(b: PointAnalysis) -> list[dict]:
    """The sweep fields of each point of a batched analysis, in order; every
    column is read off the batch once, as Python floats."""
    res = b.residuals
    columns = {
        "class_residual": res["class_decomposition"].tolist(),
        **{key: b.decomposition.params[key].tolist() for key in _SWEEP_PARAMS},
        "tau": b.tau.tolist(),
        "tau_star": b.tau_star.tolist(),
        **{key: kab.tolist() for key, kab in zip(_SECTIONAL_KEYS, b.k)},
        "space_form_residual": res["space_form"].tolist(),
        **{key: [v if abs(v) > REPORT_EPS else 0.0 for v in getattr(b, name)[(..., *idx)].tolist()]
           for key, name, idx in _SWEEP_ENTRIES},
        # Python max over each point's residuals in their insertion order
        "max_residual": [max(r) for r in zip(*(v.tolist() for v in res.values()))],
    }
    return [
        {"status": status, "warning": "", "classes": "+".join(_class_names(label)),
         "is_f0": label.is_f0, **{key: col[n] for key, col in columns.items()}}
        for n, (label, status) in enumerate(zip(b.label, b.status))
    ]


def render_sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_field(row.get(col, "")) for col in SWEEP_COLUMNS))
    return "\n".join(lines)
