"""Point analysis, verification suite and deterministic serialization.

Reports are plain dicts with a fixed key order.  Their scalars are plain
`float`, `int`, `bool` and `str`, and `None` in JSON only (as null); the
renderers format each by its exact type, floats at 17 significant digits, so
identical configurations produce byte-identical artifacts.  Any other type,
a numpy scalar included, is a TypeError.  A sweep's rows are tuples instead,
streamed a chunk at a time by `SweepText` under the same rules and bytes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import classifier, frame, nijenhuis, tensors
from .hypersurface import MODELS, ModelPoint, PointBatch, bracket_field, check_point, check_radius
from .hypersurface import immerse, orthonormal_frame, sample_u, seeded, sphere_residual
from .reference import ModelReference, model_reference
from .structure import PHI, metric_compat
from .tensors import DIM, max_abs

#: Entries smaller than this are dropped from "nonzero component" listings.
REPORT_EPS = 1e-12


# ---------------------------------------------------------------------------
# per-point analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointAnalysis:
    """Every stage of the pipeline at a chunk of points, with its identity
    residuals and the closed-form targets they are checked against.

    `_analyze_field` builds one per chunk: every array and residual carries
    a leading point axis, as does the one `reference` of the chunk, and
    `label` and `status` are lists with one entry per point.  A point
    command's analysis is a chunk of one point, read at row 0.
    """

    field: frame.StructureField
    connection: frame.ConnectionCoeffs
    f: np.ndarray
    lee: classifier.LeeForms
    decomposition: classifier.FDecomposition
    label: list[classifier.ClassLabel]
    nijenhuis: np.ndarray
    assoc_nijenhuis: np.ndarray
    curvature: np.ndarray
    ricci: np.ndarray
    ricci_star: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    k: np.ndarray  # (n, 3): each point's k_01, k_02 and k_12
    kappa: np.ndarray
    d_eta: np.ndarray
    nabla_xi_xi: np.ndarray
    reference: ModelReference
    residuals: dict[str, np.ndarray]
    max_residual: np.ndarray  # each point's worst residual, which status compares with tol
    status: list[str]


#: Points per call of the pipeline.  On a shared 2-core VM (Python 3.11,
#: numpy 2.4) a `_batches` call costs about 2.5-3 ms plus 0.08 ms per point,
#: on s1 and s2 alike (a line through the best of 100 rounds at 1, 8, 16, 32
#: and 64 sampled points, three runs whose fixed part spread 2.3-3.4 ms with
#: the host's speed), so the fixed part is four fifths at 8 points, half at
#: 32 and two fifths at 64, where the 54 in-domain rows of a sweep-grid
#: benchmark call are one chunk.  The stages' arrays grow with the chunk, but
#: jet products over more than 256 cells run in blocks, so 64 points peak at
#: 0.94 MB (tracemalloc; 1.49 MB unblocked), and the sweep-grid benchmark's
#: peak RSS is 0.4% above that of chunks of 32 (BENCH_12.json).
CHUNK = 64


def analyze_point(p: ModelPoint, tol: float) -> PointAnalysis:
    """The analysis of a point command: the full pipeline on the one-point
    batch of p, each value's row 0 that point's."""
    return _analysed(PointBatch.of([p]), tol)[0]


#: The report keys of the sectional curvatures k_ab, and the indices a and b
#: of their basis planes span{e_a, e_b}.
_SECTIONAL_KEYS = ("k_01", "k_02", "k_12")
_A, _B = (0, 0, 1), (1, 2, 2)


#: A failing batch of at most this many points whose two halves both fail
#: has each of its points analysed alone.  Halving every failing batch down
#: to single points costs 2n - 1 front calls when every point of n fails;
#: for n = 64 this rule needs 79, not 127, and one failing point of 64 still
#: costs 13, down the halves that hold it.
POINTWISE = 16


def _attempt(batch: PointBatch, tol: float) -> PointAnalysis | Exception:
    """The batched analysis of a batch: the jet front (immerse,
    orthonormal_frame, bracket_field), the closed form and their residuals,
    then `_analyze_field`; or the error the batch raises."""
    try:
        spec = batch.spec
        jet = immerse(batch)
        fc = orthonormal_frame(jet, spec.signature)
        sf = bracket_field(fc)
        ref = model_reference(batch)
        # the one axiom that reads the metric, against the frame's true Gram matrix
        gram = np.einsum("...ik,...kl,...jl->...ij", fc.a, fc.metric, fc.a)
        residuals = {
            "on_sphere": sphere_residual(batch, jet.value),
            "frame_gram": max_abs(gram - np.eye(DIM), 2),
            "structure_axioms": metric_compat(gram),
            "bracket_vs_closed_form": max_abs(sf.c - ref.c, 3),
            "bracket_deriv_vs_closed_form": max_abs(sf.dc - ref.dc, 4),
        }
        return _analyze_field(sf, spec.kappa(batch.r), ref, residuals, tol)
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        # RuntimeWarning is raised only where warnings are errors; a batched
        # stage meets one point's overflow before another point's error
        return exc


def _batches(batch: PointBatch, tol: float) -> list[PointAnalysis | Exception]:
    """The batched analysis of one chunk; if the chunk raises, the batches of
    its parts instead (`_split`), and a point that raises on its own is its
    error, in its place."""
    a = _attempt(batch, tol)
    return _split(batch, tol) if isinstance(a, Exception) and len(batch) > 1 else [a]


def _split(batch: PointBatch, tol: float) -> list[PointAnalysis | Exception]:
    """`_batches` of a failing batch of two or more points: the batches of
    its two halves, except where both halves of a batch of at most POINTWISE
    points fail, whose points are then analysed alone."""
    half = len(batch) // 2
    parts = (batch[:half], batch[half:])
    if len(batch) > POINTWISE:
        return _batches(parts[0], tol) + _batches(parts[1], tol)
    tried = [_attempt(part, tol) for part in parts]
    both_fail = all(isinstance(t, Exception) for t in tried)
    out: list[PointAnalysis | Exception] = []
    for part, t in zip(parts, tried):
        if not isinstance(t, Exception) or len(part) == 1:
            out.append(t)
        elif both_fail:
            out.extend(_attempt(part[n : n + 1], tol) for n in range(len(part)))
        else:
            out.extend(_split(part, tol))
    return out


def _analysed(batch: PointBatch, tol: float) -> list[PointAnalysis]:
    """`_batches` of a chunk, raising the first failing point's own error;
    each row is bitwise the result for that point alone."""
    batches = _batches(batch, tol)
    for b in batches:
        if isinstance(b, Exception):
            raise b
    return batches


def _analyze_field(sf: frame.StructureField, kappa: np.ndarray, ref: ModelReference,
                   residuals: dict[str, np.ndarray], tol: float) -> PointAnalysis:
    """The algebraic tail of `_attempt` on a batched StructureField; `ref` is
    stored as given, and the front's `residuals` come first."""
    conn = frame.koszul(sf)

    f = classifier.fundamental_tensor(conn)
    lee = classifier.lee_forms(f)
    decomp = classifier.class_components(f, lee)
    labels = classifier.classify(decomp, classifier.classification_tol(f))

    n_f, hn_f = nijenhuis.nijenhuis_from_F(f)
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
    worst = functools.reduce(np.maximum, residuals.values())
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
        # (g^g)(e_a, e_b, e_b, e_a) = -2, so `frame.sectional` is R_abba; its
        # einsum, like `+ 0.0`, reads a -0.0 entry as +0.0
        k=r4[..., _A, _B, _B, _A] + 0.0,
        kappa=kappa,
        d_eta=frame.d_eta(conn),
        nabla_xi_xi=frame.nabla_xi_xi(conn),
        reference=ref,
        residuals=residuals,
        max_residual=worst,
        status=["PASS" if w <= tol else "FAIL" for w in worst],
    )


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
        "classes": _class_names(a.label[0]),
        "is_f0": a.label[0].is_f0,
        "params": {key: float(v[0]) for key, v in a.decomposition.params.items()},
        "class_residual": float(a.decomposition.residual[0]),
        "f_components": _entries("F", a.f[0]),
        "status": a.status[0],
    }


def curvature_report(p: ModelPoint, tol: float) -> dict:
    a = analyze_point(p, tol)
    return {
        "command": "curvature",
        "model": p.model,
        "r": float(p.r),
        "point": [float(x) for x in p.u],
        "curvature_components": _entries("R", a.curvature[0]),
        "ricci": _entries("rho", a.ricci[0]),
        "ricci_star": _entries("rho_star", a.ricci_star[0]),
        "tau": float(a.tau[0]),
        "tau_star": float(a.tau_star[0]),
        **dict(zip(_SECTIONAL_KEYS, a.k[0].tolist())),
        "kappa": float(a.kappa[0]),
        "space_form_residual": float(a.residuals["space_form"][0]),
        "status": a.status[0],
    }


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _checks(model: str, a: PointAnalysis, tol: float) -> tuple[list[str], np.ndarray]:
    """The name of every identity residual of a batched analysis, closed-form
    targets included, and each one's maximum over the batch's points (NaN
    where a point's residual is NaN)."""
    ref = a.reference
    params = a.decomposition.params
    components = a.decomposition.components
    checks = dict(a.residuals)
    checks.update(
        {
            "gamma_vs_closed_form": max_abs(a.connection.gamma - ref.gamma, 3),
            "f_vs_closed_form": max_abs(a.f - ref.f, 3),
            "nijenhuis_vs_closed_form": max_abs(a.nijenhuis - ref.nijenhuis, 3),
            "assoc_nijenhuis_vs_closed_form": max_abs(a.assoc_nijenhuis - ref.assoc_nijenhuis, 3),
            "curvature_vs_closed_form": max_abs(a.curvature - ref.curvature, 4),
            "ricci_vs_closed_form": max_abs(a.ricci - ref.ricci, 2),
            "ricci_star_vs_closed_form": max_abs(a.ricci_star - ref.ricci_star, 2),
            "tau_vs_closed_form": np.abs(a.tau - ref.tau),
            "tau_star_vs_closed_form": np.abs(a.tau_star - ref.tau_star),
            "sectional_vs_closed_form": max_abs(a.k - ref.sectional[:, None], 1),
            "lee_params_vs_closed_form": max_abs(
                np.stack([params[key] - val for key, val in ref.lee_params.items()], axis=-1), 1
            ),
            "class_label": np.array(
                [0.0 if label.classes == ref.classes else 1.0 for label in a.label]
            ),
            "class_components_nonvanishing": np.where(
                np.all([max_abs(components[sid], 3) > tol for sid in ref.classes], axis=0),
                0.0,
                1.0,
            ),
            "d_eta_vs_closed_form": max_abs(a.d_eta - ref.d_eta, 2),
            "nabla_xi_xi_vs_closed_form": max_abs(a.nabla_xi_xi - ref.nabla_xi_xi, 1),
        }
    )
    checks.update(MODELS[model].identities(a))
    return list(checks), np.max(np.stack(list(checks.values())), axis=1)


def run_verify(model: str, r: float, samples: int, seed: int, tol: float) -> dict:
    """Evaluate every identity at seeded sample points, drawn and analysed
    CHUNK points at a time from one `random.Random(seed)` (seed >= 0);
    PASS iff all within tol."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_radius(r)  # the draws are in the domain by construction
    rng = seeded(seed)
    names, worst = [], np.empty(0)
    for start in range(0, samples, CHUNK):
        k = min(CHUNK, samples - start)
        for b in _analysed(PointBatch(model, np.full(k, r), sample_u(model, k, rng)), tol):
            names, values = _checks(model, b, tol)
            # np.maximum, unlike max(), keeps a NaN, so a NaN residual fails
            worst = np.maximum(worst, values) if worst.size else values
    checks = [
        {"name": name, "max_residual": value, "pass": value <= tol}
        for name, value in zip(names, worst.tolist())
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
    if "," in v or '"' in v or "\n" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


def render_csv(report: dict) -> str:
    """One header line of dotted keys and one line of values."""
    pairs = [(k, v) for k, v in _leaves(report, "; ") if type(v) is not dict]
    header = ",".join(_csv_field(k) for k, _ in pairs)
    values = ",".join(_csv_field(v) for _, v in pairs)
    return header + "\n" + values


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

#: The columns of a sweep row: the sweep's model and r, the grid point, then
#: `_batch_columns`' fields.
SWEEP_COLUMNS = [
    "model", "r", "u0", "u1", "u2", "status", "warning", "classes", "is_f0", "class_residual",
    *classifier.PARAMS, "tau", "tau_star", *_SECTIONAL_KEYS, "space_form_residual",
    *(key for key, _, _ in _SWEEP_ENTRIES), "max_residual",
]

#: The exact type of each value of an analysed row of `sweep_rows`, which
#: holds the columns from u0 on; a skipped or failed row stops after warning.
_ROW_TYPES = (float, float, float, str, str, str, bool, *(float,) * (len(SWEEP_COLUMNS) - 9))
_SHORT_ROW_TYPES = _ROW_TYPES[:5]


def sweep_rows(model: str, r: float, grid: Iterable, tol: float) -> Iterator[list[tuple]]:
    """The rows of a sweep over the grid points u, in order, one list per
    chunk: the rows up to CHUNK in-domain points or CHUNK skipped rows.

    A row is the tuple of its values in SWEEP_COLUMNS order from u0 on; model
    and r are the sweep's own.  An in-domain point's row reads its fields off
    its chunk's batched analysis.  A point outside the domain is a `skipped`
    row and a point whose own analysis raises a `FAIL` row; both carry the
    error in `warning` and end there.  Only one chunk is held at a time.

    A grid point is checked by `check_point` on Python floats and enters
    its chunk's `PointBatch` as floats, with no ModelPoint of its own; every
    `warning` is the text ModelPoint(model, r, u) raises.
    """
    rows: list[tuple] = []
    points: list[tuple] = []
    for u in grid:
        u = (float(u[0]), float(u[1]), float(u[2]))
        try:
            check_point(model, r, u)
        except ValueError as exc:
            rows.append((*u, "skipped", str(exc)))
        else:
            rows.append(u)  # completed by `_chunk_rows`
            points.append(u)
        if len(points) == CHUNK or len(rows) - len(points) == CHUNK:
            yield _chunk_rows(rows, model, r, points, tol)
            rows, points = [], []
    if rows:
        yield _chunk_rows(rows, model, r, points, tol)


def _chunk_rows(rows: list[tuple], model: str, r: float, points: list[tuple],
                tol: float) -> list[tuple]:
    """`rows` with each in-domain grid point u of `points` completed to its row."""
    fields: list[tuple] = []
    if points:
        batch = PointBatch(model, np.full(len(points), float(r)), np.array(points))
        for b in _batches(batch, tol):
            if isinstance(b, Exception):
                fields.append(("FAIL", str(b)))
            else:
                fields.extend(zip(*_batch_columns(b)))
    it = iter(fields)
    return [row + next(it) if len(row) == 3 else row for row in rows]


def _batch_columns(b: PointAnalysis) -> list[list]:
    """The sweep columns from status on, each read off a batched analysis
    once, as Python values, one per point."""
    res = b.residuals
    return [
        b.status,
        [""] * len(b.status),
        ["+".join(_class_names(label)) for label in b.label],
        [label.is_f0 for label in b.label],
        res["class_decomposition"].tolist(),
        *(b.decomposition.params[key].tolist() for key in classifier.PARAMS),
        b.tau.tolist(),
        b.tau_star.tolist(),
        *b.k.T.tolist(),
        res["space_form"].tolist(),
        *([v if abs(v) > REPORT_EPS else 0.0 for v in getattr(b, name)[(..., *idx)].tolist()]
          for _, name, idx in _SWEEP_ENTRIES),
        b.max_residual.tolist(),
    ]


#: The %-slot of each column of a row of `sweep_rows`, by its type.
_SLOTS = dict(zip(SWEEP_COLUMNS[2:], ("%.17g" if t is float else "%s" for t in _ROW_TYPES)))


def _sweep_template(fmt: str, fixed: dict[str, str], width: int) -> str:
    """The %-template of a sweep row that fills the first `width` columns:
    the `fixed` text of a column where given, else its slot."""
    texts = [(col, fixed[col].replace("%", "%%") if col in fixed else _SLOTS[col])
             for col in SWEEP_COLUMNS[:width]]
    if fmt == "csv":
        return ",".join([text for _, text in texts] + [""] * (len(SWEEP_COLUMNS) - width)) + "\n"
    if fmt == "text":
        return "".join(f"{col.replace('%', '%%')} = {text}\n" for col, text in texts) + "\n"
    items = (f"{_json_escape(col).replace('%', '%%')}: {text}" for col, text in texts)
    return "{\n      " + ",\n      ".join(items) + "\n    }"


class SweepText:
    """The text of one sweep in one format, made a chunk of rows at a time:
    `head`, then `rows(chunk)` for each chunk of `sweep_rows`, then `tail()`.

    The bytes are those of the generic renderers: csv is a header line and a
    `render_csv` value line per row, blank after a short row's last value;
    text is `render_text` of each row followed by a blank line; json is
    `render_json` of {command, model, r, rows, skipped}.  Each kind of row
    (analysed, skipped, failed) has one %-template, built here from
    SWEEP_COLUMNS with model and r as fixed text: floats fill `%.17g` slots,
    and strings, escaped first, and bools `%s` slots.  A value of any other
    exact type, a numpy scalar included, is a TypeError, as in
    `format_scalar`.  `counts` holds the skipped and FAIL rows so far.
    """

    def __init__(self, fmt: str, model: str, r: float):
        self._escape = {"csv": _csv_field, "json": _json_escape, "text": str}[fmt]
        fixed = {"model": self._escape(format_scalar(model)), "r": format_scalar(r)}
        self._analysed = _sweep_template(fmt, fixed, len(SWEEP_COLUMNS))
        self._short = {
            status: _sweep_template(fmt, {**fixed, "status": self._escape(status)}, 7)
            for status in ("skipped", "FAIL")
        }
        self.counts = dict.fromkeys(self._short, 0)
        self._fmt = fmt
        # json rows are the items of one list, so a comma goes between two
        self._sep = ",\n    " if fmt == "json" else ""
        self._written = 0
        self.head = {
            "csv": ",".join(SWEEP_COLUMNS) + "\n",
            "json": f'{{\n  "command": "sweep",\n  "model": {fixed["model"]},\n'
                    f'  "r": {fixed["r"]},\n  "rows": [',
            "text": "",
        }[fmt]

    def rows(self, rows: list[tuple]) -> str:
        """The text of one chunk of rows."""
        escape, parts = self._escape, []
        for row in rows:
            types = tuple(map(type, row))
            if types == _ROW_TYPES:
                parts.append(self._analysed % (
                    row[:3] + (escape(row[3]), escape(row[4]), escape(row[5]),
                               format_scalar(row[6])) + row[7:]
                ))
            elif types == _SHORT_ROW_TYPES:
                self.counts[row[3]] += 1
                parts.append(self._short[row[3]] % (row[0], row[1], row[2], escape(row[4])))
            else:
                bad = next((v for v, t in zip(row, _ROW_TYPES) if type(v) is not t), row)
                raise TypeError(f"cannot render a value of type {type(bad).__name__} in a "
                                "sweep row")
        if not parts:
            return ""
        lead = self._sep if self._written else self._sep[1:]  # no comma before the first
        self._written += len(parts)
        return lead + self._sep.join(parts)

    def tail(self) -> str:
        """The text after the last row: json's `skipped` count."""
        if self._fmt != "json":
            return ""
        close = "\n  ]" if self._written else "]"
        return f'{close},\n  "skipped": {format_scalar(self.counts["skipped"])}\n}}\n'
