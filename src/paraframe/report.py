"""Point analysis, verification suite and deterministic serialization.

Reports are plain dicts with a fixed key order; the JSON and CSV renderers
format every scalar with 17 significant digits, so identical configurations
produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import classifier, frame, nijenhuis, tensors
from .hypersurface import ModelPoint, bracket_field, immerse, orthonormal_frame
from .hypersurface import sample_points, sphere_residual
from .reference import ModelReference, model_reference
from .structure import STANDARD, AprStructure, verify_axioms
from .tensors import DIM, max_abs

#: Entries smaller than this are dropped from "nonzero component" listings.
REPORT_EPS = 1e-12


# ---------------------------------------------------------------------------
# per-point analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointAnalysis:
    """Every stage of the pipeline at one point, with its identity residuals
    and the closed-form targets they are checked against."""

    structure: AprStructure
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


#: Points per call of the jet stages.  The stages' arrays grow with the
#: chunk, so this bounds their transient memory; beyond a few points the
#: per-call overhead they amortise is already small.
CHUNK = 8


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
    `_chunked`), each point a row of the batched arrays; only the closed-form
    reference is evaluated point by point.  Every result is bitwise the
    result for that point alone.  If a chunk raises, it is run again one
    point at a time, so the error raised is the first failing point's own.
    """
    return [a for chunk in _chunked(points) for a in _analyze_chunk(chunk, tol)]


def analyze_point(p: ModelPoint, tol: float) -> PointAnalysis:
    """Run the full pipeline at one point; see analyze_points."""
    return analyze_points([p], tol)[0]


#: The planes span{e_a, e_b} of the reported sectional curvatures k_ab.
_PLANES = tuple((np.eye(DIM)[a], np.eye(DIM)[b]) for a, b in ((0, 1), (0, 2), (1, 2)))


def _analyze_chunk(chunk: list[ModelPoint], tol: float) -> list[PointAnalysis]:
    """The pipeline at the points of one chunk, each stage called once for
    all of them; then each point's analysis is sliced out."""
    s = STANDARD
    try:
        jet = immerse(chunk)
        fc = orthonormal_frame(jet, chunk[0].spec.signature)
        sf = bracket_field(fc)
        conn = frame.koszul(sf)

        f = classifier.fundamental_tensor(conn, s)
        lee = classifier.lee_forms(f)
        decomp = classifier.class_components(f, lee)
        labels = classifier.classify(decomp, classifier.classification_tol(f))

        n_f = nijenhuis.nijenhuis_from_F(f, s)
        hn_f = nijenhuis.assoc_nijenhuis_from_F(f, s)
        n_d, hn_d = nijenhuis.nijenhuis_direct(conn, sf, s)

        r4 = frame.curvature(conn, sf)
        rho = tensors.contract_metric(r4)
        rho_star = tensors.contract_metric(r4, s.phi)
        kappa = np.array([p.spec.kappa(p.r) for p in chunk])

        fs1, fs2 = classifier.f_symmetry_residuals(f, s)
        rsym = tensors.curvature_symmetry_residuals(r4)
        refs = [model_reference(p) for p in chunk]
        # axioms checked against the true frame Gram metric, not the idealized identity
        gram = fc.a @ fc.metric @ np.swapaxes(fc.a, -1, -2)
        s_at_p = AprStructure(phi=s.phi, xi=s.xi, eta=s.eta, metric=gram)
        residuals = {
            "on_sphere": [sphere_residual(p, z) for p, z in zip(chunk, jet.value)],
            "frame_gram": fc.gram_defect(),
            "structure_axioms": verify_axioms(s_at_p).worst,
            "bracket_vs_closed_form": max_abs(sf.c - np.stack([ref.c for ref in refs]), 3),
            "bracket_deriv_vs_closed_form": max_abs(sf.dc - np.stack([ref.dc for ref in refs]), 4),
            "jacobi_identity": frame.jacobi_residual(sf),
            "connection_metric": conn.metric_defect(),
            "connection_torsion": conn.torsion_defect(sf),
            "f_symmetry_first": fs1,
            "f_symmetry_second": fs2,
            "lee_omega_0": np.abs(lee.omega[:, 0]),
            "lee_theta1_plus_thetastar2": np.abs(lee.theta[:, 1] + lee.theta_star[:, 2]),
            "lee_theta2_plus_thetastar1": np.abs(lee.theta[:, 2] + lee.theta_star[:, 1]),
            "nabla_eta_relation": classifier.check_nabla_eta_relation(conn, f, s),
            "class_decomposition": decomp.residual,
            "nijenhuis_cross_route": max_abs(n_f - n_d, 3),
            "assoc_nijenhuis_cross_route": max_abs(hn_f - hn_d, 3),
            "curvature_symmetries": functools.reduce(np.maximum, rsym.values()),
            "ricci_symmetry": tensors.symmetry_defect(rho),
            "space_form": frame.space_form_residual(r4, kappa),
        }
        tau = [tensors.trace2(t) for t in rho]
        tau_star = [tensors.trace2(t) for t in rho_star]
        k = [frame.sectional(r4, x, y) for x, y in _PLANES]
        d_eta = frame.d_eta(conn)
        nabla_xi_xi = frame.nabla_xi_xi(conn)
    except (ValueError, ArithmeticError, RuntimeWarning):
        # RuntimeWarning is raised only where warnings are errors; a batched
        # stage meets one point's overflow before another point's error
        if len(chunk) == 1:
            raise
        return [a for p in chunk for a in _analyze_chunk([p], tol)]

    out = []
    for n, p in enumerate(chunk):
        res = {name: float(v[n]) for name, v in residuals.items()}
        out.append(
            PointAnalysis(
                structure=s,
                field=frame.StructureField(c=sf.c[n], dc=sf.dc[n]),
                connection=frame.ConnectionCoeffs(gamma=conn.gamma[n], dgamma=conn.dgamma[n]),
                f=f[n],
                lee=classifier.LeeForms(
                    theta=lee.theta[n], theta_star=lee.theta_star[n], omega=lee.omega[n]
                ),
                decomposition=classifier.FDecomposition(
                    components={sid: t[n] for sid, t in decomp.components.items()},
                    params={key: float(v[n]) for key, v in decomp.params.items()},
                    residual=res["class_decomposition"],
                ),
                label=labels[n],
                nijenhuis=n_f[n],
                assoc_nijenhuis=hn_f[n],
                curvature=r4[n],
                ricci=rho[n],
                ricci_star=rho_star[n],
                tau=tau[n],
                tau_star=tau_star[n],
                k=tuple(float(kab[n]) for kab in k),
                kappa=float(kappa[n]),
                d_eta=d_eta[n],
                nabla_xi_xi=nabla_xi_xi[n],
                reference=refs[n],
                residuals=res,
                status="PASS" if max(res.values()) <= tol else "FAIL",
            )
        )
    return out


def _entries(name: str, t: np.ndarray) -> dict[str, float]:
    """Nonzero components keyed like R_0101, in index order."""
    out = {}
    for idx in np.ndindex(t.shape):
        v = float(t[idx])
        if abs(v) > REPORT_EPS:
            out[f"{name}_" + "".join(str(i) for i in idx)] = v
    return out


def _class_names(label) -> list[str]:
    return [f"F{s}" for s in label.classes]


def classify_report(p: ModelPoint, tol: float) -> dict:
    a = analyze_point(p, tol)
    return {
        "command": "classify",
        "model": p.model,
        "r": p.r,
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
    k01, k02, k12 = a.k
    return {
        "command": "curvature",
        "model": p.model,
        "r": p.r,
        "point": [float(x) for x in p.u],
        "curvature_components": _entries("R", a.curvature),
        "ricci": _entries("rho", a.ricci),
        "ricci_star": _entries("rho_star", a.ricci_star),
        "tau": a.tau,
        "tau_star": a.tau_star,
        "k_01": k01,
        "k_02": k02,
        "k_12": k12,
        "kappa": a.kappa,
        "space_form_residual": a.residuals["space_form"],
        "status": a.status,
    }


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _verify_checks(p: ModelPoint, a: PointAnalysis, tol: float) -> dict[str, float]:
    """All identity residuals at one point, including closed-form targets."""
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
    if p.model == "s1":
        # N = -d eta (x) xi on this model
        checks["n_plus_deta_xi"] = max_abs(
            a.nijenhuis + np.einsum("ij,k->ijk", a.d_eta, a.structure.eta)
        )
    else:
        checks["d_eta_zero"] = max_abs(a.d_eta)
        checks["nabla_xi_xi_zero"] = max_abs(a.nabla_xi_xi)
    return checks


def run_verify(model: str, r: float, samples: int, seed: int, tol: float) -> dict:
    """Evaluate every identity at seeded sample points; PASS iff all within tol."""
    points = sample_points(model, samples, seed, r=r)
    worst: dict[str, float] = {}
    for chunk in _chunked(points):
        for p, a in zip(chunk, _analyze_chunk(chunk, tol)):
            for name, value in _verify_checks(p, a, tol).items():
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


def _format_float(x) -> str:
    return format(float(x), ".17g")


def format_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return _format_float(x)
    return str(x)


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{_json_escape(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    return _json_escape(str(obj))


def _leaves(obj, sep: str, prefix: str = ""):
    """Yield (dotted key, formatted value) pairs in report order.

    A list of scalars is one value, joined by `sep`; an empty dict yields
    the value None.
    """
    if isinstance(obj, dict):
        if not obj:
            yield prefix, None
        for k, v in obj.items():
            yield from _leaves(v, sep, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            yield prefix, "[" + sep.join(format_scalar(v) for v in obj) + "]"
        else:
            for n, v in enumerate(obj):
                yield from _leaves(v, sep, f"{prefix}[{n}]")
    else:
        yield prefix, format_scalar(obj)


def render_text(obj) -> str:
    """Flat key = value lines for human reading; an empty dict is a blank line."""
    return "\n".join("" if v is None else f"{k} = {v}" for k, v in _leaves(obj, ", "))


SWEEP_COLUMNS = [
    "model",
    "r",
    "u0",
    "u1",
    "u2",
    "status",
    "warning",
    "classes",
    "is_f0",
    "class_residual",
    "theta_0",
    "theta_1",
    "theta_2",
    "theta_star_0",
    "omega_1",
    "omega_2",
    "lam",
    "mu",
    "nu",
    "tau",
    "tau_star",
    "k_01",
    "k_02",
    "k_12",
    "space_form_residual",
    "R_0101",
    "R_0202",
    "R_1212",
    "rho_00",
    "rho_11",
    "rho_22",
    "rho_star_12",
    "max_residual",
]


def _csv_field(v) -> str:
    s = v if isinstance(v, str) else format_scalar(v)
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def render_csv(report: dict) -> str:
    """One header line of dotted keys and one line of values."""
    pairs = [(k, v) for k, v in _leaves(report, "; ") if v is not None]
    header = ",".join(_csv_field(k) for k, _ in pairs)
    values = ",".join(_csv_field(v) for _, v in pairs)
    return header + "\n" + values


def sweep_rows(model: str, r: float, grid: Iterable, tol: float) -> list[dict]:
    """One row per grid point u, in order; domain violations are reported,
    not raised.

    In-domain points are analysed CHUNK at a time, and each row keeps only
    its own fields, so no analysis outlives its chunk.
    """
    rows: list[dict] = []
    pending: list[tuple[dict, ModelPoint]] = []

    def flush():
        for (row, _), a in zip(pending, analyze_points([p for _, p in pending], tol)):
            row.update(_sweep_fields(a))
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


def _sweep_fields(a: PointAnalysis) -> dict:
    k01, k02, k12 = a.k
    row = {
        "status": a.status,
        "warning": "",
        "classes": "+".join(_class_names(a.label)),
        "is_f0": a.label.is_f0,
        "class_residual": a.residuals["class_decomposition"],
    }
    for key in ("theta_0", "theta_1", "theta_2", "theta_star_0", "omega_1", "omega_2", "lam", "mu", "nu"):
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


def render_sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_field(row.get(col, "")) for col in SWEEP_COLUMNS))
    return "\n".join(lines)
