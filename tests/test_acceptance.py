"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its criterion holds; tolerances are
pinned here and nowhere else.  The shared 100-point batches (seed 42) come
from conftest.
"""

import math
import subprocess
import sys

import numpy as np

from conftest import N_POINTS, SEED, pipeline
from paraframe.classifier import classification_tol
from paraframe.frame import d_eta, nabla_xi_xi
from paraframe.hypersurface import immerse, orthonormal_frame
from paraframe.structure import verify_axioms
from paraframe.tensors import kulkarni_nomizu, max_abs
from points import analyze_point

TOL = 1e-9
JET_TOL = 1e-10
REL_TOL = 1e-8


def announce(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def u1_samples(model: str, count: int) -> list[float]:
    """u1 values spread over every branch/quadrant of the model domain."""
    if model == "s1":
        per = count // 4
        return [
            q * math.pi / 2 + x
            for q in range(4)
            for x in np.linspace(0.15, math.pi / 2 - 0.15, per)
        ]
    half = count // 2
    return [s * x for s in (1.0, -1.0) for x in np.linspace(0.15, 2.5, half)]


def test_criterion_01_structure_axioms(batches):
    worst = 0.0
    for model, batch in batches.items():
        for item in batch:
            p = item["point"]
            fc = orthonormal_frame(immerse(p), p.spec.signature)
            gram = np.einsum("...ik,...kl,...jl->...ij", fc.a, fc.metric, fc.a)  # as the pipeline
            point_worst = max(verify_axioms(gram).values())
            # the pipeline's residual is the same number, bit for bit
            assert item["a"].residuals["structure_axioms"].hex() == float(point_worst).hex()
            worst = max(worst, point_worst)
    assert worst <= TOL
    announce(1, f"structure axioms hold at {N_POINTS} points per model "
                f"(max residual {worst:.2e} <= {TOL})")


def test_criterion_02_connection_s1():
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for u1 in u1_samples("s1", 20):
            ctx = pipeline("s1", r, [0.4, u1, 2.2])
            cot, tan = math.cos(u1) / math.sin(u1), math.tan(u1)
            expected = np.zeros((3, 3, 3))
            expected[0, 0, 1] = -cot / r
            expected[0, 1, 0] = cot / r
            expected[2, 1, 2] = -tan / r
            expected[2, 2, 1] = tan / r
            worst = max(worst, max_abs(ctx.conn.gamma - expected))
    assert worst <= TOL
    announce(2, f"s1 connection matches closed forms, unlisted components vanish "
                f"(max residual {worst:.2e})")


def test_criterion_03_connection_s2():
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for u1 in u1_samples("s2", 20):
            ctx = pipeline("s2", r, [u1, 0.4, -0.8])
            coth, tanh = math.cosh(u1) / math.sinh(u1), math.tanh(u1)
            expected = np.zeros((3, 3, 3))
            expected[1, 0, 1] = coth / r
            expected[1, 1, 0] = -coth / r
            expected[2, 0, 2] = tanh / r
            expected[2, 2, 0] = -tanh / r
            worst = max(worst, max_abs(ctx.conn.gamma - expected))
    assert worst <= TOL
    announce(3, f"s2 connection matches closed forms on both branches "
                f"(max residual {worst:.2e})")


def test_criterion_04_class_s1(s1_batch):
    worst_f = 0.0
    for item in s1_batch:
        a, ref = item["a"], item["ref"]
        worst_f = max(worst_f, max_abs(a.f - ref.f))
        assert a.label.classes == (1, 11)
        assert a.decomposition.residual <= TOL
        tol = classification_tol(a.f)
        assert max_abs(a.decomposition.components[1]) > tol
        assert max_abs(a.decomposition.components[11]) > tol
    assert worst_f <= TOL
    announce(4, f"s1 is F1+F11 with both components nonvanishing at every point "
                f"(F residual {worst_f:.2e})")


def test_criterion_05_class_s2(s2_batch):
    worst_f, worst_deta, worst_geo = 0.0, 0.0, 0.0
    for item in s2_batch:
        a, ref = item["a"], item["ref"]
        worst_f = max(worst_f, max_abs(a.f - ref.f))
        assert a.label.classes == (5, 9)
        assert a.decomposition.residual <= TOL
        worst_deta = max(worst_deta, max_abs(d_eta(a.connection)))
        worst_geo = max(worst_geo, max_abs(nabla_xi_xi(a.connection)))
    assert worst_f <= TOL
    assert worst_deta <= TOL
    assert worst_geo <= TOL
    announce(5, f"s2 is F5+F9 with closed eta and geodesic Reeb curves "
                f"(F {worst_f:.2e}, d eta {worst_deta:.2e}, nabla_xi xi {worst_geo:.2e})")


def test_criterion_06_nijenhuis(batches):
    worst_cross, worst_ref = 0.0, 0.0
    for batch in batches.values():
        for item in batch:
            a, ref = item["a"], item["ref"]
            worst_cross = max(
                worst_cross,
                a.residuals["nijenhuis_cross_route"],
                a.residuals["assoc_nijenhuis_cross_route"],
            )
            worst_ref = max(
                worst_ref,
                max_abs(a.nijenhuis - ref.nijenhuis),
                max_abs(a.assoc_nijenhuis - ref.assoc_nijenhuis),
            )
    assert worst_cross <= TOL
    assert worst_ref <= TOL
    announce(6, f"Nijenhuis tensors: route agreement {worst_cross:.2e}, "
                f"closed-form match {worst_ref:.2e}")


def test_criterion_07_curvature_scalars():
    def check(value, target):
        assert abs(value - target) <= REL_TOL * max(1.0, abs(target))

    for r in (0.5, 1.0, 2.0):
        for model, sign in (("s1", 1.0), ("s2", -1.0)):
            u = [0.4, 0.9, 2.2] if model == "s1" else [0.9, 0.4, 2.2]
            rep = analyze_point(pipeline(model, r, u).p, TOL)
            check(rep.tau, sign * 6.0 / r**2)
            check(rep.tau_star, 0.0)
            for k in rep.k:
                check(k, sign / r**2)
            assert (rep.tau > 0) == (model == "s1")
    announce(7, "curvature scalars tau, tau*, k_ij match the closed forms "
                f"for r in (0.5, 1, 2) at relative tolerance {REL_TOL}")


def test_criterion_08_space_form(batches):
    worst = 0.0
    eye = np.eye(3)
    for model, batch in batches.items():
        sign = -1.0 if model == "s1" else 1.0
        for item in batch:
            r4 = item["a"].curvature
            rr = item["point"].r
            gg = kulkarni_nomizu(eye, eye)
            worst = max(worst, max_abs(r4 - sign / (2.0 * rr**2) * gg))
    assert worst <= TOL
    announce(8, f"space-form identities R = -/+ (1/2r^2) g^g hold "
                f"(max residual {worst:.2e})")


def test_criterion_09_jet_vs_closed_form(batches):
    worst = 0.0
    for batch in batches.values():
        for item in batch:
            sf = item["a"].field
            ref = item["ref"]
            worst = max(worst, max_abs(sf.c - ref.c), max_abs(sf.dc - ref.dc))
    assert worst <= JET_TOL
    announce(9, f"jet pipeline matches hand-differentiated closed forms "
                f"including derivatives (max residual {worst:.2e} <= {JET_TOL})")


def test_criterion_10_property_suite(batches):
    names = (
        "curvature_symmetries",
        "f_symmetry_first",
        "f_symmetry_second",
        "lee_omega_0",
        "lee_theta1_plus_thetastar2",
        "lee_theta2_plus_thetastar1",
        "nabla_eta_relation",
    )
    worst = {name: 0.0 for name in names}
    for batch in batches.values():
        for item in batch:
            for name in names:
                worst[name] = max(worst[name], item["a"].residuals[name])
    for name, value in worst.items():
        assert value <= TOL, name
    announce(10, "property suite (R symmetries + Bianchi, F symmetries, Lee "
                 f"identities, nabla-eta relation) max {max(worst.values()):.2e}")


def test_criterion_11_cli_determinism():
    for model in ("s1", "s2"):
        cmd = [
            sys.executable, "-m", "paraframe",
            "verify", "--model", model,
            "--samples", str(N_POINTS), "--seed", str(SEED), "--format", "json",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, first.stdout.decode()[-2000:]
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty JSON
    announce(11, f"verify --samples {N_POINTS} --seed {SEED} exits 0 with "
                 "byte-identical JSON for both models")
