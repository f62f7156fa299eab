import math

import numpy as np
import pytest

from conftest import pipeline
from paraframe.classifier import (
    ADMISSIBLE_CLASSES,
    check_nabla_eta_relation,
    class_components,
    classification_tol,
    classify,
    f_symmetry_residuals,
    fundamental_tensor,
    lee_forms,
)
from paraframe.frame import StructureField, koszul
from paraframe.tensors import max_abs

LN2 = math.log(2.0)
QUARTER = math.pi / 4


def flat_connection():
    zero = StructureField(c=np.zeros((3, 3, 3)), dc=np.zeros((3, 3, 3, 3)))
    return koszul(zero)


def test_fundamental_tensor_s1():
    ctx = pipeline("s1", 1.0, [0.3, QUARTER, 1.1])
    assert ctx.f[0, 0, 2] == pytest.approx(1.0, abs=1e-12)
    assert ctx.f[0, 2, 0] == pytest.approx(1.0, abs=1e-12)
    assert ctx.f[2, 1, 1] == pytest.approx(2.0, abs=1e-12)
    assert ctx.f[2, 2, 2] == pytest.approx(-2.0, abs=1e-12)


def test_fundamental_tensor_s2():
    ctx = pipeline("s2", 1.0, [LN2, 0.4, 0.9])
    assert ctx.f[1, 0, 2] == pytest.approx(-5.0 / 3.0, abs=1e-12)
    assert ctx.f[1, 2, 0] == pytest.approx(-5.0 / 3.0, abs=1e-12)
    assert ctx.f[2, 0, 1] == pytest.approx(-3.0 / 5.0, abs=1e-12)
    assert ctx.f[2, 1, 0] == pytest.approx(-3.0 / 5.0, abs=1e-12)


def test_fundamental_tensor_flat():
    f = fundamental_tensor(flat_connection())
    assert max_abs(f) == 0.0


def test_f_symmetries_hold_on_models():
    for model, u in (("s1", [0.3, 0.8, 1.1]), ("s2", [-0.7, 2.0, 0.5])):
        ctx = pipeline(model, 1.3, u)
        r1, r2 = f_symmetry_residuals(ctx.f)
        assert r1 <= 1e-9
        assert r2 <= 1e-9


def test_f_symmetry_detects_perturbation():
    ctx = pipeline("s1", 1.0, [0.3, 0.8, 1.1])
    f = np.array(ctx.f)
    f[0, 1, 2] += 1.0
    r1, _ = f_symmetry_residuals(f)
    assert r1 == pytest.approx(1.0, abs=1e-9)


def test_lee_forms_s1():
    ctx = pipeline("s1", 1.0, [0.3, QUARTER, 1.1])
    lee = lee_forms(ctx.f)
    assert lee.theta[2] == pytest.approx(-2.0, abs=1e-12)
    assert lee.omega[2] == pytest.approx(1.0, abs=1e-12)
    for value in (lee.theta[0], lee.theta_star[0], lee.theta[1], lee.omega[1]):
        assert abs(value) <= 1e-12


def test_lee_forms_s2():
    ctx = pipeline("s2", 1.0, [LN2, 0.4, 0.9])
    lee = lee_forms(ctx.f)
    assert lee.theta_star[0] == pytest.approx(-34.0 / 15.0, abs=1e-12)


def test_lee_forms_zero():
    lee = lee_forms(np.zeros((3, 3, 3)))
    assert max_abs(lee.theta) == max_abs(lee.theta_star) == max_abs(lee.omega) == 0.0


def test_lee_invariants_on_models(batches):
    for batch in batches.values():
        for item in batch:
            res = item["a"].residuals
            assert res["lee_omega_0"] <= 1e-9
            assert res["lee_theta1_plus_thetastar2"] <= 1e-9
            assert res["lee_theta2_plus_thetastar1"] <= 1e-9


def test_class_components_s1():
    ctx = pipeline("s1", 2.0, [0.3, 0.6, 1.1])
    lee = lee_forms(ctx.f)
    d = class_components(ctx.f, lee)
    assert set(d.components) == set(ADMISSIBLE_CLASSES)
    assert d.residual <= 1e-12
    tan, cot = math.tan(0.6), 1.0 / math.tan(0.6)
    assert d.components[1][2, 1, 1] == pytest.approx(2.0 * tan / 2.0, abs=1e-12)
    assert d.components[1][2, 2, 2] == pytest.approx(-2.0 * tan / 2.0, abs=1e-12)
    assert d.components[11][0, 0, 2] == pytest.approx(cot / 2.0, abs=1e-12)
    for s in (4, 5, 8, 9, 10):
        assert max_abs(d.components[s]) <= 1e-12


def test_class_components_s2():
    ctx = pipeline("s2", 1.0, [LN2, 0.4, 0.9])
    d = class_components(ctx.f, lee_forms(ctx.f))
    assert d.residual <= 1e-12
    assert d.params["mu"] == pytest.approx(0.5 * (3.0 / 5.0 - 5.0 / 3.0), abs=1e-12)
    for s in (1, 4, 8, 10, 11):
        assert max_abs(d.components[s]) <= 1e-12
    assert max_abs(d.components[5]) > 0.1
    assert max_abs(d.components[9]) > 0.1


def test_class_components_zero():
    d = class_components(np.zeros((3, 3, 3)), lee_forms(np.zeros((3, 3, 3))))
    assert d.residual == 0.0
    assert all(max_abs(t) == 0.0 for t in d.components.values())


def test_classify_models():
    ctx1 = pipeline("s1", 1.0, [0.3, 0.8, 1.1])
    d1 = class_components(ctx1.f, lee_forms(ctx1.f))
    assert classify(d1, classification_tol(ctx1.f)).classes == (1, 11)

    ctx2 = pipeline("s2", 1.0, [0.7, 0.4, 0.9])
    d2 = class_components(ctx2.f, lee_forms(ctx2.f))
    assert classify(d2, classification_tol(ctx2.f)).classes == (5, 9)


def test_classify_zero_is_f0():
    d = class_components(np.zeros((3, 3, 3)), lee_forms(np.zeros((3, 3, 3))))
    label = classify(d, 1e-8)
    assert label.is_f0
    assert label.classes == ()
    assert label.name == "F0"


def test_classify_rejects_invalid_f():
    f = np.zeros((3, 3, 3))
    f[0, 0, 0] = 1.0  # no admissible component has a (0,0,0) entry
    d = class_components(f, lee_forms(f))
    assert d.residual == pytest.approx(1.0)
    with pytest.raises(ValueError, match="admissible"):
        classify(d, 1e-8)


def test_classify_scale_robust():
    for model, expected in (("s1", (1, 11)), ("s2", (5, 9))):
        labels = []
        for r in (0.5, 1.0, 2.0, 10.0):
            u = [0.3, 0.8, 1.1] if model == "s1" else [0.8, 0.3, 1.1]
            ctx = pipeline(model, r, u)
            d = class_components(ctx.f, lee_forms(ctx.f))
            labels.append(classify(d, classification_tol(ctx.f)).classes)
        assert all(lab == expected for lab in labels)


def test_batched_classify_is_each_points_own():
    # combinations of the s1 (F1 + F11) and s2 (F5 + F9) tensors, zero
    # included, give four class patterns; each point's label is its own, and
    # points of one pattern share one label
    f1 = pipeline("s1", 1.0, [0.3, 0.8, 1.1]).f
    f2 = pipeline("s2", 1.0, [0.7, 0.4, 0.9]).f
    weights = [(1.0, 0.0), (0.0, 2.0), (0.5, -1.5), (0.0, 0.0), (3.0, 0.0), (0.0, 0.0),
               (1e-3, 1e3), (-2.0, 0.0)]
    f = np.array([a * f1 + b * f2 for a, b in weights])
    d = class_components(f, lee_forms(f))
    labels = classify(d, classification_tol(f))
    own = [classify(class_components(fn, lee_forms(fn)), classification_tol(fn)) for fn in f]
    assert labels == own
    assert {label.classes for label in labels} == {(1, 11), (5, 9), (1, 5, 9, 11), ()}
    assert labels[0] is labels[4] is labels[7] and labels[3] is labels[5]


def test_nabla_eta_relation_models():
    for model, u in (("s1", [0.3, 0.8, 1.1]), ("s2", [-1.2, 2.0, 0.5])):
        ctx = pipeline(model, 1.0, u)
        assert check_nabla_eta_relation(ctx.conn, ctx.f) <= 1e-9


def test_nabla_eta_relation_detects_perturbation():
    ctx = pipeline("s1", 1.0, [0.3, 0.8, 1.1])
    f = np.array(ctx.f)
    f[0, 1, 0] += 0.5
    assert check_nabla_eta_relation(ctx.conn, f) == pytest.approx(0.5, abs=1e-9)


def test_decomposition_residual_on_models(batches):
    for batch in batches.values():
        for item in batch:
            assert item["a"].residuals["class_decomposition"] <= 1e-9
