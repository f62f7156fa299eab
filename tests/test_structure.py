import numpy as np
import pytest

from paraframe.structure import ETA, PHI, XI, verify_axioms

E = np.eye(3)


def test_structure_constants_components():
    assert np.array_equal(PHI[:, 1], E[2])  # phi e1 = e2
    assert np.array_equal(PHI[:, 2], E[1])  # phi e2 = e1
    assert np.array_equal(PHI[:, 0], np.zeros(3))
    assert np.array_equal(XI, E[0]) and np.array_equal(ETA, E[0])
    assert np.trace(PHI) == 0.0
    for t in (PHI, XI, ETA):
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 2.0


def test_axioms_pass_exactly():
    rep = verify_axioms(E)
    assert all(v <= 1e-12 for v in rep.values())
    assert max(rep.values()) == 0.0
    assert [k for k, v in rep.items() if v > 1e-12] == []


def test_axioms_catch_a_metric_phi_does_not_preserve():
    g = np.diag([1.0, 2.0, 1.0])  # |e1| != |phi e1|
    rep = verify_axioms(g)
    assert rep["metric_compat"] == 1.0
    assert max(v for k, v in rep.items() if k != "metric_compat") == 0.0


def test_phi_apply():
    assert np.array_equal(PHI @ E[2], E[1])
    assert np.array_equal(PHI @ XI, np.zeros(3))
    assert np.array_equal(PHI @ (E[1] + E[2]), E[1] + E[2])


def test_phi_squared_on_basis():
    for i in range(3):
        x = E[i]
        lhs = PHI @ (PHI @ x)
        rhs = x - float(ETA @ x) * XI
        assert np.array_equal(lhs, rhs)


def test_metric_compatibility_randomized():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        px, py = PHI @ x, PHI @ y
        lhs = px @ py
        rhs = x @ y - (ETA @ x) * (ETA @ y)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
