import numpy as np

from paraframe.structure import AprStructure, standard_structure, verify_axioms

E = np.eye(3)


def test_standard_structure_components():
    s = standard_structure()
    assert np.array_equal(s.phi[:, 1], E[2])  # phi e1 = e2
    assert np.array_equal(s.phi[:, 2], E[1])  # phi e2 = e1
    assert np.array_equal(s.phi[:, 0], np.zeros(3))
    assert s.eta[0] == 1.0 and s.eta[1] == 0.0 and s.eta[2] == 0.0
    assert np.trace(s.phi) == 0.0
    assert np.array_equal(s.metric, E)


def test_axioms_pass_exactly():
    rep = verify_axioms(standard_structure())
    assert all(v <= 1e-12 for v in rep.residuals.values())
    assert rep.worst == 0.0
    assert [k for k, v in rep.residuals.items() if v > 1e-12] == []


def test_axioms_catch_bad_eta():
    s = standard_structure()
    bad = AprStructure(phi=s.phi, xi=s.xi, eta=np.array([0.0, 1.0, 0.0]), metric=s.metric)
    rep = verify_axioms(bad)
    assert rep.residuals["eta_xi"] > 1e-12


def test_axioms_catch_bad_trace():
    s = standard_structure()
    phi = np.array(s.phi)
    phi[:, 1] = E[1]  # phi e1 = e1 breaks tr phi = 0
    rep = verify_axioms(AprStructure(phi=phi, xi=s.xi, eta=s.eta, metric=s.metric))
    assert rep.residuals["trace_phi"] > 1e-12


def test_phi_apply():
    s = standard_structure()
    assert np.array_equal(s.phi @ E[2], E[1])
    assert np.array_equal(s.phi @ s.xi, np.zeros(3))
    assert np.array_equal(s.phi @ (E[1] + E[2]), E[1] + E[2])


def test_phi_squared_on_basis():
    s = standard_structure()
    for i in range(3):
        x = E[i]
        lhs = s.phi @ (s.phi @ x)
        rhs = x - float(s.eta @ x) * s.xi
        assert np.array_equal(lhs, rhs)


def test_metric_compatibility_randomized():
    s = standard_structure()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        px, py = s.phi @ x, s.phi @ y
        lhs = px @ s.metric @ py
        rhs = x @ s.metric @ y - (s.eta @ x) * (s.eta @ y)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
