import math

import numpy as np
import pytest

from conftest import pipeline
from paraframe.frame import (
    ConnectionCoeffs,
    StructureField,
    curvature,
    d_eta,
    jacobi_residual,
    koszul,
    lie_xi_g,
    nabla_xi,
    nabla_xi_xi,
    sectional,
    space_form_residual,
)
from paraframe.tensors import max_abs

E = np.eye(3)
LN2 = math.log(2.0)


def zero_field() -> StructureField:
    return StructureField(c=np.zeros((3, 3, 3)), dc=np.zeros((3, 3, 3, 3)))


def test_koszul_s1_quarter_turn():
    ctx = pipeline("s1", 1.0, [0.3, math.pi / 4, 1.1])
    conn = ctx.conn
    assert conn.gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-12)  # nabla_e0 e0 = -e1
    assert conn.gamma[0, 1, 0] == pytest.approx(1.0, abs=1e-12)
    assert conn.gamma[2, 1, 2] == pytest.approx(-1.0, abs=1e-12)
    assert conn.gamma[2, 2, 1] == pytest.approx(1.0, abs=1e-12)


def test_koszul_s2_radius_two():
    ctx = pipeline("s2", 2.0, [LN2, 0.9, -0.4])
    assert ctx.conn.gamma[1, 1, 0] == pytest.approx(-5.0 / 6.0, abs=1e-12)


def test_koszul_zero_field():
    conn = koszul(zero_field())
    assert max_abs(conn.gamma) == 0.0
    assert max_abs(conn.dgamma) == 0.0


def test_koszul_identities_exact():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(3, 3, 3))
    c = c - np.swapaxes(c, 0, 1)
    dc = rng.normal(size=(3, 3, 3, 3))
    dc = dc - np.swapaxes(dc, 1, 2)
    conn = koszul(StructureField(c=c, dc=dc))
    assert conn.metric_defect() <= 1e-15
    assert conn.torsion_defect(StructureField(c=c, dc=dc)) <= 1e-15


def test_koszul_rejects_symmetric_part():
    c = np.zeros((3, 3, 3))
    c[0, 0, 1] = 1.0  # symmetric slot: violates bracket antisymmetry
    with pytest.raises(ValueError):
        koszul(StructureField(c=c, dc=np.zeros((3, 3, 3, 3))))


def test_curvature_s1_components():
    ctx = pipeline("s1", 1.0, [5.1, 0.9, 0.2])
    r = curvature(ctx.conn, ctx.sf)
    for idx in ((0, 1, 0, 1), (0, 2, 0, 2), (1, 2, 1, 2)):
        assert r[idx] == pytest.approx(-1.0, abs=1e-9)


def test_curvature_s2_components():
    ctx = pipeline("s2", 1.0, [0.8, 2.2, -1.0])
    r = curvature(ctx.conn, ctx.sf)
    for idx in ((0, 1, 0, 1), (0, 2, 0, 2), (1, 2, 1, 2)):
        assert r[idx] == pytest.approx(1.0, abs=1e-9)


def test_curvature_zero_connection():
    assert max_abs(curvature(koszul(zero_field()), zero_field())) == 0.0


def test_curvature_torsion_mismatch_raises():
    ctx = pipeline("s1", 1.0, [0.3, 0.7, 1.1])
    other = np.array(ctx.sf.c)
    other[0, 1, 0] += 1.0
    other[1, 0, 0] -= 1.0
    bad = StructureField(c=other, dc=np.array(ctx.sf.dc))
    with pytest.raises(ValueError, match="torsion"):
        curvature(ctx.conn, bad)


def test_sectional_values():
    ctx = pipeline("s1", 2.0, [0.3, 0.7, 1.1])
    r = curvature(ctx.conn, ctx.sf)
    assert sectional(r, E[0], E[1]) == pytest.approx(0.25, abs=1e-10)
    # basis invariance: same plane, different basis
    assert sectional(r, E[0] + E[1], E[1]) == pytest.approx(0.25, abs=1e-10)

    ctx2 = pipeline("s2", 1.0, [1.3, 0.7, 1.1])
    r2 = curvature(ctx2.conn, ctx2.sf)
    assert sectional(r2, E[1], E[2]) == pytest.approx(-1.0, abs=1e-10)


def test_sectional_basis_invariance_randomized():
    ctx = pipeline("s2", 1.5, [-0.9, 0.7, 2.1])
    r = curvature(ctx.conn, ctx.sf)
    rng = np.random.default_rng(17)
    x, y = E[0], E[2]
    k0 = sectional(r, x, y)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4)
        if abs(a * d - b * c) < 1e-3:
            continue
        k = sectional(r, a * x + b * y, c * x + d * y)
        assert k == pytest.approx(k0, abs=1e-9)


def test_sectional_degenerate_plane():
    ctx = pipeline("s1", 1.0, [0.3, 0.7, 1.1])
    r = curvature(ctx.conn, ctx.sf)
    with pytest.raises(ValueError, match="degenerate"):
        sectional(r, E[0], 2.0 * E[0])


def test_space_form_residuals():
    ctx = pipeline("s1", 1.0, [0.3, 0.7, 1.1])
    r = curvature(ctx.conn, ctx.sf)
    assert space_form_residual(r, 1.0) <= 1e-9
    assert space_form_residual(r, 0.0) == pytest.approx(1.0, abs=1e-9)

    ctx2 = pipeline("s2", 1.0, [0.6, 0.7, 1.1])
    r2 = curvature(ctx2.conn, ctx2.sf)
    assert space_form_residual(r2, -1.0) <= 1e-9


def test_nabla_xi_s2():
    ctx = pipeline("s2", 1.0, [LN2, 0.7, 1.1])
    n = nabla_xi(ctx.conn)
    assert max_abs(n - n.T) <= 1e-12
    assert n[1, 1] == pytest.approx(5.0 / 3.0, abs=1e-12)  # coth(ln 2)
    assert n[2, 2] == pytest.approx(3.0 / 5.0, abs=1e-12)  # tanh(ln 2)
    assert max_abs(nabla_xi_xi(ctx.conn)) <= 1e-12


def test_nabla_xi_s1_reeb_not_geodesic():
    ctx = pipeline("s1", 1.0, [0.3, math.pi / 4, 1.1])
    v = nabla_xi_xi(ctx.conn)
    assert v[1] == pytest.approx(-1.0, abs=1e-12)  # -cot(pi/4)
    assert max_abs(v) > 0.5


def test_nabla_xi_zero_connection():
    conn = koszul(zero_field())
    assert max_abs(nabla_xi(conn)) == 0.0
    assert max_abs(d_eta(conn)) == 0.0
    assert max_abs(lie_xi_g(conn)) == 0.0


def test_d_eta():
    ctx = pipeline("s2", 1.0, [0.9, 0.7, 1.1])
    assert max_abs(d_eta(ctx.conn)) <= 1e-12

    ctx1 = pipeline("s1", 1.0, [0.3, math.pi / 4, 1.1])
    de = d_eta(ctx1.conn)
    assert de[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert de[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_lie_xi_g():
    ctx = pipeline("s2", 1.0, [LN2, 0.7, 1.1])
    lg = lie_xi_g(ctx.conn)
    expected = np.diag([0.0, 10.0 / 3.0, 6.0 / 5.0])
    assert np.allclose(lg, expected, atol=1e-12)

    ctx1 = pipeline("s1", 1.0, [0.3, 0.7, 1.1])
    lg1 = lie_xi_g(ctx1.conn)
    cot = math.cos(0.7) / math.sin(0.7)
    assert lg1[0, 1] == pytest.approx(-cot, abs=1e-12)
    assert lg1[1, 0] == pytest.approx(-cot, abs=1e-12)
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 1] = mask[1, 0] = False
    assert max_abs(lg1[mask]) <= 1e-12


def test_jacobi_residual_models(batches):
    for batch in batches.values():
        for item in batch:
            assert item["a"].residuals["jacobi_identity"] <= 1e-9


def test_curvature_symmetries_models(batches):
    for batch in batches.values():
        for item in batch:
            assert item["a"].residuals["curvature_symmetries"] <= 1e-9
