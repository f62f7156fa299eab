import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import curved, pipeline, skew
from paraframe.hypersurface import (
    EUCLIDEAN,
    PointBatch,
    bracket_field,
    evaluate_immersion,
    immerse,
    orthonormal_frame,
    sample_points,
)
from paraframe.jets import partials
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
from paraframe.report import _analyze_field
from paraframe.tensors import max_abs
from points import analyze_point, point

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


def _gauss_curvature(jet, sig, a) -> np.ndarray:
    """-eps (h_ik h_jl - h_il h_jk) on the frame rows a: the Gauss equation,
    with h the second fundamental form of the unit normal n, <n, n> = eps."""
    w = sig.weights
    # signed 3x3 minors of the tangent rows: m . d_i z = 0, so w m is <,>-normal
    n = w * np.stack(
        [(-1) ** b * np.linalg.det(np.delete(jet.d1, b, axis=-1)) for b in range(4)], axis=-1
    )
    nn = np.einsum("...b,b,...b->...", n, w, n)
    n = n / np.sqrt(np.abs(nn))[..., None]
    d2 = np.moveaxis(partials(jet.coords, 2), (0, 1), (-3, -2))
    h = a @ np.einsum("...ijb,b,...b->...ij", d2, w, n) @ np.swapaxes(a, -1, -2)
    hh = np.einsum("...ik,...jl->...ijkl", h, h)
    return -np.sign(nn)[..., None, None, None, None] * (hh - np.swapaxes(hh, -1, -2))


def _gauss_cases():
    for model in ("s1", "s2"):
        for r in (1e-3, 1.0, 1e4):
            points = sample_points(model, 40, 7, r=r)
            yield pytest.param(immerse(PointBatch.of(points)), points[0].spec.signature, id=f"{model}-r{r:g}")
    u = np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, 3))
    for coords in (curved, skew):
        yield pytest.param(evaluate_immersion(coords, u), EUCLIDEAN, id=coords.__name__)


@pytest.mark.parametrize("jet, sig", _gauss_cases())
def test_curvature_is_the_gauss_equation(jet, sig):
    # an oracle from the ambient second derivatives alone: no frame brackets
    fc = orthonormal_frame(jet, sig)
    sf = bracket_field(fc)
    r4 = curvature(koszul(sf), sf)
    scale = max_abs(r4)
    assert scale > 0.0
    assert max_abs(r4 - _gauss_curvature(jet, sig, fc.a)) <= 1e-10 * scale


coefficient = st.floats(-1.0, 1.0)
#: a sin(w . u + c) or a cos(w . u + c), and a u_i u_j or a u_i u_j u_k
trig_term = st.tuples(
    st.sampled_from(("sin", "cos")), coefficient, st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.floats(-3.0, 3.0),
)
monomial = st.tuples(
    st.just("mono"), coefficient, st.lists(st.integers(0, 2), min_size=2, max_size=3)
)


def _height(terms, v):
    """The sum of the drawn terms at the jets v."""
    total = 0.0
    for kind, a, *rest in terms:
        if kind == "mono":
            term = a
            for i in rest[0]:
                term = term * v[i]
        else:
            w, c = rest
            arg = w[0] * v[0] + w[1] * v[1] + w[2] * v[2] + c
            term = a * (arg.sin() if kind == "sin" else arg.cos())
        total = total + term
    return total


@given(
    terms=st.lists(st.one_of(trig_term, monomial), min_size=1, max_size=5),
    u=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
# subnormal curvature, max|R| 2.3e-315 and 3.2e-315: a one-ulp residual
@example(terms=[("sin", 2.225073858507e-311, (0.0, 0.0, 1.0), 1.0),
                ("mono", 6.103515625e-05, [1, 1])], u=[(0.0, 1.0, 0.0)])
@example(terms=[("mono", 5.643621157721663e-158, [0, 1])], u=[(0.0, 0.0, 0.0)])
def test_drawn_graphs_obey_the_gauss_equation(terms, u):
    # z = (u0, u1, u2, f(u)) in Euclidean 4-space, f a drawn trig and
    # polynomial sum: an immersion that is no model and, in general, curved
    jet = evaluate_immersion(lambda v: [v[0], v[1], v[2], _height(terms, v)], np.array(u))
    fc = orthonormal_frame(jet, EUCLIDEAN)
    sf = bracket_field(fc)
    r4 = curvature(koszul(sf), sf)
    scale = max_abs(r4)
    # R = e(Gamma) + Gamma Gamma, from dc and c c: where it is a near-total
    # cancellation of those (a graph over one direction is flat), its
    # rounding error is of their size, not of max|R|
    assume(scale > 1e-4 * max(max_abs(sf.dc), max_abs(sf.c) ** 2))
    # below the normal range 1e-10 * scale underflows, so floor the scale there
    bound = 1e-10 * max(scale, np.finfo(float).tiny)
    assert max_abs(r4 - _gauss_curvature(jet, EUCLIDEAN, fc.a)) <= bound


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_user_fields_reject_non_finite(bad):
    c, dc = np.zeros((2, 3, 3, 3)), np.zeros((2, 3, 3, 3, 3))
    c[1, 0, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        StructureField(c=c, dc=dc)
    with pytest.raises(ValueError, match="non-finite"):
        ConnectionCoeffs(gamma=c, dgamma=dc)


def _read_only_all_the_way(a: np.ndarray) -> bool:
    """a, and every array whose memory it views, is read-only."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


def test_point_fields_are_frozen():
    # a point's field and connection are frozen copies of the checked batch's rows
    points = sample_points("s1", 3, seed=5)
    sf = bracket_field(orthonormal_frame(immerse(PointBatch.of(points)), EUCLIDEAN))
    conn = koszul(sf)
    for n, p in enumerate(points):
        a = analyze_point(p, 1e-9)
        arrays = (a.field.c, a.field.dc, a.connection.gamma, a.connection.dgamma,
                  sf.c[n], sf.dc[n], conn.gamma[n], conn.dgamma[n])
        assert all(_read_only_all_the_way(x) for x in arrays)
        assert np.array_equal(sf.dc[n], a.field.dc)
        assert np.array_equal(conn.gamma[n], a.connection.gamma)


#: Milnor triples (lam0, lam1, lam2): [e1, e2] = lam0 e0, [e2, e0] = lam1 e1,
#: [e0, e1] = lam2 e2, with the class the pipeline must give where pinned.
MILNOR = {
    (1.0, 1.0, 1.0): "F8 + F10",  # SU(2) with its round metric
    (1.0, 1.0, 0.0): "F4 + F8",
    (2.0, 3.0, 5.0): "F4 + F8 + F10",
    (0.0, 0.0, 0.0): "F0",
    (1.0, -1.0, 0.0): None,
    (0.3, 1.7, -2.2): None,
    (math.pi, math.e, math.sqrt(2.0)): None,
    (1.0 / 3.0, -5.0 / 7.0, 0.9): None,
}


def test_milnor_frames_through_the_tail():
    # constant structure constants of a left-invariant frame on a unimodular
    # 3-dim Lie group: the tail needs no hypersurface, and Milnor (Adv. Math.
    # 21, 1976) gives its Ricci tensor, diagonal with rho_ii = 2 mu_j mu_k
    lam = np.array(list(MILNOR))
    c = np.zeros((len(lam), 3, 3, 3))
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        c[:, i, j, k] = lam[:, k]
        c[:, j, i, k] = -lam[:, k]
    sf = StructureField(c=c, dc=np.zeros((len(lam), 3, 3, 3, 3)))
    # kappa and the references are placeholders: no closed form reads them here
    batch = _analyze_field(sf, np.zeros(len(lam)), [None] * len(lam), {}, 1e-9)
    mu = lam.sum(axis=1, keepdims=True) / 2.0 - lam
    for n, (triple, name) in enumerate(MILNOR.items()):
        a = point(batch, n)
        rho = np.diag([2.0 * mu[n, (i + 1) % 3] * mu[n, (i + 2) % 3] for i in range(3)])
        assert max_abs(a.ricci - rho) <= 1e-15 * max(1.0, max_abs(lam[n]) ** 2), triple
        if name is not None:
            assert a.label.name == name, triple
