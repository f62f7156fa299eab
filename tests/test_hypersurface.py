import math
import random
from itertools import product

import mpmath
import numpy as np
import pytest
import sympy

from conftest import curved, skew
from paraframe.classifier import fundamental_tensor
from paraframe.frame import StructureField, curvature, jacobi_residual, koszul
from paraframe.hypersurface import (
    EUCLIDEAN,
    LORENTZIAN,
    MODELS,
    SAMPLE_MARGIN,
    DomainError,
    FrameCoeffs,
    Jet3,
    ModelPoint,
    PointBatch,
    bracket_field,
    check_point,
    evaluate_immersion,
    immerse,
    induced_metric,
    orthonormal_frame,
    positive_definite,
    sample_points,
    sample_u,
    sphere_residual,
    structure_field,
)
from paraframe.jets import TJet, _cut, partials
from paraframe.nijenhuis import nijenhuis_from_F
from paraframe.reference import model_reference
from paraframe.report import analyze_point, run_verify
from paraframe.structure import PHI
from paraframe.tensors import contract_metric, max_abs

LN2 = math.log(2.0)


def mp(model, r, u):
    return ModelPoint(model=model, r=r, u=np.asarray(u, dtype=float))


# ---------------------------------------------------------------------------
# immersion
# ---------------------------------------------------------------------------


def test_immerse_s1_point():
    p = mp("s1", math.sqrt(2.0), [0.0, math.pi / 4, 0.0])
    jet = immerse(p)
    assert np.allclose(jet.value, [1.0, 0.0, 1.0, 0.0], atol=1e-15)
    assert sphere_residual(p, jet.value) <= 1e-12


def test_immerse_s2_point():
    p = mp("s2", 1.0, [LN2, 0.0, 0.0])
    jet = immerse(p)
    assert np.allclose(jet.value, [0.75, 0.0, 0.0, 1.25], atol=1e-15)
    w = LORENTZIAN.weights
    assert float(np.dot(w * jet.value, jet.value)) == pytest.approx(-1.0, abs=1e-14)


def test_immerse_partials_symmetric_exactly():
    jet = immerse(mp("s1", 1.0, [0.4, 0.9, 2.2]))
    d2, d3 = (np.moveaxis(partials(jet.coords, k), range(k), range(-k - 1, -1)) for k in (2, 3))
    assert max_abs(d2 - np.swapaxes(d2, 0, 1)) == 0.0
    assert max_abs(d3 - np.transpose(d3, (1, 0, 2, 3))) == 0.0


def test_domain_rejections():
    with pytest.raises(DomainError, match="pi/2"):
        mp("s1", 1.0, [0.0, math.pi / 2, 0.0])
    with pytest.raises(DomainError, match="pi/2"):
        mp("s1", 1.0, [0.0, math.pi + 1e-9, 0.0])
    with pytest.raises(DomainError):
        mp("s1", 1.0, [-0.1, 0.7, 0.0])  # u0 outside [0, 2 pi)
    with pytest.raises(DomainError):
        mp("s2", 1.0, [1e-9, 0.0, 0.0])  # u1 too close to 0
    with pytest.raises(DomainError):
        mp("s2", -1.0, [0.5, 0.0, 0.0])  # radius must be positive
    with pytest.raises(ValueError):
        mp("nope", 1.0, [0.5, 0.0, 0.0])


def test_model_point_copies_its_caller_array():
    u = np.array([0.3, 0.7, 1.1])
    p = ModelPoint("s1", 1.0, u)
    assert p.u is not u and not p.u.flags.writeable
    u[0] = 0.4  # the caller's array stays writable
    assert p.u.tolist() == [0.3, 0.7, 1.1]
    with pytest.raises(ValueError, match="read-only"):
        p.u[0] = 0.4


def test_on_sphere_everywhere():
    for model in ("s1", "s2"):
        for p in sample_points(model, 25, seed=3, r=1.7):
            assert sphere_residual(p, immerse(p).value) <= 1e-12


@pytest.mark.parametrize("model", ["s1", "s2"])
def test_batched_sphere_residual_is_each_points_own(model):
    # one np.vecdot over a batch is bitwise np.dot point by point, and r**2
    # is Python's, over 10,000 radii log-uniform in [1e-3, 1e4]
    n = 10_000
    r = np.exp(np.random.default_rng(17).uniform(math.log(1e-3), math.log(1e4), size=n))
    u = sample_u(model, n, random.Random(17))
    batch = PointBatch(model, r, u)
    z = immerse(batch).value
    got = sphere_residual(batch, z)
    spec = MODELS[model]
    w = spec.signature.weights
    want = [abs(float(np.dot(w * zn, zn)) - spec.sphere_sign * rn**2)
            for rn, zn in zip(r.tolist(), z)]
    assert got.shape == (n,)
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
    one = mp(model, r[5], u[5])
    assert type(sphere_residual(one, z[5])) is float
    assert sphere_residual(one, z[5]) == want[5]


# ---------------------------------------------------------------------------
# induced metric and frame
# ---------------------------------------------------------------------------


def test_induced_metric_s1():
    jet = immerse(mp("s1", 2.0, [0.3, math.pi / 3, 1.1]))
    g = induced_metric(jet, EUCLIDEAN)
    assert np.allclose(g, np.diag([3.0, 4.0, 1.0]), atol=1e-14)


def test_induced_metric_s2():
    jet = immerse(mp("s2", 1.0, [LN2, 0.4, 0.9]))
    g = induced_metric(jet, LORENTZIAN)
    assert np.allclose(g, np.diag([1.0, 9.0 / 16.0, 25.0 / 16.0]), atol=1e-14)


def test_induced_metric_rejects_non_riemannian():
    # d z / d u0 runs along the time-like axis
    jet = evaluate_immersion(lambda v: [0.0, v[1], v[2], v[0]], np.zeros(3))
    with pytest.raises(ValueError, match="not Riemannian"):
        induced_metric(jet, LORENTZIAN)
    with pytest.raises(ValueError, match="not Riemannian"):
        orthonormal_frame(jet, LORENTZIAN)


def _metrics(model, r, u):
    """The induced metric at each point, formed as induced_metric forms it."""
    jet = immerse(PointBatch(model, np.asarray(r, dtype=float), np.asarray(u, dtype=float)))
    return np.einsum("...ia,a,...ja->...ij", jet.d1, MODELS[model].signature.weights, jet.d1)


def test_sylvester_gate_agrees_with_eigenvalues():
    # s2 points far enough out in u3 that the computed metric loses its
    # positive definiteness to cancellation, as at u = (0.5, 1.0, 20)
    rng = random.Random(25)
    u = [(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 20.0), rng.uniform(0.0, 2.0 * math.pi),
          rng.uniform(-30.0, 30.0)) for _ in range(4000)] + [(0.5, 1.0, 20.0)]
    g = _metrics("s2", [rng.choice((0.5, 1.0, 2.0)) for _ in u], u)
    gate = positive_definite(g)
    assert np.array_equal(gate, np.all(np.linalg.eigvalsh(g) > 0.0, axis=-1))
    assert 1000 < np.count_nonzero(gate) < 3000
    assert not gate[-1]
    jet = immerse(mp("s2", 1.0, [0.5, 1.0, 20.0]))
    with pytest.raises(ValueError, match="not Riemannian"):
        induced_metric(jet, LORENTZIAN)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_sylvester_gate_passes_every_sampled_point(model):
    u = sample_u(model, 2000, random.Random(8))
    assert np.all(positive_definite(_metrics(model, np.full(len(u), 1.3), u)))


def test_sylvester_gate_fails_a_nan_and_warns_of_no_overflow():
    # np.errstate keeps an overflowing minor quiet, also where warnings are
    # errors (pytest runs with filterwarnings = error)
    g = np.array([np.eye(3), np.full((3, 3), np.nan), 1e200 * np.eye(3), -1e200 * np.eye(3)])
    assert positive_definite(g).tolist() == [True, False, True, False]


def test_frame_s1_quarter_turn():
    jet = immerse(mp("s1", 1.0, [0.3, math.pi / 4, 1.1]))
    fc = orthonormal_frame(jet, EUCLIDEAN)
    root2 = math.sqrt(2.0)
    assert np.allclose(fc.a, np.diag([root2, 1.0, root2]), atol=1e-14)
    assert np.array_equal(fc.metric, induced_metric(jet, EUCLIDEAN))
    assert max_abs(fc.a @ fc.metric @ fc.a.T - np.eye(3)) <= 1e-12


def test_frame_s2_radius_two():
    jet = immerse(mp("s2", 2.0, [LN2, 0.4, 0.9]))
    fc = orthonormal_frame(jet, LORENTZIAN)
    assert np.allclose(fc.a, np.diag([0.5, 2.0 / 3.0, 0.4]), atol=1e-14)
    assert max_abs(fc.a @ fc.metric @ fc.a.T - np.eye(3)) <= 1e-12


def test_frame_positive_in_every_quadrant():
    # the sign rule reproduces the quadrant factors: coefficients stay positive
    for quadrant in range(4):
        u1 = quadrant * math.pi / 2 + 0.6
        jet = immerse(mp("s1", 1.0, [0.3, u1, 1.1]))
        fc = orthonormal_frame(jet, EUCLIDEAN)
        assert fc.a[0, 0] == pytest.approx(1.0 / abs(math.sin(u1)), abs=1e-12)
        assert fc.a[2, 2] == pytest.approx(1.0 / abs(math.cos(u1)), abs=1e-12)
        assert max_abs(fc.a @ fc.metric @ fc.a.T - np.eye(3)) <= 1e-12


def test_gram_residual_everywhere(batches):
    for batch in batches.values():
        for item in batch:
            assert item["a"].residuals["frame_gram"] <= 1e-12


# ---------------------------------------------------------------------------
# bracket data: jet pipeline vs closed forms
# ---------------------------------------------------------------------------


def test_structure_field_s1_values():
    sf = structure_field(mp("s1", 1.0, [0.3, math.pi / 4, 1.1]))
    assert sf.c[0, 1, 0] == pytest.approx(1.0, abs=1e-12)
    assert sf.c[1, 2, 2] == pytest.approx(1.0, abs=1e-12)
    assert max_abs(sf.c[0, 2]) <= 1e-12
    # frame derivative of the bracket coefficient along e1
    assert sf.dc[1, 0, 1, 0] == pytest.approx(-2.0, abs=1e-12)


def test_structure_field_s2_values():
    sf = structure_field(mp("s2", 1.0, [LN2, 0.4, 0.9]))
    assert sf.c[0, 1, 1] == pytest.approx(-5.0 / 3.0, abs=1e-12)
    assert sf.c[0, 2, 2] == pytest.approx(-3.0 / 5.0, abs=1e-12)
    assert max_abs(sf.c[1, 2]) <= 1e-12


def test_closed_form_field_values():
    ref = model_reference(mp("s1", 2.0, [0.3, math.pi / 3, 1.1]))
    assert ref.c[0, 1, 0] == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-15)
    # coth is odd: the negative branch flips the sign
    ref2 = model_reference(mp("s2", 1.0, [-LN2, 0.4, 0.9]))
    assert ref2.c[0, 1, 1] == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_closed_form_brackets_self_consistent():
    # torsion-free gamma, antisymmetric brackets and Jacobi, without the pipeline
    for model, u in (("s1", [0.3, 2.2, 1.1]), ("s2", [-0.7, 0.4, 0.9])):
        for r in (1e-3, 0.37, 1.0, 2.0, 1e4):
            ref = model_reference(mp(model, r, u))
            assert np.array_equal(ref.gamma - np.swapaxes(ref.gamma, 0, 1), ref.c)
            field = StructureField(ref.c, ref.dc)
            assert field.antisymmetry_defect() <= 1e-12
            assert jacobi_residual(field) <= 1e-12


def test_jet_vs_closed_form_sampled():
    for model in ("s1", "s2"):
        for p in sample_points(model, 40, seed=9, r=0.8):
            sf = structure_field(p)
            ref = model_reference(p)
            assert max_abs(sf.c - ref.c) <= 1e-10
            assert max_abs(sf.dc - ref.dc) <= 1e-10


def test_bracket_field_rejects_frame_jets_below_degree_2():
    # dc needs the frame jets to degree 2; cut to degree 1 it came out wrong by 5.0
    p = mp("s1", 1.0, [0.3, 0.7, 1.1])
    fc = orthonormal_frame(immerse(p), p.spec.signature)
    low = FrameCoeffs(a=fc.a, jets=TJet(_cut(fc.jets.c, 1), 1), inverse=fc.inverse,
                      metric=fc.metric)
    with pytest.raises(ValueError, match="valid to degree 2"):
        bracket_field(low)


@pytest.mark.parametrize("coeff", [0, 3, 9])
def test_bracket_field_rejects_a_frame_not_lower_triangular(coeff):
    # the triangular sums would return a wrong field for such a frame or inverse
    p = mp("s1", 1.0, [0.3, 0.7, 1.1])
    fc = orthonormal_frame(immerse(p), p.spec.signature)
    jets = fc.jets.c.copy()
    jets[1, 2, coeff] = 1e-300
    a = fc.a.copy()
    a[0, 1] = 1e-300
    inverse = fc.inverse.c.copy()
    inverse[0, 2, coeff] = 1e-300
    for bad in (
        FrameCoeffs(a=fc.a, jets=TJet(jets, fc.jets.deg), inverse=fc.inverse, metric=fc.metric),
        FrameCoeffs(a=a, jets=fc.jets, inverse=fc.inverse, metric=fc.metric),
        FrameCoeffs(a=fc.a, jets=fc.jets, inverse=TJet(inverse, fc.inverse.deg), metric=fc.metric),
    ):
        with pytest.raises(ValueError, match="lower triangular"):
            bracket_field(bad)


def test_bracket_antisymmetry_and_jacobi(batches):
    for batch in batches.values():
        for item in batch:
            sf = item["a"].field
            assert sf.antisymmetry_defect() <= 1e-12
            assert item["a"].residuals["jacobi_identity"] <= 1e-9


# ---------------------------------------------------------------------------
# custom immersions
# ---------------------------------------------------------------------------


def test_custom_flat_immersion():
    # the constant coordinate may be a jet or a plain number
    for flat in (TJet.constant(0.0), 0.0):

        def coords(v, flat=flat):
            return [v[0], v[1], v[2], flat]

        jet = evaluate_immersion(coords, np.array([0.2, -0.4, 1.0]))
        fc = orthonormal_frame(jet, EUCLIDEAN)
        assert np.allclose(fc.a, np.eye(3), atol=1e-14)
        sf = bracket_field(fc)
        assert max_abs(sf.c) <= 1e-14
        assert max_abs(sf.dc) <= 1e-14


def test_custom_curved_immersion():
    u = np.array([0.35, 1.2, -0.7])
    jet = evaluate_immersion(curved, u)
    fc = orthonormal_frame(jet, EUCLIDEAN)
    assert max_abs(fc.a @ fc.metric @ fc.a.T - np.eye(3)) <= 1e-12
    sf = bracket_field(fc)
    assert sf.c[0, 1, 1] == pytest.approx(math.tan(0.35), abs=1e-12)
    conn = koszul(sf)
    assert conn.torsion_defect(sf) <= 1e-14


def test_custom_immersion_needs_four_coordinates():
    with pytest.raises(ValueError, match="4 ambient"):
        evaluate_immersion(lambda v: [v[0], v[1], v[2]], np.zeros(3))


def test_jet3_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_immersion(lambda v: [v[0], v[1], v[2], float("inf")], np.zeros(3))
    # a non-finite coefficient of degree 2 (index 4) or 3 (index 19) alone
    for n in (4, 19):
        c = TJet.stack([TJet.variable(i % 3, 0.5) for i in range(4)]).c
        c[3, n] = np.inf
        with pytest.raises(ValueError, match="jet has non-finite entries"):
            Jet3(TJet(c))


def test_jet3_rejects_a_lower_degree_jet():
    coords = TJet.stack([TJet.variable(i % 3, 0.5) for i in range(4)])
    with pytest.raises(ValueError, match="valid to degree 3"):
        Jet3(TJet(coords.c[..., :10], 2))


# ---------------------------------------------------------------------------
# sampling, and the immersion jet against symbolic derivatives
# ---------------------------------------------------------------------------


def test_sample_points_deterministic_and_valid():
    a = sample_points("s1", 30, seed=42)
    b = sample_points("s1", 30, seed=42)
    assert all(np.array_equal(x.u, y.u) for x, y in zip(a, b))
    quadrants = {int(p.u[1] // (math.pi / 2)) for p in a}
    assert quadrants == {0, 1, 2, 3}

    s2 = sample_points("s2", 30, seed=42)
    signs = {p.u[0] > 0 for p in s2}
    assert signs == {True, False}


def test_a_negative_seed_or_count_is_rejected():
    # random.Random(-7) draws the stream of random.Random(7)
    with pytest.raises(ValueError, match="seed must be >= 0, got -7"):
        sample_points("s1", 4, -7)
    with pytest.raises(ValueError, match="seed must be >= 0, got -7"):
        run_verify("s1", 1.0, 8, -7, 1e-9)
    with pytest.raises(ValueError, match="must be >= 0, got -3"):
        sample_points("s1", -3, 5)
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        sample_u("s2", -1, random.Random(5))
    assert sample_points("s1", 0, 0) == []
    assert sample_u("s2", 0, random.Random(5)).shape == (0, 3)


@pytest.mark.parametrize("model", ["s1", "s2"])
def test_every_draw_keeps_the_sample_margin(model):
    # 100,000 draws are all in the domain and SAMPLE_MARGIN from every
    # exclusion: s1's u1 from each multiple of pi/2, s2's u1 from 0; and s2
    # stays in its box |u1|, |u3| <= 2.5
    u = sample_u(model, 100_000, random.Random(2024))
    for row in u.tolist():
        check_point(model, 1.0, row)
    if model == "s1":
        margin = np.min(np.abs(u[:, 1:2] - math.pi / 2 * np.arange(5)), axis=1)
    else:
        margin = np.abs(u[:, 0])
        assert np.all(np.abs(u[:, [0, 2]]) <= 2.5)
    assert np.all(margin >= SAMPLE_MARGIN)


def _symbolic_coords(model: str, r, u) -> list:
    """The ambient coordinates of a model in closed form, written out apart
    from its jet evaluator."""
    if model == "s1":
        return [r * sympy.cos(u[1]) * sympy.cos(u[2]), r * sympy.cos(u[1]) * sympy.sin(u[2]),
                r * sympy.sin(u[1]) * sympy.cos(u[0]), r * sympy.sin(u[1]) * sympy.sin(u[0])]
    return [r * sympy.sinh(u[0]) * sympy.cos(u[1]), r * sympy.sinh(u[0]) * sympy.sin(u[1]),
            r * sympy.cosh(u[0]) * sympy.sinh(u[2]), r * sympy.cosh(u[0]) * sympy.cosh(u[2])]


def _symbolic_partials(model: str):
    """f(r, u0, u1, u2) -> the partials of orders 0..3 of the coordinates,
    evaluated by mpmath, each order laid out like `partials` of one point."""
    r, *u = sympy.symbols("r u0 u1 u2", real=True)
    z = _symbolic_coords(model, r, u)
    orders = [
        [[za.diff(*(u[i] for i in idx)) if k else za for za in z]
         for idx in product(range(3), repeat=k)]
        for k in range(4)
    ]
    return sympy.lambdify([r, *u], orders, modules="mpmath", cse=True)


#: Points of both models over three decades of radius: every s1 u1
#: quadrant, both s2 u1 branches, and the s2 corners |u1| = |u3| = 2.5.
SYMBOLIC_POINTS = {
    model: [p for k, r in enumerate((1e-3, 1.3, 1e4)) for p in sample_points(model, 10, k, r)]
    for model in ("s1", "s2")
}
SYMBOLIC_POINTS["s2"] += [mp("s2", 1.3, [2.5, 0.3, 2.5]), mp("s2", 1e4, [-2.5, 5.9, -2.5])]


def test_symbolic_points_cover_the_domain():
    assert {int(p.u[1] // (math.pi / 2)) for p in SYMBOLIC_POINTS["s1"]} == {0, 1, 2, 3}
    assert {p.u[0] > 0 for p in SYMBOLIC_POINTS["s2"]} == {True, False}
    assert max(abs(p.u[2]) for p in SYMBOLIC_POINTS["s2"]) == 2.5


@pytest.mark.parametrize("model", ["s1", "s2"])
def test_immersion_jet_matches_symbolic_derivatives(model):
    # every partial of orders 0..3 within 1e-14 of the largest of its order,
    # against 40-digit values of the closed-form derivatives
    f = _symbolic_partials(model)
    points = SYMBOLIC_POINTS[model]
    jet = immerse(PointBatch.of(points))
    for n, p in enumerate(points):
        with mpmath.workdps(40):
            exact = f(mpmath.mpf(p.r), *(mpmath.mpf(x) for x in p.u))
        for k in range(4):
            want = np.array([[float(x) for x in row] for row in exact[k]]).reshape((3,) * k + (4,))
            got = partials(jet.coords, k)[..., n, :]
            assert max_abs(got - want) <= 1e-14 * max_abs(want), (p.u, p.r, k)


# ---------------------------------------------------------------------------
# batched jet stages
# ---------------------------------------------------------------------------


def _bits(a) -> np.ndarray:
    # int64 view, so equal bits (including the sign of zero) compare equal
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _batch_points() -> list[ModelPoint]:
    """s1 in all four u1 quadrants and s2 on both u1 branches, at three radii."""
    points = []
    for r in (1e-3, 1.0, 1e4):
        for quadrant in range(4):
            points.append(mp("s1", r, [0.4 + quadrant, quadrant * math.pi / 2 + 0.6, 2.9]))
        for branch in (1.0, -1.0):
            points.append(mp("s2", r, [branch * (0.3 + r % 1.3), 1.7, -1.1 + r % 2.0]))
    return points


def _assert_rows_equal_single(stages, singles):
    for n, one in enumerate(singles):
        for name, single in one.items():
            batched = stages[name][n]
            assert batched.shape == single.shape, name
            assert np.array_equal(_bits(batched), _bits(single)), name


def _stages(jet, sig) -> dict[str, np.ndarray]:
    """Every array of the jet stages and the tail tensors built from them."""
    fc = orthonormal_frame(jet, sig)
    sf = bracket_field(fc)
    conn = koszul(sf)
    f = fundamental_tensor(conn)
    r4 = curvature(conn, sf)
    out = dict(value=jet.value, d1=jet.d1, coords=jet.coords.c)
    out.update(a=fc.a, metric=fc.metric, c=sf.c, dc=sf.dc)
    out.update(gamma=conn.gamma, dgamma=conn.dgamma, f=f, r=r4)
    n, hn = nijenhuis_from_F(f)
    out.update(n=n, hn=hn)
    out.update(rho=contract_metric(r4), rho_star=contract_metric(r4, PHI))
    return out


@pytest.mark.parametrize("size", [1, 3, 8])
def test_batch_rows_bitwise_equal_single_points(size):
    for model in ("s1", "s2"):
        points = [p for p in _batch_points() if p.model == model]
        sig = points[0].spec.signature
        for start in range(0, len(points), size):
            chunk = points[start : start + size]
            singles = [_stages(immerse(p), sig) for p in chunk]
            _assert_rows_equal_single(_stages(immerse(PointBatch.of(chunk)), sig), singles)

    u = np.random.default_rng(3).uniform(-2.0, 2.0, size=(size, 3))
    singles = [_stages(evaluate_immersion(skew, row), EUCLIDEAN) for row in u]
    _assert_rows_equal_single(_stages(evaluate_immersion(skew, u), EUCLIDEAN), singles)
    # Gram-Schmidt leaves the diagonal positive; a negative one is a flipped row
    flipped = [bool(one["a"][1, 1] < 0.0) for one in singles]
    assert size < 8 or (any(flipped) and not all(flipped))


def test_batch_needs_one_model():
    with pytest.raises(ValueError, match="one model"):
        PointBatch.of([mp("s1", 1.0, [0.3, 0.7, 1.1]), mp("s2", 1.0, [0.6, 1.0, 0.5])])


def test_array_dataclasses_compare_by_identity():
    p = mp("s1", 1.0, [0.3, 0.7, 1.1])
    jet = immerse(p)
    fc = orthonormal_frame(jet, EUCLIDEAN)
    sf = bracket_field(fc)
    a = analyze_point(p, 1e-9)
    b = analyze_point(p, 1e-9)
    for first, second in (
        (p, mp("s1", 1.0, [0.3, 0.7, 1.1])),
        (jet, immerse(p)),
        (fc, orthonormal_frame(jet, EUCLIDEAN)),
        (sf, bracket_field(fc)),
        (koszul(sf), koszul(sf)),
        (a.lee, b.lee),
        (a.decomposition, b.decomposition),
        (model_reference(p), model_reference(p)),
        (a, b),
    ):
        assert first == first
        assert not first == second
        assert first != second
        assert hash(first) != hash(second)
