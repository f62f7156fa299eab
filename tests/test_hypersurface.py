import math

import numpy as np
import pytest

from paraframe.classifier import fundamental_tensor
from paraframe.frame import StructureField, curvature, jacobi_residual, koszul
from paraframe.hypersurface import (
    EUCLIDEAN,
    LORENTZIAN,
    DomainError,
    ModelPoint,
    bracket_field,
    evaluate_immersion,
    fd_jet,
    immerse,
    induced_metric,
    orthonormal_frame,
    sample_points,
    sphere_residual,
    structure_field,
)
from paraframe.jets import TJet
from paraframe.nijenhuis import assoc_nijenhuis_from_F, nijenhuis_from_F
from paraframe.reference import model_reference
from paraframe.report import analyze_point
from paraframe.structure import standard_structure
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
    assert max_abs(jet.d2 - np.swapaxes(jet.d2, 0, 1)) == 0.0
    assert max_abs(jet.d3 - np.transpose(jet.d3, (1, 0, 2, 3))) == 0.0


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


def test_on_sphere_everywhere():
    for model in ("s1", "s2"):
        for p in sample_points(model, 25, seed=3, r=1.7):
            assert sphere_residual(p, immerse(p).value) <= 1e-12


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


def test_frame_s1_quarter_turn():
    jet = immerse(mp("s1", 1.0, [0.3, math.pi / 4, 1.1]))
    fc = orthonormal_frame(jet, EUCLIDEAN)
    root2 = math.sqrt(2.0)
    assert np.allclose(fc.a, np.diag([root2, 1.0, root2]), atol=1e-14)
    assert np.array_equal(fc.metric, induced_metric(jet, EUCLIDEAN))
    assert fc.gram_defect() <= 1e-12


def test_frame_s2_radius_two():
    jet = immerse(mp("s2", 2.0, [LN2, 0.4, 0.9]))
    fc = orthonormal_frame(jet, LORENTZIAN)
    assert np.allclose(fc.a, np.diag([0.5, 2.0 / 3.0, 0.4]), atol=1e-14)
    assert fc.gram_defect() <= 1e-12


def test_frame_positive_in_every_quadrant():
    # the sign rule reproduces the quadrant factors: coefficients stay positive
    for quadrant in range(4):
        u1 = quadrant * math.pi / 2 + 0.6
        jet = immerse(mp("s1", 1.0, [0.3, u1, 1.1]))
        fc = orthonormal_frame(jet, EUCLIDEAN)
        assert fc.a[0, 0] == pytest.approx(1.0 / abs(math.sin(u1)), abs=1e-12)
        assert fc.a[2, 2] == pytest.approx(1.0 / abs(math.cos(u1)), abs=1e-12)
        assert fc.gram_defect() <= 1e-12


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
    # z = (cos u0 cos u1, cos u0 sin u1, sin u0, u2): [e0, e1] = tan(u0) e1
    def coords(v):
        return [v[0].cos() * v[1].cos(), v[0].cos() * v[1].sin(), v[0].sin(), v[2]]

    u = np.array([0.35, 1.2, -0.7])
    jet = evaluate_immersion(coords, u)
    fc = orthonormal_frame(jet, EUCLIDEAN)
    assert fc.gram_defect() <= 1e-12
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


# ---------------------------------------------------------------------------
# sampling and the finite-difference oracle
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


def test_fd_jet_matches_taylor_jet():
    for model, u in (("s1", [0.4, 0.9, 2.2]), ("s2", [0.8, 1.1, -0.5])):
        p = mp(model, 1.3, u)
        exact = immerse(p)
        value, d1, d2, d3 = fd_jet(p)
        assert max_abs(exact.value - value) == 0.0
        assert max_abs(exact.d1 - d1) <= 1e-9
        assert max_abs(exact.d2 - d2) <= 1e-7
        assert max_abs(exact.d3 - d3) <= 1e-4



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


def _skew(v):
    # non-diagonal metric: the Gram-Schmidt rows mix coordinates, and the
    # sign rule flips some rows at some points but not at others
    return [
        v[0].sinh() * v[1].cos() + v[2] * v[0],
        v[0] * v[1] * v[2],
        v[1].sin() * v[2].cosh(),
        v[0] * v[0] - v[2],
    ]


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
    s = standard_structure()
    f = fundamental_tensor(conn, s)
    r4 = curvature(conn, sf)
    out = {k: getattr(jet, k) for k in ("value", "d1", "d2", "d3")}
    out.update(a=fc.a, metric=fc.metric, c=sf.c, dc=sf.dc)
    out.update(gamma=conn.gamma, dgamma=conn.dgamma, f=f, r=r4)
    out.update(n=nijenhuis_from_F(f, s), hn=assoc_nijenhuis_from_F(f, s))
    out.update(rho=contract_metric(r4), rho_star=contract_metric(r4, s.phi))
    return out


@pytest.mark.parametrize("size", [1, 3, 8])
def test_batch_rows_bitwise_equal_single_points(size):
    for model in ("s1", "s2"):
        points = [p for p in _batch_points() if p.model == model]
        sig = points[0].spec.signature
        for start in range(0, len(points), size):
            chunk = points[start : start + size]
            singles = [_stages(immerse(p), sig) for p in chunk]
            _assert_rows_equal_single(_stages(immerse(chunk), sig), singles)

    u = np.random.default_rng(3).uniform(-2.0, 2.0, size=(size, 3))
    singles = [_stages(evaluate_immersion(_skew, row), EUCLIDEAN) for row in u]
    _assert_rows_equal_single(_stages(evaluate_immersion(_skew, u), EUCLIDEAN), singles)
    # Gram-Schmidt leaves the diagonal positive; a negative one is a flipped row
    flipped = [bool(one["a"][1, 1] < 0.0) for one in singles]
    assert size < 8 or (any(flipped) and not all(flipped))


def test_batch_needs_one_model():
    with pytest.raises(ValueError, match="one model"):
        immerse([mp("s1", 1.0, [0.3, 0.7, 1.1]), mp("s2", 1.0, [0.6, 1.0, 0.5])])


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
        (standard_structure(), standard_structure()),
        (a.lee, b.lee),
        (a.decomposition, b.decomposition),
        (model_reference(p), model_reference(p)),
        (a, b),
    ):
        assert first == first
        assert not first == second
        assert first != second
        assert hash(first) != hash(second)
