import math

import numpy as np
import pytest

from paraframe import jets
from paraframe.hypersurface import MODELS, PointBatch, immerse, orthonormal_frame, sample_points
from paraframe.jets import _FLAT_CELLS, _MONOMIALS, _MUL_TABLE, TJet, _cut, _elementwise, partials


def test_variable_seed():
    j = TJet.variable(1, 0.7)
    assert j.value == 0.7
    assert partials(j, 1)[1] == 1.0
    assert partials(j, 1)[0] == partials(j, 1)[2] == 0.0
    assert partials(j, 2)[1, 1] == 0.0


def test_polynomial_derivatives():
    # f = u0^3 + u0*u1*u2: all partials known in closed form
    u0, u1, u2 = (TJet.variable(i, x) for i, x in enumerate((1.5, -0.5, 2.0)))
    f = u0 * u0 * u0 + u0 * u1 * u2
    assert f.value == pytest.approx(1.5**3 + 1.5 * -0.5 * 2.0)
    assert partials(f, 1)[0] == pytest.approx(3 * 1.5**2 + (-0.5) * 2.0)
    assert partials(f, 2)[0, 0] == pytest.approx(6 * 1.5)
    assert partials(f, 2)[1, 2] == pytest.approx(1.5)
    assert partials(f, 3)[0, 0, 0] == pytest.approx(6.0)
    assert partials(f, 3)[0, 1, 2] == pytest.approx(1.0)
    assert partials(f, 3)[1, 1, 2] == pytest.approx(0.0)


def test_trig_identity_exact():
    u = TJet.variable(0, 0.83)
    one = u.sin() * u.sin() + u.cos() * u.cos()
    assert abs(one.value - 1.0) < 1e-15
    # all derivative coefficients of a constant vanish
    assert np.max(np.abs(one.c[1:])) < 1e-15


def test_hyperbolic_identity_exact():
    u = TJet.variable(2, -1.2)
    one = u.cosh() * u.cosh() - u.sinh() * u.sinh()
    assert abs(one.value - 1.0) < 1e-14
    assert np.max(np.abs(one.c[1:])) < 1e-14


def test_transcendental_derivatives():
    # f = sin(u0) cosh(u1) + u2^2 u0, partials by hand
    x = (0.4, 0.9, -1.1)
    u0, u1, u2 = (TJet.variable(i, v) for i, v in enumerate(x))
    f = u0.sin() * u1.cosh() + u2 * u2 * u0
    s, c = math.sin(x[0]), math.cos(x[0])
    sh, ch = math.sinh(x[1]), math.cosh(x[1])
    assert partials(f, 1)[0] == pytest.approx(c * ch + x[2] ** 2, abs=1e-14)
    assert partials(f, 1)[1] == pytest.approx(s * sh, abs=1e-14)
    assert partials(f, 1)[2] == pytest.approx(2 * x[2] * x[0], abs=1e-14)
    assert partials(f, 2)[0, 1] == pytest.approx(c * sh, abs=1e-14)
    assert partials(f, 2)[2, 2] == pytest.approx(2 * x[0], abs=1e-14)
    assert partials(f, 3)[0, 0, 1] == pytest.approx(-s * sh, abs=1e-14)
    assert partials(f, 3)[0, 2, 2] == pytest.approx(2.0, abs=1e-14)


def test_division_and_sqrt():
    u = TJet.variable(0, 2.0)
    w = u * u / u  # should reproduce u through degree... all coefficients
    assert np.allclose(w.c, u.c, atol=1e-15)
    r = (u * u).sqrt()
    assert np.allclose(r.c, u.c, atol=1e-15)
    inv = 1.0 / u
    assert inv.value == pytest.approx(0.5)
    assert partials(inv, 1)[0] == pytest.approx(-0.25)
    assert partials(inv, 2)[0, 0] == pytest.approx(0.25)


def test_deriv_shifts_coefficients():
    u0, u1 = TJet.variable(0, 0.3), TJet.variable(1, 1.4)
    f = u0.sin() * u1.cos()
    g = f.deriv(0)  # d/du0: cos(u0) cos(u1), valid to degree 2
    assert g.value == pytest.approx(math.cos(0.3) * math.cos(1.4), abs=1e-14)
    assert partials(g, 1)[1] == pytest.approx(-math.cos(0.3) * math.sin(1.4), abs=1e-14)
    assert partials(g, 2)[0, 1] == pytest.approx(math.sin(0.3) * math.sin(1.4), abs=1e-14)


def test_domain_errors():
    u = TJet.variable(0, -1.0)
    with pytest.raises(ValueError):
        u.sqrt()
    with pytest.raises(ZeroDivisionError):
        TJet.constant(0.0).reciprocal()


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _random_jet(seed: int, shape: tuple[int, ...], deg: int) -> TJet:
    rng = np.random.default_rng(seed)
    c = rng.normal(size=shape + (20,)) * 10.0 ** rng.integers(-3, 4, size=shape + (20,))
    c[..., 0] = rng.uniform(-3.0, 3.0, size=shape)
    return TJet(_cut(c, deg), deg)


@pytest.mark.parametrize("deg", [1, 2, 3])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_paired_functions_are_the_single_ones(shape, deg):
    # each function, a slice of its pair, is bitwise its own composition
    x = _random_jet(deg, shape, deg)
    s, c = _elementwise(math.sin, x.value), _elementwise(math.cos, x.value)
    sh, ch = _elementwise(math.sinh, x.value), _elementwise(math.cosh, x.value)
    cases = (
        (x.sincos(), (x.sin(), x.cos()), ([s, c, -s, -c], [c, -s, -c, s])),
        (x.sinhcosh(), (x.sinh(), x.cosh()), ([sh, ch, sh, ch], [ch, sh, ch, sh])),
    )
    for pair, singles, derivatives in cases:
        assert pair.shape == (2,) + shape
        for single, d in zip(singles, derivatives):
            alone = x._compose(d)
            assert single.deg == alone.deg == deg
            assert np.array_equal(_bits(single.c), _bits(alone.c))


def _every_power(x: TJet, d: list[np.ndarray]) -> TJet:
    """Taylor composition through h^3 at any degree: the powers above the
    jet's degree add only +-0 there."""
    h = TJet(x.c.copy(), x.deg)
    h.c[..., 0] = 0.0
    out = TJet.constant(d[0]) + h * d[1]
    term, fact = h, 1.0
    for k in (2, 3):
        term = term * h
        fact *= k
        out = out + term * (d[k] / fact)
    return out


@pytest.mark.parametrize("deg", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_compositions_stop_at_their_degree(monkeypatch, shape, deg):
    # sqrt and reciprocal form only the powers and derivatives their degree
    # reads, bitwise the composition through h^3; the per-element x**3 and
    # x**4 passes run only at degrees 2 and 3
    x = _random_jet(30 + deg, shape, deg)
    x.c[..., 0] = np.abs(x.c[..., 0]) + 0.5
    x.c[..., 1:] = np.where(x.c[..., 1:] > 1.0, -0.0, x.c[..., 1:])
    v = x.value
    r, iv = np.sqrt(v), 1.0 / v
    cube, fourth = _elementwise(lambda t: t**3, iv), _elementwise(lambda t: t**4, iv)
    passes = []

    def counted(fn, a):
        passes.append(fn)
        return _elementwise(fn, a)

    monkeypatch.setattr(jets, "_elementwise", counted)
    for got, d in (
        (x.sqrt(), [r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)]),
        (x.reciprocal(), [iv, -iv * iv, 2.0 * cube, -6.0 * fourth]),
    ):
        want = _every_power(x, d)
        assert got.deg == want.deg == deg
        assert np.array_equal(_bits(got.c), _bits(want.c))
    assert len(passes) == max(deg - 1, 0)


def _loop_sum(c: np.ndarray, axes: int) -> np.ndarray:
    c = c.reshape(c.shape[: -1 - axes] + (-1, 20))
    s = np.zeros(c.shape[:-2] + (20,))
    for k in range(c.shape[-2]):
        s = s + c[..., k, :]
    return s


@pytest.mark.parametrize("axes", [1, 2])
def test_sum_is_the_sequential_loop(axes):
    c = _random_jet(7, (4, 3, 3), 3).c
    c[0] = -0.0  # cells whose terms are all -0.0 sum to +0.0
    c[1, 0, 0, 5] = 1e16  # order matters: 1e16 + 1 + ... loses the ones
    c[1, 0, 1:, 5] = 1.0
    c[1, 1:, :, 5] = 1.0
    got = TJet(c, 3).sum(axes).c
    want = _loop_sum(c, axes)
    assert np.array_equal(_bits(got), _bits(want))
    assert not np.any(np.signbit(got[0]))


def test_frame_jets_vanish_above_their_degree():
    # frame jets are valid to degree 2 and store nothing above it: the 10
    # coefficients of degree <= 2
    for model in MODELS:
        points = sample_points(model, 5, seed=2)
        fc = orthonormal_frame(immerse(PointBatch.of(points)), MODELS[model].signature)
        assert fc.jets.deg == 2
        assert fc.jets.c.shape[-1] == 10


#: Coefficients through each degree: the kept prefix of a degree-d jet.
KEPT = [sum(1 for alpha in _MONOMIALS if sum(alpha) <= d) for d in range(4)]


def _loop_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full-width product: every table entry in table order, from +0.0."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i, j, t in _MUL_TABLE:
        out[..., t] = out[..., t] + a[..., i] * b[..., j]
    return out


def _loop_deriv(a: np.ndarray, var: int) -> np.ndarray:
    out = np.zeros(a.shape)
    for n, alpha in enumerate(_MONOMIALS):
        if alpha[var] > 0:
            lower = tuple(x - (k == var) for k, x in enumerate(alpha))
            out[..., _MONOMIALS.index(lower)] = a[..., n] * alpha[var]
    return out


def _assert_kept(jet: TJet, deg: int, full: np.ndarray) -> None:
    """jet is valid to deg, stores its KEPT[deg] coefficients, and they are
    the first ones of the full-width result, bit for bit."""
    assert jet.deg == deg
    assert jet.c.shape[-1] == KEPT[deg]
    assert np.array_equal(_bits(jet.c), _bits(full[..., : KEPT[deg]]))


# leading shapes of 6 and 288 cells: a product over more than 256 cells
# runs in blocks
@pytest.mark.parametrize("shapes", [((2, 3), (3,)), ((18, 16), (16,))])
@pytest.mark.parametrize("dx,dy", [(3, 3), (3, 2), (2, 3), (2, 1), (1, 3), (1, 1)])
def test_mixed_degree_arithmetic_is_the_full_width_loop(dx, dy, shapes):
    # operands carry random coefficients above their degree; none may reach
    # a kept coefficient of the result
    fx, fy = _random_jet(10 + dx, shapes[0], 3).c, _random_jet(20 + dy, shapes[1], 3).c
    fx[0, 1, 7] = -0.0
    fy[0] = -0.0  # all-(-0.0) operand: products of it sum to +0.0
    x, y = TJet(_cut(fx, dx), dx), TJet(_cut(fy, dy), dy)
    deg = min(dx, dy)
    _assert_kept(x * y, deg, _loop_product(fx, fy))
    _assert_kept(y * x, deg, _loop_product(fy, fx))
    _assert_kept(x + y, deg, fx + fy)
    _assert_kept(x - y, deg, fx - fy)
    _assert_kept(1.5 - x, dx, TJet.constant(1.5).c - fx)
    _assert_kept(x + 2.0, dx, fx + TJet.constant(2.0).c)
    _assert_kept(TJet.stack([x, y], axis=0), deg, np.stack(np.broadcast_arrays(fx, fy), axis=0))
    for var in range(3):
        _assert_kept(x.deriv(var), dx - 1, _loop_deriv(fx, var))
        _assert_kept(y.deriv(var), dy - 1, _loop_deriv(fy, var))


def _no_table(deg, cells):
    raise AssertionError(f"a product built its own flat targets ({cells} cells)")


# 257 to 1,000 cells, with operands broadcast against each other or against
# one cell; 200 cells of a degree-3 operand times a degree-1 one take the
# blocked path as a single block
@pytest.mark.parametrize(
    "shapes",
    [((257,), (257,)), ((40, 3, 1), (40, 1, 3)), ((1000,), (1,)), ((37, 3, 3), (3,)),
     ((40, 6, 1), (1, 4)), ((200,), (200,))],
)
@pytest.mark.parametrize("dx,dy", [(1, 1), (2, 2), (3, 3), (3, 1), (2, 3)])
def test_blocked_product_is_the_product_of_its_blocks(monkeypatch, shapes, dx, dy):
    # each cell's terms add in table order whatever the cell count, so the
    # blocked product is bitwise the same cells multiplied 256 at a time, and
    # no product builds a flat-target table after import
    monkeypatch.setattr(jets, "_flat_targets", _no_table)
    x, y = _random_jet(3 * dx, shapes[0], dx), _random_jet(5 * dy, shapes[1], dy)
    x.c[0] = -0.0
    deg = min(dx, dy)
    lead = np.broadcast_shapes(*shapes)
    got = x * y
    assert got.deg == deg and got.shape == lead

    def rows(j):
        return np.broadcast_to(j.c, lead + j.c.shape[-1:]).reshape(-1, j.c.shape[-1])

    fx, fy = rows(x), rows(y)
    blocks = [
        (TJet(fx[start : start + _FLAT_CELLS], dx) * TJet(fy[start : start + _FLAT_CELLS], dy)).c
        for start in range(0, len(fx), _FLAT_CELLS)
    ]
    assert np.array_equal(_bits(got.c.reshape(-1, KEPT[deg])), _bits(np.concatenate(blocks)))
    # and each cell alone
    for n in (0, 1, len(fx) // 2, len(fx) - 1):
        alone = TJet(fx[n], dx) * TJet(fy[n], dy)
        assert np.array_equal(_bits(got.c.reshape(-1, KEPT[deg])[n]), _bits(alone.c))


def test_degree_zero_jet_has_no_derivative():
    constant = TJet.variable(0, 0.5).deriv(0).deriv(0).deriv(0)
    assert constant.deg == 0 and constant.c.shape == (1,)
    with pytest.raises(ValueError):
        constant.deriv(1)
