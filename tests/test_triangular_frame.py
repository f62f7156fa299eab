"""The Cholesky jet front agrees with dense Gram-Schmidt and Cramer's rule.

`orthonormal_frame` factors the metric jet as G = L L^T and takes the frame
as a = L^-1, and `bracket_field` solves the brackets with L; `dense_frame`
orthonormalizes the coordinate rows by Gram-Schmidt over every entry and
solves by Cramer's rule over full determinants, an independent route to the
same frame.  The two round in different orders, so on model points across
the accepted domain (next to the exclusions and far out on s2 included) and
on drawn Euclidean graphs, a, the frame jets, the inverse jets through the
degree the brackets read, c and dc agree within `REL` of each point's
largest entry of that array, or both fronts raise the same error; and every
frame and inverse is exactly zero above its diagonal.

Without an oracle, the frame jets satisfy a G a^T = 1 and the inverse jets
a^-1 a = 1 through degree 2, within a rounding bound fixed in advance, on
both models at three radii with points next to every exclusion, on the
`curved` and `skew` immersions and on drawn graphs.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import curved, skew
from dense_frame import dense_bracket_field, dense_orthonormal_frame
from paraframe.hypersurface import (
    _UPPER_I,
    _UPPER_J,
    EUCLIDEAN,
    TWO_PI,
    PointBatch,
    bracket_field,
    evaluate_immersion,
    immerse,
    orthonormal_frame,
    sample_points,
)
from paraframe.jets import _MONOMIALS, TJet, _cut
from paraframe.tensors import DIM
from test_batch import PARAMS, _outcome, _point

RADII = (1e-3, 0.5, 1.0, 2.0, 1e4)
radius = st.one_of(st.sampled_from(RADII), st.floats(-3.0, 4.0).map(lambda e: 10.0**e))

FRONT = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


#: Largest difference from the dense oracle, relative to the largest entry of
#: the same array at the same point.
REL = 1e-11


def _front(frame, bracket, make_jet, sig) -> dict[str, np.ndarray]:
    fc = frame(make_jet(), sig)
    sf = bracket(fc)
    # bracket_field reads the inverse through degree 1; its degree-2 terms
    # cancel near the exclusions (the inverse-times-a test checks them)
    inverse = _cut(fc.inverse.c, 1)
    return {"a": fc.a, "jets": fc.jets.c, "inverse": inverse, "c": sf.c, "dc": sf.dc}


def _assert_front_is_dense(make_jet, sig, batch: bool):
    got, error = _outcome(lambda: _front(orthonormal_frame, bracket_field, make_jet, sig))
    want, dense_error = _outcome(
        lambda: _front(dense_orthonormal_frame, dense_bracket_field, make_jet, sig)
    )
    assert error == dense_error
    if error is not None:
        return
    for key, value in want.items():
        assert got[key].shape == value.shape, key
        axes = tuple(range(1 if batch else 0, value.ndim))
        scale = np.max(np.abs(value), axis=axes, keepdims=True)
        assert np.all(np.abs(got[key] - value) <= REL * scale), key
    fc = orthonormal_frame(make_jet(), sig)
    assert np.all(fc.a[..., _UPPER_I, _UPPER_J] == 0.0)
    for jets in (fc.jets, fc.inverse):
        assert np.all(jets.c[..., _UPPER_I, _UPPER_J, :] == 0.0)


@st.composite
def model_batches(draw):
    """1 to 8 accepted points of one model, each at its own radius."""
    model = draw(st.sampled_from(sorted(PARAMS)))
    point = st.builds(_point, st.just(model), radius, PARAMS[model])
    return draw(st.lists(point.filter(lambda p: p is not None), min_size=1, max_size=8))


@FRONT
@given(model_batches())
def test_model_front_matches_dense(points):
    sig = points[0].spec.signature
    _assert_front_is_dense(lambda: immerse(PointBatch.of(points)), sig, batch=True)
    _assert_front_is_dense(lambda: immerse(points[0]), sig, batch=False)


coefficient = st.floats(-3.0, 3.0)


@st.composite
def graphs(draw):
    """The graph u -> (u, f(u)) of a cubic plus a sine wave, at 1 to 8 points."""
    cubic = draw(st.lists(coefficient, min_size=len(_MONOMIALS), max_size=len(_MONOMIALS)))
    amplitude, *wave = draw(st.lists(coefficient, min_size=4, max_size=4))
    u = draw(st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=1, max_size=8))

    def coords(v):
        f = (v[0] * wave[0] + v[1] * wave[1] + v[2] * wave[2]).sin() * amplitude
        for c, alpha in zip(cubic, _MONOMIALS):
            term = c
            for var, power in enumerate(alpha):
                for _ in range(power):
                    term = v[var] * term
            f = f + term
        return [v[0], v[1], v[2], f]

    return coords, np.array(u)


@FRONT
@given(graphs())
def test_graph_front_matches_dense(graph):
    coords, u = graph
    _assert_front_is_dense(lambda: evaluate_immersion(coords, u), EUCLIDEAN, batch=True)
    _assert_front_is_dense(lambda: evaluate_immersion(coords, u[0]), EUCLIDEAN, batch=False)


# ---------------------------------------------------------------------------
# oracle-free: the frame is orthonormal and the inverse inverts it, as jets
# ---------------------------------------------------------------------------

#: Largest coefficient of a G a^T - 1 and of a^-1 a - 1, through degree 2,
#: relative to the same coefficient of the products taken over the absolute
#: values of every factor's coefficients (a bound on the rounding of each sum).
IDENTITY_REL = 1e-12


def _matmul(x: TJet, y: TJet) -> TJet:
    """The jet matrix product sum_k x[..., i, k] y[..., k, j]."""
    yt = TJet(np.swapaxes(y.c, -2, -3), y.deg)  # [..., j, k]
    return (x[..., :, None, :] * yt[..., None, :, :]).sum()


def _abs(x: TJet) -> TJet:
    return TJet(np.abs(x.c), x.deg)


def _assert_identity(product: TJet, scale: TJet):
    eye = TJet.constant(np.eye(DIM))
    assert product.deg == 2
    assert np.all(np.abs((product - eye).c) <= IDENTITY_REL * scale.c)


def _assert_inverts(jet, sig):
    """a G a^T = 1 and a^-1 a = 1 as degree-2 jets, with G summed from the
    tangent jets here, term by term."""
    fc = orthonormal_frame(jet, sig)
    tangent = TJet.stack([jet.coords.deriv(i) for i in range(DIM)], axis=-2)  # [..., i, a]
    w = sig.weights
    g = (tangent[..., :, None, :] * tangent[..., None, :, :] * w).sum()
    g_scale = (_abs(tangent)[..., :, None, :] * _abs(tangent)[..., None, :, :]).sum()
    a, at = fc.jets, TJet(np.swapaxes(fc.jets.c, -2, -3), fc.jets.deg)
    _assert_identity(_matmul(_matmul(a, g), at),
                     _matmul(_matmul(_abs(a), g_scale), _abs(at)))
    _assert_identity(_matmul(fc.inverse, a), _matmul(_abs(fc.inverse), _abs(a)))


#: Points 1e-4 from each excluded locus: s1's u1 on either side of 0, pi/2,
#: pi, 3pi/2 and 2pi, and s2's u1 = +-1e-4.
NEAR_EXCLUSIONS = {
    "s1": [(0.3, u1, 1.1) for k in range(5) for side in (-1.0, 1.0)
           for u1 in [k * math.pi / 2.0 + side * 1e-4] if 0.0 <= u1 < TWO_PI],
    "s2": [(side * 1e-4, 0.7, u3) for side in (-1.0, 1.0) for u3 in (-1.3, 0.5)],
}


@pytest.mark.parametrize("r", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("model", ["s1", "s2"])
def test_model_frames_invert(model, r):
    sampled = [p.u for p in sample_points(model, 8, seed=3, r=r)]
    batch = PointBatch(model, [r] * (8 + len(NEAR_EXCLUSIONS[model])),
                       sampled + NEAR_EXCLUSIONS[model])
    _assert_inverts(immerse(batch), batch.spec.signature)


@pytest.mark.parametrize("coords", [curved, skew])
def test_custom_frames_invert(coords):
    u = np.array([[0.35, 1.2, -0.7], [-0.9, 0.4, 2.0], [1.1, -2.3, 0.1]])
    _assert_inverts(evaluate_immersion(coords, u), EUCLIDEAN)


@FRONT
@given(graphs())
def test_graph_frames_invert(graph):
    coords, u = graph
    _assert_inverts(evaluate_immersion(coords, u), EUCLIDEAN)
