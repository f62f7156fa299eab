"""The jet front forms only the nonzero entries of its lower-triangular frame.

`orthonormal_frame` and `bracket_field` skip the products by exact zeros and
units of the Gram-Schmidt frame; `dense_frame` forms every one of them.  On
model points across the accepted domain (next to the exclusions and far out
on s2 included) and on drawn Euclidean graphs, both give the same a, frame
jets, c and dc, compared bit for bit as int64 views, or raise the same
error; and every frame is exactly zero above its diagonal.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dense_frame import dense_bracket_field, dense_orthonormal_frame
from paraframe.hypersurface import (
    _UPPER_I,
    _UPPER_J,
    EUCLIDEAN,
    PointBatch,
    bracket_field,
    evaluate_immersion,
    immerse,
    orthonormal_frame,
)
from paraframe.jets import _MONOMIALS
from test_batch import PARAMS, _bits, _outcome, _point

RADII = (1e-3, 0.5, 1.0, 2.0, 1e4)
radius = st.one_of(st.sampled_from(RADII), st.floats(-3.0, 4.0).map(lambda e: 10.0**e))

FRONT = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _front(frame, bracket, make_jet, sig) -> dict[str, np.ndarray]:
    fc = frame(make_jet(), sig)
    sf = bracket(fc)
    return {"a": fc.a, "jets": fc.jets.c, "c": sf.c, "dc": sf.dc}


def _assert_front_is_dense(make_jet, sig):
    got, error = _outcome(lambda: _front(orthonormal_frame, bracket_field, make_jet, sig))
    want, dense_error = _outcome(
        lambda: _front(dense_orthonormal_frame, dense_bracket_field, make_jet, sig)
    )
    assert error == dense_error
    if error is not None:
        return
    for key, value in want.items():
        assert got[key].shape == value.shape, key
        assert np.array_equal(_bits(got[key]), _bits(value)), key
    assert np.all(got["a"][..., _UPPER_I, _UPPER_J] == 0.0)
    assert np.all(got["jets"][..., _UPPER_I, _UPPER_J, :] == 0.0)


@st.composite
def model_batches(draw):
    """1 to 8 accepted points of one model, each at its own radius."""
    model = draw(st.sampled_from(sorted(PARAMS)))
    point = st.builds(_point, st.just(model), radius, PARAMS[model])
    return draw(st.lists(point.filter(lambda p: p is not None), min_size=1, max_size=8))


@FRONT
@given(model_batches())
def test_model_front_bitwise_dense(points):
    sig = points[0].spec.signature
    _assert_front_is_dense(lambda: immerse(PointBatch.of(points)), sig)
    _assert_front_is_dense(lambda: immerse(points[0]), sig)


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
def test_graph_front_bitwise_dense(graph):
    coords, u = graph
    _assert_front_is_dense(lambda: evaluate_immersion(coords, u), EUCLIDEAN)
    _assert_front_is_dense(lambda: evaluate_immersion(coords, u[0]), EUCLIDEAN)
