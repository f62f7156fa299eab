"""A batch is its points: analyze_points over a chunk equals analyze_point at
each of its points, bit for bit, or both raise the first failing point's error.

Points are drawn from the whole accepted domain of both models, including
parameters next to the excluded loci and s2 parameters far outside the
sampled box, where the pipeline fails or loses accuracy; the property holds
there too.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from paraframe.hypersurface import EXCLUSION, TWO_PI, DomainError, ModelPoint
from paraframe.report import CHUNK, analyze_point, analyze_points

RADII = (1e-3, 1.0, 2.0, 1e4)
TOL = 1e-9

angle = st.floats(0.0, TWO_PI, exclude_max=True)
# within 1e-2 of a multiple of pi/2 (down to the exclusion itself), either side
near_quarter = st.builds(
    lambda k, side, d: k * math.pi / 2.0 + side * d,
    st.integers(0, 4),
    st.sampled_from((-1.0, 1.0)),
    st.floats(EXCLUSION, 1e-2),
)
anything = st.floats(allow_nan=False, allow_infinity=False)
s2_coordinate = st.one_of(st.floats(-3.0, 3.0), st.floats(-40.0, 40.0), anything)

PARAMS = {
    "s1": st.tuples(angle, st.one_of(angle, near_quarter), angle),
    "s2": st.tuples(st.one_of(s2_coordinate, st.floats(-1e-2, 1e-2)), angle, s2_coordinate),
}


def _point(model: str, r: float, u) -> ModelPoint | None:
    try:
        return ModelPoint(model=model, r=r, u=np.array(u))
    except DomainError:
        return None


@st.composite
def chunks(draw) -> list[ModelPoint]:
    """1 to CHUNK accepted points of one model, each at its own radius."""
    model = draw(st.sampled_from(sorted(PARAMS)))
    point = st.builds(_point, st.just(model), st.sampled_from(RADII), PARAMS[model])
    return draw(st.lists(point.filter(lambda p: p is not None), min_size=1, max_size=CHUNK))


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _arrays(a) -> dict[str, object]:
    """Every number of a PointAnalysis, keyed by where it is."""
    out = {f"structure.{k}": getattr(a.structure, k) for k in ("phi", "xi", "eta", "metric")}
    out.update({"c": a.field.c, "dc": a.field.dc})
    out.update({"gamma": a.connection.gamma, "dgamma": a.connection.dgamma})
    out.update({f"lee.{k}": getattr(a.lee, k) for k in ("theta", "theta_star", "omega")})
    out.update({f"component.{s}": t for s, t in a.decomposition.components.items()})
    out.update({f"param.{k}": v for k, v in a.decomposition.params.items()})
    out["decomposition.residual"] = a.decomposition.residual
    for k in ("f", "nijenhuis", "assoc_nijenhuis", "curvature", "ricci", "ricci_star", "tau",
              "tau_star", "k", "kappa", "d_eta", "nabla_xi_xi"):
        out[k] = getattr(a, k)
    out.update({f"residual.{k}": v for k, v in a.residuals.items()})
    return out


def _outcome(run):
    try:
        return run(), None
    except Exception as exc:  # the property compares whatever is raised
        return None, (type(exc), str(exc))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks())
# with warnings as errors, the second point's overflow in a batched stage
# comes before the first point's own error
@example([ModelPoint("s2", 1.0, [0.5, 1.0, 20.0]), ModelPoint("s2", 1e4, [0.5, 1.0, 709.0])])
def test_batch_equals_its_points(chunk):
    singles, single_error = _outcome(lambda: [analyze_point(p, TOL) for p in chunk])
    batch, batch_error = _outcome(lambda: analyze_points(chunk, TOL))
    assert batch_error == single_error
    if single_error is not None:
        return
    assert len(batch) == len(singles)
    for b, s in zip(batch, singles):
        assert (b.label, b.status) == (s.label, s.status)
        assert list(b.residuals) == list(s.residuals)
        assert list(b.decomposition.params) == list(s.decomposition.params)
        mine_all = _arrays(b)
        for key, value in _arrays(s).items():
            mine = mine_all[key]
            assert type(mine) is type(value), key
            assert np.shape(mine) == np.shape(value), key
            assert np.array_equal(_bits(mine), _bits(value)), key
