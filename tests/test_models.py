"""Every record of `hypersurface.MODELS` is a whole model: its sampler is
seeded, `verify` passes on it at small and large radii, and its closed form
of a chunk is, row by row, its closed form at each point.  A new record is
tested here without editing this file.
"""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

from paraframe.hypersurface import MODELS, DomainError, ModelPoint, PointBatch, sample_points
from paraframe.reference import model_reference
from paraframe.report import run_verify


@pytest.mark.parametrize("model", sorted(MODELS))
def test_sample_points_deterministic_per_seed(model):
    first, again, other = (sample_points(model, 16, seed) for seed in (7, 7, 8))
    assert [p.u.tobytes() for p in first] == [p.u.tobytes() for p in again]
    assert not any(np.array_equal(p.u, q.u) for p, q in zip(first, other))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_sample_points_from_a_generator_continue_its_stream(model):
    # draws in pieces from one Generator are the draws of its seed at once
    rng = np.random.default_rng(7)
    pieces = sample_points(model, 5, rng) + sample_points(model, 11, rng)
    assert [p.u.tobytes() for p in pieces] == [p.u.tobytes() for p in sample_points(model, 16, 7)]


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_verify_passes(model, r):
    report = run_verify(model, r, 32, 3, 1e-9)
    assert report["status"] == "PASS", report["failed"]


#: Parameter values within 1e-4 of 0 and of each multiple of pi/2, where the
#: built-in models' exclusions lie and their tangents and hyperbolic
#: functions are largest.
NEAR_EXCLUSIONS = [k * math.pi / 2 + s * d for k in range(5) for s in (-1, 1)
                   for d in (1e-4, 3e-6)]


def _near_exclusions(model: str, sampled: list[ModelPoint]) -> list[ModelPoint]:
    """The sampled points with one coordinate moved to a value of
    NEAR_EXCLUSIONS, each such point the model's domain accepts."""
    points = []
    for p, i, x in itertools.product(sampled, range(3), NEAR_EXCLUSIONS):
        u = p.u.copy()
        u[i] = x
        try:
            points.append(ModelPoint(model=model, r=p.r, u=u))
        except DomainError:
            continue
    return points


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("r", [1e-3, 1.0, 1e4])
def test_closed_form_of_a_chunk_is_its_points_own(model, r):
    sampled = sample_points(model, 4, 11, r=r)
    points = sampled + _near_exclusions(model, sampled)
    assert len(points) > len(sampled)
    chunk = model_reference(PointBatch.of(points))
    for n, p in enumerate(points):
        own = model_reference(p)
        for f in fields(own):
            got, want = getattr(chunk, f.name), getattr(own, f.name)
            if f.name == "classes":
                assert got == want
            elif f.name == "lee_params":
                assert list(got) == list(want)
                for key in want:
                    assert _bits(got[key][n]) == _bits(want[key]), (f.name, key, p.u)
            else:
                assert np.array_equal(_bits(got[n]), _bits(want)), (f.name, p.u)


@pytest.mark.parametrize("n", [1, 0])
def test_sample_points_rejects_an_unknown_model(n):
    with pytest.raises(ValueError, match="'s3'"):
        sample_points("s3", n, 0)
