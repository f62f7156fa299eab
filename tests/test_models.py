"""Every record of `hypersurface.MODELS` is a whole model: its sampler is
seeded, `verify` passes on it at small and large radii, and `reference_key`
reads the coordinate of u the record names.  A new record is tested here
without editing this file.
"""

import numpy as np
import pytest

from paraframe.hypersurface import MODELS, sample_points
from paraframe.reference import reference_key
from paraframe.report import run_verify


@pytest.mark.parametrize("model", sorted(MODELS))
def test_sample_points_deterministic_per_seed(model):
    first, again, other = (sample_points(model, 16, seed) for seed in (7, 7, 8))
    assert [p.u.tobytes() for p in first] == [p.u.tobytes() for p in again]
    assert not any(np.array_equal(p.u, q.u) for p, q in zip(first, other))


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_verify_passes(model, r):
    report = run_verify(model, r, 32, 3, 1e-9)
    assert report["status"] == "PASS", report["failed"]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_reference_key_reads_the_record_coordinate(model):
    index = MODELS[model].reference_coord
    for p in sample_points(model, 8, 5, r=2.0):
        assert reference_key(p) == (model, p.r, p.u[index])


@pytest.mark.parametrize("n", [1, 0])
def test_sample_points_rejects_an_unknown_model(n):
    with pytest.raises(ValueError, match="'s3'"):
        sample_points("s3", n, 0)
