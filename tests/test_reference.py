"""One closed-form reference per chunk: `_batches` calls `model_reference`
once on the chunk's points, and every point's reference, read off the
chunk's, is bitwise and read-only `model_reference` at that point.
"""

import itertools
from dataclasses import fields

import numpy as np
import pytest

from paraframe import report
from paraframe.hypersurface import DomainError, ModelPoint
from paraframe.reference import model_reference
from paraframe.report import CHUNK, SWEEP_COLUMNS, analyze_points, sweep_rows

TOL = 1e-9

#: Grids of 6 x 5 x 3 = 90 rows that cross the CHUNK = 64 boundary: one
#: value of the 6-value axis lies on an exclusion, so 75 rows are in the
#: domain.
GRIDS = {
    "s1": ([0.1, 0.8, 2.0, 3.3, 5.5], [0.3, 0.7, 1.1, np.pi / 2, 2.5, 4.0], [0.2, 1.0, 3.0]),
    "s2": ([-1.2, -0.4, 0.0, 0.3, 0.9, 1.7], [0.1, 0.8, 2.0, 3.3, 5.5], [-0.5, 0.2, 1.0]),
}


def _grid(model: str) -> list[tuple[float, float, float]]:
    return list(itertools.product(*GRIDS[model]))


def _in_domain(model: str, r: float) -> list[ModelPoint]:
    points = []
    for u in _grid(model):
        try:
            points.append(ModelPoint(model=model, r=r, u=np.asarray(u, dtype=float)))
        except DomainError:
            continue
    return points


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("model", sorted(GRIDS))
def test_one_model_reference_call_per_chunk(model, monkeypatch):
    points = _in_domain(model, 2.0)
    assert len(points) > CHUNK and len(points) % CHUNK
    calls = []

    def counted(chunk):
        calls.append(chunk.u.tolist())
        return model_reference(chunk)

    monkeypatch.setattr(report, "model_reference", counted)
    rows = [dict(zip(SWEEP_COLUMNS[2:], row)) for chunk in sweep_rows(model, 2.0, _grid(model), TOL)
            for row in chunk]
    assert sum(row["status"] == "PASS" for row in rows) == len(points)
    assert calls == [[p.u.tolist() for p in points[n : n + CHUNK]]
                     for n in range(0, len(points), CHUNK)]


@pytest.mark.parametrize("model", sorted(GRIDS))
def test_shared_references_are_each_points_own_and_read_only(model):
    points = _in_domain(model, 2.0)
    analyses = analyze_points(points, TOL)
    for p, a in zip(points, analyses):
        own = model_reference(p)
        for f in fields(own):
            got, want = getattr(a.reference, f.name), getattr(own, f.name)
            if f.name == "lee_params":
                assert list(got) == list(want)
                with pytest.raises(TypeError):
                    got["lam"] = 1.0
                got, want = list(got.values()), list(want.values())
            if f.name == "classes":
                assert got == want
            else:
                assert np.array_equal(_bits(got), _bits(want)), f.name
            if isinstance(got, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0.0
