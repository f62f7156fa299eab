"""One closed-form reference per chunk: `_batches` calls `model_reference`
once on the chunk's points, and every point's reference, read off the
chunk's, is bitwise and read-only `model_reference` at that point.  A point
command is a chunk of one point, and verify runs its samples CHUNK at a time.
"""

import itertools
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from paraframe import report
from paraframe.cli import main
from paraframe.hypersurface import MODELS, DomainError, ModelPoint, sample_points
from paraframe.reference import ModelReference, model_reference
from paraframe.report import CHUNK, SWEEP_COLUMNS, sweep_rows
from points import analyze_points

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


@pytest.mark.parametrize("command", ["classify", "curvature"])
def test_a_point_command_builds_one_reference(command, capsys):
    # the report reads row 0 of the one-point batch, so the closed form's
    # ModelReference is the only one built, by the one `_batches` call
    with mock.patch.object(ModelReference, "__post_init__", autospec=True,
                           side_effect=ModelReference.__post_init__) as built, \
         mock.patch("paraframe.report._batches", wraps=report._batches) as batches:
        code = main([command, "--model", "s1", "--point", "0.3,0.7,1.1", "--format", "json"])
    assert code == 0 and '"status": "PASS"' in capsys.readouterr().out
    assert built.call_count == 1
    assert batches.call_count == 1


@pytest.mark.parametrize("model", sorted(MODELS))
def test_verify_runs_its_samples_in_chunks(model):
    # 70 samples are one chunk of CHUNK = 64 points and one of 6, in order
    with mock.patch("paraframe.report._batches", wraps=report._batches) as batches:
        assert report.run_verify(model, 1.0, 70, 0, TOL)["status"] == "PASS"
    chunks = [call.args[0] for call in batches.call_args_list]
    assert [len(chunk) for chunk in chunks] == [CHUNK, 70 - CHUNK]
    assert np.array_equal(np.concatenate([chunk.u for chunk in chunks]),
                          [p.u for p in sample_points(model, 70, 0)])
