"""Per-point views of the batched analysis, for tests.

`report` analyses a chunk of points at a time, and every value of its
`PointAnalysis` carries a leading point axis.  `point(b, n)` reads point n
off such a value, rebuilding each dataclass from its members' point n, so a
test can compare one row of a chunk with that point run alone, field by
field and bit for bit.  `analyze_points` runs points of one model in chunks
of CHUNK, as `verify` does, and `analyze_point` runs one point alone, as a
point command does; both return per-point views.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Mapping, Sequence

import numpy as np

from paraframe import report
from paraframe.hypersurface import ModelPoint, PointBatch
from paraframe.report import CHUNK, PointAnalysis


def point(b, n: int):
    """Point n of a batched value: an array drops its point axis (a 1-D one
    gives a Python float), a list gives entry n, mappings, tuples and
    dataclasses are rebuilt from their members' point n, and any other value
    (a reference's class number) is every point's own."""
    if isinstance(b, np.ndarray):
        return float(b[n]) if b.ndim == 1 else b[n]
    if isinstance(b, list):
        return b[n]
    if isinstance(b, Mapping):
        return {key: point(v, n) for key, v in b.items()}
    if isinstance(b, tuple):
        return tuple(point(v, n) for v in b)
    if is_dataclass(b):
        return type(b)(**{f.name: point(getattr(b, f.name), n) for f in fields(b)})
    return b


def analyze_points(points: Sequence[ModelPoint], tol: float) -> list[PointAnalysis]:
    """The view of each of the points of one model, run CHUNK at a time."""
    batch = PointBatch.of(points)
    return [
        point(b, n)
        for start in range(0, len(batch), CHUNK)
        for b in report._analysed(batch[start : start + CHUNK], tol)
        for n in range(len(b.status))
    ]


def analyze_point(p: ModelPoint, tol: float) -> PointAnalysis:
    """The view of p run alone: row 0 of its point command's analysis."""
    return point(report.analyze_point(p, tol), 0)
