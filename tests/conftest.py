from types import SimpleNamespace

import numpy as np
import pytest

from paraframe import (
    bracket_field,
    fundamental_tensor,
    immerse,
    koszul,
    orthonormal_frame,
    sample_points,
)
from paraframe.hypersurface import ModelPoint
from paraframe.reference import model_reference
from points import analyze_point

SEED = 42
N_POINTS = 100


def curved(v):
    """S^2 x R in Euclidean 4-space: a diagonal metric, [e0, e1] = tan(u0) e1."""
    return [v[0].cos() * v[1].cos(), v[0].cos() * v[1].sin(), v[0].sin(), v[2]]


def skew(v):
    """A non-diagonal metric in Euclidean 4-space: the Gram-Schmidt rows mix
    every coordinate direction, and the sign rule flips some rows at some
    points but not at others."""
    return [
        v[0].sinh() * v[1].cos() + v[2] * v[0],
        v[0] * v[1] * v[2],
        v[1].sin() * v[2].cosh(),
        v[0] * v[0] - v[2],
    ]


def pipeline(model: str, r: float, u) -> SimpleNamespace:
    """Run the frame pipeline at one point and hand back every stage."""
    p = ModelPoint(model=model, r=r, u=np.asarray(u, dtype=float))
    jet = immerse(p)
    fc = orthonormal_frame(jet, p.spec.signature)
    sf = bracket_field(fc)
    conn = koszul(sf)
    f = fundamental_tensor(conn)
    return SimpleNamespace(p=p, jet=jet, fc=fc, sf=sf, conn=conn, f=f)


def _batch(model: str) -> list[dict]:
    out = []
    for p in sample_points(model, N_POINTS, SEED):
        out.append(
            {
                "point": p,
                "a": analyze_point(p, 1e-9),
                "ref": model_reference(p),
            }
        )
    return out


@pytest.fixture(scope="session")
def s1_batch():
    return _batch("s1")


@pytest.fixture(scope="session")
def s2_batch():
    return _batch("s2")


@pytest.fixture(scope="session")
def batches(s1_batch, s2_batch):
    return {"s1": s1_batch, "s2": s2_batch}
