"""Closed-form reference values for the built-in models.

Every tensor the pipeline computes has a hand-transcribed counterpart here,
parametrized by (r, u), from the bracket data c and dc of the orthonormal
frame to the curvature.  These are the verification targets of the
report's chunk analysis, which every command runs (a point command on a
chunk of one point); none of them call back into the pipeline.  Each closed
form is a batched stage, like `immerse`: one call gives the targets at every
point of a chunk, each row bitwise the closed form at that point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .classifier import PARAMS
from .jets import _elementwise
from .structure import ETA
from .tensors import DIM, max_abs

if TYPE_CHECKING:  # hypersurface imports this module
    from .hypersurface import ModelPoint, PointBatch
    from .report import PointAnalysis


@dataclass(frozen=True, eq=False)
class ModelReference:
    """Expected frame tensors of a model at one point, or at each point of a
    batch: then every array, `tau`, `tau_star`, `sectional` and every value
    of `lee_params` included, has a leading point axis, and `classes`, the
    model's own, is shared; at one point nothing has a point axis.

    c[..., i, j, k] and dc[..., l, i, j, k] are the bracket data of the
    orthonormal frame, laid out like StructureField.
    """

    c: np.ndarray
    dc: np.ndarray
    gamma: np.ndarray
    f: np.ndarray
    nijenhuis: np.ndarray
    assoc_nijenhuis: np.ndarray
    curvature: np.ndarray
    ricci: np.ndarray
    ricci_star: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    sectional: np.ndarray
    classes: tuple[int, ...]
    lee_params: Mapping[str, np.ndarray]
    d_eta: np.ndarray
    nabla_xi_xi: np.ndarray

    def __post_init__(self):
        # read-only: every check of a chunk reads these same targets
        for value in (*vars(self).values(), *self.lee_params.values()):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        object.__setattr__(self, "lee_params", MappingProxyType(self.lee_params))


#: d_ik d_jl - d_il d_jk, the curvature tensor of unit constant curvature
#: up to sign.
_DD = np.einsum("ik,jl->ijkl", np.eye(DIM), np.eye(DIM)) - np.einsum(
    "il,jk->ijkl", np.eye(DIM), np.eye(DIM)
)


def _square(x: float) -> float:
    """Python's x**2, which is not always bitwise x * x."""
    return x**2


# The closed forms take r (...) and u (..., 3) for any leading point axes.
# Each value of math.sin, math.tan, ... and each x**2 is taken per element,
# as Python floats, because numpy's np.sin, np.tan, ... and x * x differ from
# them in the last bit at some inputs; + - * / are the same as arrays.


def s1_reference(r: float | np.ndarray, u: np.ndarray) -> ModelReference:
    r, u1 = np.asarray(r, dtype=float), np.asarray(u, dtype=float)[..., 1]
    shape = r.shape
    sin, cos = _elementwise(math.sin, u1), _elementwise(math.cos, u1)
    r2 = _elementwise(_square, r)
    cot = cos / sin
    tan = _elementwise(math.tan, u1)
    a, b = cot / r, tan / r

    bc = np.zeros(shape + (DIM, DIM, DIM))
    bc[..., 0, 1, 0] = a
    bc[..., 1, 0, 0] = -a
    bc[..., 1, 2, 2] = b
    bc[..., 2, 1, 2] = -b

    # only e_1 = (1/r) d_{u1} differentiates the bracket coefficients
    csc2 = 1.0 / _elementwise(_square, sin) / r2
    sec2 = 1.0 / _elementwise(_square, cos) / r2
    dc = np.zeros(shape + (DIM, DIM, DIM, DIM))
    dc[..., 1, 0, 1, 0] = -csc2
    dc[..., 1, 1, 0, 0] = csc2
    dc[..., 1, 1, 2, 2] = sec2
    dc[..., 1, 2, 1, 2] = -sec2

    gamma = np.zeros(shape + (DIM, DIM, DIM))
    gamma[..., 0, 0, 1] = -a
    gamma[..., 0, 1, 0] = a
    gamma[..., 2, 1, 2] = -b
    gamma[..., 2, 2, 1] = b

    f = np.zeros(shape + (DIM, DIM, DIM))
    f[..., 0, 0, 2] = f[..., 0, 2, 0] = a
    f[..., 2, 1, 1] = 2.0 * b
    f[..., 2, 2, 2] = -2.0 * b

    n = np.zeros(shape + (DIM, DIM, DIM))
    n[..., 0, 1, 0] = a
    n[..., 1, 0, 0] = -a

    hn = np.zeros(shape + (DIM, DIM, DIM))
    hn[..., 2, 2, 1] = hn[..., 1, 1, 1] = 4.0 * b
    hn[..., 1, 2, 2] = hn[..., 2, 1, 2] = -4.0 * b
    hn[..., 0, 0, 1] = -2.0 * a
    hn[..., 0, 1, 0] = hn[..., 1, 0, 0] = a

    rho = (2.0 / r2)[..., None, None] * np.eye(DIM)
    rho_star = np.zeros(shape + (DIM, DIM))
    rho_star[..., 1, 2] = rho_star[..., 2, 1] = -1.0 / r2

    deta = np.zeros(shape + (DIM, DIM))
    deta[..., 0, 1] = -a
    deta[..., 1, 0] = a

    nxx = np.zeros(shape + (DIM,))
    nxx[..., 1] = -a

    zero = np.zeros(shape)

    return ModelReference(
        c=bc,
        dc=dc,
        gamma=gamma,
        f=f,
        nijenhuis=n,
        assoc_nijenhuis=hn,
        curvature=(-1.0 / r2)[..., None, None, None, None] * _DD,
        ricci=rho,
        ricci_star=rho_star,
        tau=6.0 / r2,
        tau_star=zero,
        sectional=1.0 / r2,
        classes=(1, 11),
        lee_params={**dict.fromkeys(PARAMS, zero), "theta_2": -2.0 * b, "omega_2": a},
        d_eta=deta,
        nabla_xi_xi=nxx,
    )


def s2_reference(r: float | np.ndarray, u: np.ndarray) -> ModelReference:
    r, u1 = np.asarray(r, dtype=float), np.asarray(u, dtype=float)[..., 0]
    shape = r.shape
    sinh, cosh = _elementwise(math.sinh, u1), _elementwise(math.cosh, u1)
    r2 = _elementwise(_square, r)
    coth = cosh / sinh
    tanh = _elementwise(math.tanh, u1)
    c, t = coth / r, tanh / r

    bc = np.zeros(shape + (DIM, DIM, DIM))
    bc[..., 0, 1, 1] = -c
    bc[..., 1, 0, 1] = c
    bc[..., 0, 2, 2] = -t
    bc[..., 2, 0, 2] = t

    # only e_0 = (1/r) d_{u1} differentiates the bracket coefficients
    csch2 = 1.0 / _elementwise(_square, sinh) / r2
    sech2 = 1.0 / _elementwise(_square, cosh) / r2
    dc = np.zeros(shape + (DIM, DIM, DIM, DIM))
    dc[..., 0, 0, 1, 1] = csch2
    dc[..., 0, 1, 0, 1] = -csch2
    dc[..., 0, 0, 2, 2] = -sech2
    dc[..., 0, 2, 0, 2] = sech2

    gamma = np.zeros(shape + (DIM, DIM, DIM))
    gamma[..., 1, 0, 1] = c
    gamma[..., 1, 1, 0] = -c
    gamma[..., 2, 0, 2] = t
    gamma[..., 2, 2, 0] = -t

    f = np.zeros(shape + (DIM, DIM, DIM))
    f[..., 1, 0, 2] = f[..., 1, 2, 0] = -c
    f[..., 2, 0, 1] = f[..., 2, 1, 0] = -t

    w = 2.0 / (r * _elementwise(math.sinh, 2.0 * u1))  # equals c - t
    n = np.zeros(shape + (DIM, DIM, DIM))
    n[..., 1, 0, 1] = w
    n[..., 0, 1, 1] = -w
    n[..., 0, 2, 2] = w
    n[..., 2, 0, 2] = -w

    hn = np.zeros(shape + (DIM, DIM, DIM))
    hn[..., 1, 0, 1] = hn[..., 0, 1, 1] = w
    hn[..., 2, 0, 2] = hn[..., 0, 2, 2] = -w
    hn[..., 1, 1, 0] = hn[..., 2, 2, 0] = -2.0 * (c + t)

    rho = (-2.0 / r2)[..., None, None] * np.eye(DIM)
    rho_star = np.zeros(shape + (DIM, DIM))
    rho_star[..., 1, 2] = rho_star[..., 2, 1] = 1.0 / r2

    zero = np.zeros(shape)
    return ModelReference(
        c=bc,
        dc=dc,
        gamma=gamma,
        f=f,
        nijenhuis=n,
        assoc_nijenhuis=hn,
        curvature=(1.0 / r2)[..., None, None, None, None] * _DD,
        ricci=rho,
        ricci_star=rho_star,
        tau=-6.0 / r2,
        tau_star=zero,
        sectional=-1.0 / r2,
        classes=(5, 9),
        lee_params={**dict.fromkeys(PARAMS, zero), "theta_star_0": -(c + t),
                    "mu": 0.5 * (t - c)},
        d_eta=np.zeros(shape + (DIM, DIM)),
        nabla_xi_xi=np.zeros(shape + (DIM,)),
    )


def s1_identities(a: PointAnalysis) -> dict[str, np.ndarray]:
    """The s1 identity N = -d eta (x) xi, residual per point of batch a."""
    return {"n_plus_deta_xi": max_abs(a.nijenhuis + np.einsum("...ij,k->...ijk", a.d_eta, ETA), 3)}


def s2_identities(a: PointAnalysis) -> dict[str, np.ndarray]:
    """None beyond the closed form: s2's identities d eta = 0 and
    nabla_xi xi = 0 are its checks `d_eta_vs_closed_form` and
    `nabla_xi_xi_vs_closed_form`, whose targets are zeros."""
    return {}


def model_reference(p: ModelPoint | PointBatch) -> ModelReference:
    """Closed-form targets at p, or at each point of a batch (a leading point
    axis), as `immerse` takes them; its arrays are read-only."""
    return p.spec.closed_form(p.r, p.u)
