"""Closed-form reference values for the built-in models.

Every tensor the pipeline computes has a hand-transcribed counterpart here,
parametrized by (r, u), from the bracket data c and dc of the orthonormal
frame to the curvature.  These are the verification targets of
`analyze_point` and the `paraframe verify` command; none of them call back
into the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .structure import ETA
from .tensors import DIM, max_abs

if TYPE_CHECKING:  # hypersurface imports this module
    from .hypersurface import ModelPoint
    from .report import PointAnalysis


@dataclass(frozen=True, eq=False)
class ModelReference:
    """Expected frame tensors of a model at one point.

    c[i, j, k] and dc[l, i, j, k] are the bracket data of the orthonormal
    frame, laid out like StructureField.
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
    tau: float
    tau_star: float
    sectional: float
    classes: tuple[int, ...]
    lee_params: Mapping[str, float]
    d_eta: np.ndarray
    nabla_xi_xi: np.ndarray

    def __post_init__(self):
        # read-only, as the points of a chunk with one reference_key share it
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        object.__setattr__(self, "lee_params", MappingProxyType(self.lee_params))


#: d_ik d_jl - d_il d_jk, the curvature tensor of unit constant curvature
#: up to sign.
_DD = np.einsum("ik,jl->ijkl", np.eye(DIM), np.eye(DIM)) - np.einsum(
    "il,jk->ijkl", np.eye(DIM), np.eye(DIM)
)


def _constant_curvature(sign: float, r: float) -> np.ndarray:
    """R[i,j,k,l] = s (d_ik d_jl - d_il d_jk) with s = sign / r^2."""
    return (sign / r**2) * _DD


def s1_reference(r: float, u1: float) -> ModelReference:
    cot = math.cos(u1) / math.sin(u1)
    tan = math.tan(u1)
    a, b = cot / r, tan / r

    bc = np.zeros((DIM, DIM, DIM))
    bc[0, 1, 0] = a
    bc[1, 0, 0] = -a
    bc[1, 2, 2] = b
    bc[2, 1, 2] = -b

    # only e_1 = (1/r) d_{u1} differentiates the bracket coefficients
    csc2 = 1.0 / math.sin(u1) ** 2 / r**2
    sec2 = 1.0 / math.cos(u1) ** 2 / r**2
    dc = np.zeros((DIM, DIM, DIM, DIM))
    dc[1, 0, 1, 0] = -csc2
    dc[1, 1, 0, 0] = csc2
    dc[1, 1, 2, 2] = sec2
    dc[1, 2, 1, 2] = -sec2

    gamma = np.zeros((DIM, DIM, DIM))
    gamma[0, 0, 1] = -a
    gamma[0, 1, 0] = a
    gamma[2, 1, 2] = -b
    gamma[2, 2, 1] = b

    f = np.zeros((DIM, DIM, DIM))
    f[0, 0, 2] = f[0, 2, 0] = a
    f[2, 1, 1] = 2.0 * b
    f[2, 2, 2] = -2.0 * b

    n = np.zeros((DIM, DIM, DIM))
    n[0, 1, 0] = a
    n[1, 0, 0] = -a

    hn = np.zeros((DIM, DIM, DIM))
    hn[2, 2, 1] = hn[1, 1, 1] = 4.0 * b
    hn[1, 2, 2] = hn[2, 1, 2] = -4.0 * b
    hn[0, 0, 1] = -2.0 * a
    hn[0, 1, 0] = hn[1, 0, 0] = a

    rho = (2.0 / r**2) * np.eye(DIM)
    rho_star = np.zeros((DIM, DIM))
    rho_star[1, 2] = rho_star[2, 1] = -1.0 / r**2

    deta = np.zeros((DIM, DIM))
    deta[0, 1] = -a
    deta[1, 0] = a

    nxx = np.array([0.0, -a, 0.0])

    return ModelReference(
        c=bc,
        dc=dc,
        gamma=gamma,
        f=f,
        nijenhuis=n,
        assoc_nijenhuis=hn,
        curvature=_constant_curvature(-1.0, r),
        ricci=rho,
        ricci_star=rho_star,
        tau=6.0 / r**2,
        tau_star=0.0,
        sectional=1.0 / r**2,
        classes=(1, 11),
        lee_params={
            "theta_0": 0.0,
            "theta_1": 0.0,
            "theta_2": -2.0 * b,
            "theta_star_0": 0.0,
            "omega_1": 0.0,
            "omega_2": a,
            "lam": 0.0,
            "mu": 0.0,
            "nu": 0.0,
        },
        d_eta=deta,
        nabla_xi_xi=nxx,
    )


def s2_reference(r: float, u1: float) -> ModelReference:
    coth = math.cosh(u1) / math.sinh(u1)
    tanh = math.tanh(u1)
    c, t = coth / r, tanh / r

    bc = np.zeros((DIM, DIM, DIM))
    bc[0, 1, 1] = -c
    bc[1, 0, 1] = c
    bc[0, 2, 2] = -t
    bc[2, 0, 2] = t

    # only e_0 = (1/r) d_{u1} differentiates the bracket coefficients
    csch2 = 1.0 / math.sinh(u1) ** 2 / r**2
    sech2 = 1.0 / math.cosh(u1) ** 2 / r**2
    dc = np.zeros((DIM, DIM, DIM, DIM))
    dc[0, 0, 1, 1] = csch2
    dc[0, 1, 0, 1] = -csch2
    dc[0, 0, 2, 2] = -sech2
    dc[0, 2, 0, 2] = sech2

    gamma = np.zeros((DIM, DIM, DIM))
    gamma[1, 0, 1] = c
    gamma[1, 1, 0] = -c
    gamma[2, 0, 2] = t
    gamma[2, 2, 0] = -t

    f = np.zeros((DIM, DIM, DIM))
    f[1, 0, 2] = f[1, 2, 0] = -c
    f[2, 0, 1] = f[2, 1, 0] = -t

    w = 2.0 / (r * math.sinh(2.0 * u1))  # equals c - t
    n = np.zeros((DIM, DIM, DIM))
    n[1, 0, 1] = w
    n[0, 1, 1] = -w
    n[0, 2, 2] = w
    n[2, 0, 2] = -w

    hn = np.zeros((DIM, DIM, DIM))
    hn[1, 0, 1] = hn[0, 1, 1] = w
    hn[2, 0, 2] = hn[0, 2, 2] = -w
    hn[1, 1, 0] = hn[2, 2, 0] = -2.0 * (c + t)

    rho = (-2.0 / r**2) * np.eye(DIM)
    rho_star = np.zeros((DIM, DIM))
    rho_star[1, 2] = rho_star[2, 1] = 1.0 / r**2

    return ModelReference(
        c=bc,
        dc=dc,
        gamma=gamma,
        f=f,
        nijenhuis=n,
        assoc_nijenhuis=hn,
        curvature=_constant_curvature(1.0, r),
        ricci=rho,
        ricci_star=rho_star,
        tau=-6.0 / r**2,
        tau_star=0.0,
        sectional=-1.0 / r**2,
        classes=(5, 9),
        lee_params={
            "theta_0": 0.0,
            "theta_1": 0.0,
            "theta_2": 0.0,
            "theta_star_0": -(c + t),
            "omega_1": 0.0,
            "omega_2": 0.0,
            "lam": 0.0,
            "mu": 0.5 * (t - c),
            "nu": 0.0,
        },
        d_eta=np.zeros((DIM, DIM)),
        nabla_xi_xi=np.zeros(DIM),
    )


def s1_identities(a: PointAnalysis) -> dict[str, np.ndarray]:
    """The s1 identity N = -d eta (x) xi, residual per point of batch a."""
    return {"n_plus_deta_xi": max_abs(a.nijenhuis + np.einsum("...ij,k->...ijk", a.d_eta, ETA), 3)}


def s2_identities(a: PointAnalysis) -> dict[str, np.ndarray]:
    """The s2 identities d eta = 0 and nabla_xi xi = 0, per point of batch a."""
    return {"d_eta_zero": max_abs(a.d_eta, 2), "nabla_xi_xi_zero": max_abs(a.nabla_xi_xi, 1)}


def reference_key(p: ModelPoint) -> tuple[str, float, float]:
    """What `model_reference` reads of p: model, r and the coordinate of u its
    record names.  Points with equal keys have bitwise equal references."""
    return p.model, p.r, float(p.u[p.spec.reference_coord])


def model_reference(p: ModelPoint) -> ModelReference:
    """Closed-form targets for a built-in model at p; its arrays are read-only."""
    _, r, u1 = reference_key(p)
    return p.spec.closed_form(r, u1)
