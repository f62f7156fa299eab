"""Fundamental tensor, Lee forms and class decomposition.

The covariant derivative of the structure endomorphism is encoded by the
(0,3)-tensor F(x, y, z) = g((nabla_x phi) y, z).  Its pointwise symmetry
type decides the class of the manifold: in dimension 3 only the basic
classes F1, F4, F5, F8, F9, F10, F11 (and direct sums) can occur, and each
admissible class contributes one explicit component tensor parametrized by
the Lee forms.  The decomposition residual flags any F that does not come
from a valid structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import ConnectionCoeffs
from .structure import AprStructure
from .tensors import DIM, as_tensor, max_abs

#: Classes that can be nonzero in dimension 3; F2, F3, F6, F7 vanish identically.
ADMISSIBLE_CLASSES = (1, 4, 5, 8, 9, 10, 11)


@dataclass(frozen=True)
class LeeForms:
    """Metric traces of F over the paracontact slots.

    theta[k]      sum_i F(e_i, e_i, e_k),      i in {1, 2}
    theta_star[k] sum_i F(e_i, phi e_i, e_k),  i in {1, 2}
    omega[k]      F(xi, xi, e_k)
    """

    theta: np.ndarray
    theta_star: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class FDecomposition:
    """Class components of F with the scalar parameters that build them.

    components[s] is the tensor of class s; params holds theta_0, theta_1,
    theta_2, theta_star_0, omega_1, omega_2, lam, mu, nu; residual is the
    max-norm of F minus the sum of all components.
    """

    components: dict[int, np.ndarray]
    params: dict[str, float]
    residual: float


@dataclass(frozen=True)
class ClassLabel:
    """Detected class membership; empty classes with small residual mean F = 0."""

    classes: tuple[int, ...]
    is_f0: bool

    @property
    def name(self) -> str:
        if self.is_f0:
            return "F0"
        return " + ".join(f"F{s}" for s in self.classes)


def fundamental_tensor(conn: ConnectionCoeffs, s: AprStructure) -> np.ndarray:
    """F[i, j, k] = g((nabla_{e_i} phi) e_j, e_k) in the adapted frame.

    phi has constant frame components, so the covariant derivative reduces
    to two Gamma contractions.
    """
    p = s.phi
    g = conn.gamma
    return np.einsum("mj,imk->ijk", p, g) - np.einsum("km,ijm->ijk", p, g)


def f_symmetry_residuals(f: np.ndarray, s: AprStructure) -> tuple[float, float]:
    """Max-norms of the two defining symmetry properties of F.

    First: F(x, y, z) = F(x, z, y).  Second: F(x, y, z) =
    -F(x, phi y, phi z) + eta(y) F(x, xi, z) + eta(z) F(x, y, xi).
    """
    f = as_tensor(f, 3)
    p, eta = s.phi, s.eta
    first = max_abs(f - np.swapaxes(f, 1, 2))
    rebuilt = (
        -np.einsum("aj,bk,iab->ijk", p, p, f)
        + np.einsum("j,imk,m->ijk", eta, f, s.xi)
        + np.einsum("k,ijm,m->ijk", eta, f, s.xi)
    )
    return first, max_abs(f - rebuilt)


def lee_forms(f: np.ndarray) -> LeeForms:
    """Lee forms of F in the orthonormal adapted frame."""
    f = as_tensor(f, 3)
    theta = f[1, 1, :] + f[2, 2, :]
    theta_star = f[1, 2, :] + f[2, 1, :]
    omega = f[0, 0, :].copy()
    return LeeForms(theta=theta, theta_star=theta_star, omega=omega)


def _sym01(j: int, k: int) -> np.ndarray:
    """Pattern tensor over (y, z): y^j z^k + y^k z^j."""
    t = np.zeros((DIM, DIM))
    t[j, k] += 1.0
    t[k, j] += 1.0
    return t


_HYP = np.diag([0.0, 1.0, -1.0])  # y^1 z^1 - y^2 z^2
_S01 = _sym01(0, 1)
_S02 = _sym01(0, 2)


def class_components(f: np.ndarray, lee: LeeForms) -> FDecomposition:
    """Split F into its admissible class components.

    lam, mu, nu are extracted by antisymmetrization of their defining
    component pairs, so an F violating those constraints leaves the
    mismatch in the residual instead of being silently symmetrized away.
    """
    f = as_tensor(f, 3)
    th, ts, om = lee.theta, lee.theta_star, lee.omega
    lam = 0.5 * (f[1, 1, 0] - f[2, 2, 0])
    mu = 0.5 * (f[1, 2, 0] - f[2, 1, 0])
    nu = 0.5 * (f[0, 1, 1] - f[0, 2, 2])

    e1 = np.array([0.0, 1.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    e0 = np.array([1.0, 0.0, 0.0])

    comp = {
        1: np.einsum("i,jk->ijk", th[1] * e1 - th[2] * e2, _HYP),
        4: 0.5 * th[0] * (np.einsum("i,jk->ijk", e1, _S01) + np.einsum("i,jk->ijk", e2, _S02)),
        5: 0.5 * ts[0] * (np.einsum("i,jk->ijk", e1, _S02) + np.einsum("i,jk->ijk", e2, _S01)),
        8: lam * (np.einsum("i,jk->ijk", e1, _S01) - np.einsum("i,jk->ijk", e2, _S02)),
        9: mu * (np.einsum("i,jk->ijk", e1, _S02) - np.einsum("i,jk->ijk", e2, _S01)),
        10: nu * np.einsum("i,jk->ijk", e0, _HYP),
        11: np.einsum("i,jk->ijk", e0, om[1] * _S01 + om[2] * _S02),
    }
    residual = max_abs(f - sum(comp.values()))
    params = {
        "theta_0": float(th[0]),
        "theta_1": float(th[1]),
        "theta_2": float(th[2]),
        "theta_star_0": float(ts[0]),
        "omega_1": float(om[1]),
        "omega_2": float(om[2]),
        "lam": float(lam),
        "mu": float(mu),
        "nu": float(nu),
    }
    return FDecomposition(components=comp, params=params, residual=residual)


def classification_tol(f: np.ndarray) -> float:
    """Relative zero threshold: components shrink like 1/r at large radius."""
    return 1e-8 * max(1.0, max_abs(f))


def classify(d: FDecomposition, tol: float) -> ClassLabel:
    """Detected class set: every class whose component exceeds tol."""
    if d.residual > tol:
        raise ValueError(
            f"F outside the admissible 3-dim class span (residual {d.residual:.3e})"
        )
    classes = tuple(s for s in ADMISSIBLE_CLASSES if max_abs(d.components[s]) > tol)
    return ClassLabel(classes=classes, is_f0=not classes)


def check_nabla_eta_relation(
    conn: ConnectionCoeffs, f: np.ndarray, s: AprStructure
) -> float:
    """Residual of (nabla_x eta)(y) = -F(x, phi y, xi) over all frame pairs."""
    f = as_tensor(f, 3)
    lhs = conn.gamma[:, 0, :]
    rhs = -np.einsum("mj,imk,k->ij", s.phi, f, s.xi)
    return max_abs(lhs - rhs)
