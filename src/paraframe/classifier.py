"""Fundamental tensor, Lee forms and class decomposition.

The covariant derivative of the structure endomorphism is encoded by the
(0,3)-tensor F(x, y, z) = g((nabla_x phi) y, z).  Its pointwise symmetry
type decides the class of the manifold: in dimension 3 only the basic
classes F1, F4, F5, F8, F9, F10, F11 (and direct sums) can occur, and each
admissible class contributes one explicit component tensor parametrized by
the Lee forms.  The decomposition residual flags any F that does not come
from a valid structure.  Every function works in the adapted frame of
`structure` (xi = e0, phi swapping e1 and e2) and reads its constants; each
contraction by phi, xi or eta only copies entries, so it is a gather
(`tensors.gather`), bitwise the einsum it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import ConnectionCoeffs
from .structure import ETA, PHI, XI
from .tensors import DIM, as_tensor, gather, gather_table, max_abs

#: Classes that can be nonzero in dimension 3; F2, F3, F6, F7 vanish identically.
ADMISSIBLE_CLASSES = (1, 4, 5, 8, 9, 10, 11)

#: The scalar parameters of the class components, in their report order.
PARAMS = ("theta_0", "theta_1", "theta_2", "theta_star_0", "omega_1", "omega_2", "lam", "mu", "nu")


@dataclass(frozen=True, eq=False)
class LeeForms:
    """Metric traces of F over the paracontact slots.

    theta[k]      sum_i F(e_i, e_i, e_k),      i in {1, 2}
    theta_star[k] sum_i F(e_i, phi e_i, e_k),  i in {1, 2}
    omega[k]      F(xi, xi, e_k)

    Leading axes index the points of a batch.
    """

    theta: np.ndarray
    theta_star: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True, eq=False)
class FDecomposition:
    """Class components of F with the scalar parameters that build them.

    components[s] is the tensor of class s; params holds the PARAMS, in
    order; residual is the max-norm of F minus the sum of all components.
    For a batch, every entry carries the batch's leading axes.
    """

    components: dict[int, np.ndarray]
    params: dict[str, float | np.ndarray]
    residual: float | np.ndarray


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


#: The contractions of Gamma in F, and of F in the symmetry and nabla-eta
#: identities, by the constants phi, xi and eta: gathers (see `gather_table`).
_F_TERMS = gather_table(("mj,...imk->...ijk", PHI, None), ("km,...ijm->...ijk", PHI, None))
_REBUILT_TERMS = gather_table(
    ("aj,bk,...iab->...ijk", PHI, PHI, None),
    ("j,...imk,m->...ijk", ETA, None, XI),
    ("k,...ijm,m->...ijk", ETA, None, XI),
)
_NABLA_ETA_TERMS = gather_table(("mj,...imk,k->...ij", PHI, None, XI))


def fundamental_tensor(conn: ConnectionCoeffs) -> np.ndarray:
    """F[i, j, k] = g((nabla_{e_i} phi) e_j, e_k) in the adapted frame.

    phi has constant frame components, so the covariant derivative reduces
    to two Gamma contractions.
    """
    phi_gamma, gamma_phi = gather(conn.gamma, _F_TERMS, 3)
    return phi_gamma - gamma_phi


def f_symmetry_residuals(f: np.ndarray):
    """Max-norms of the two defining symmetry properties of F, per point.

    First: F(x, y, z) = F(x, z, y).  Second: F(x, y, z) =
    -F(x, phi y, phi z) + eta(y) F(x, xi, z) + eta(z) F(x, y, xi).
    """
    f = as_tensor(f, 3, batched=True)
    first = max_abs(f - np.swapaxes(f, -2, -1), 3)
    phi_phi, eta_xi_y, eta_xi_z = gather(f, _REBUILT_TERMS, 3)
    rebuilt = -phi_phi + eta_xi_y + eta_xi_z
    return first, max_abs(f - rebuilt, 3)


def lee_forms(f: np.ndarray) -> LeeForms:
    """Lee forms of F in the orthonormal adapted frame."""
    f = as_tensor(f, 3, batched=True)
    theta = f[..., 1, 1, :] + f[..., 2, 2, :]
    theta_star = f[..., 1, 2, :] + f[..., 2, 1, :]
    omega = f[..., 0, 0, :].copy()
    return LeeForms(theta=theta, theta_star=theta_star, omega=omega)


def _sym01(j: int, k: int) -> np.ndarray:
    """Pattern tensor over (y, z): y^j z^k + y^k z^j."""
    t = np.zeros((DIM, DIM))
    t[j, k] += 1.0
    t[k, j] += 1.0
    return t


def _outer(i: int, pattern: np.ndarray) -> np.ndarray:
    """e_i (x) pattern."""
    return np.einsum("i,jk->ijk", np.eye(DIM)[i], pattern)


_HYP = np.diag([0.0, 1.0, -1.0])  # y^1 z^1 - y^2 z^2
_S01 = _sym01(0, 1)
_S02 = _sym01(0, 2)
#: The tensors whose multiples are the components of classes 4, 5, 8, 9, 10.
_P4 = _outer(1, _S01) + _outer(2, _S02)
_P5 = _outer(1, _S02) + _outer(2, _S01)
_P8 = _outer(1, _S01) - _outer(2, _S02)
_P9 = _outer(1, _S02) - _outer(2, _S01)
_P10 = _outer(0, _HYP)


def class_components(f: np.ndarray, lee: LeeForms) -> FDecomposition:
    """Split F into its admissible class components.

    lam, mu, nu are extracted by antisymmetrization of their defining
    component pairs, so an F violating those constraints leaves the
    mismatch in the residual instead of being silently symmetrized away.
    """
    f = as_tensor(f, 3, batched=True)
    th, ts, om = lee.theta, lee.theta_star, lee.omega
    lam = 0.5 * (f[..., 1, 1, 0] - f[..., 2, 2, 0])
    mu = 0.5 * (f[..., 1, 2, 0] - f[..., 2, 1, 0])
    nu = 0.5 * (f[..., 0, 1, 1] - f[..., 0, 2, 2])

    def times(x, pattern: np.ndarray) -> np.ndarray:
        return np.asarray(x)[..., None, None, None] * pattern

    e = np.eye(DIM)
    v1 = th[..., 1, None] * e[1] - th[..., 2, None] * e[2]
    s11 = om[..., 1, None, None] * _S01 + om[..., 2, None, None] * _S02
    comp = {
        1: np.einsum("...i,jk->...ijk", v1, _HYP),
        4: times(0.5 * th[..., 0], _P4),
        5: times(0.5 * ts[..., 0], _P5),
        8: times(lam, _P8),
        9: times(mu, _P9),
        10: times(nu, _P10),
        11: np.einsum("i,...jk->...ijk", e[0], s11),
    }
    residual = max_abs(f - sum(comp.values()), 3)
    params = {
        "theta_0": th[..., 0],
        "theta_1": th[..., 1],
        "theta_2": th[..., 2],
        "theta_star_0": ts[..., 0],
        "omega_1": om[..., 1],
        "omega_2": om[..., 2],
        "lam": lam,
        "mu": mu,
        "nu": nu,
    }
    return FDecomposition(components=comp, params=params, residual=residual)


def classification_tol(f: np.ndarray):
    """Relative zero threshold, per point: components shrink like 1/r at
    large radius."""
    return 1e-8 * np.maximum(1.0, max_abs(f, 3))


def classify(d: FDecomposition, tol) -> ClassLabel | list[ClassLabel]:
    """Detected class set: every class whose component exceeds tol.

    For a batch (one leading axis, tol one value per point or one for all),
    a list with one label per point; the points of one class pattern share
    one label.
    """
    if np.any(d.residual > tol):
        raise ValueError(
            f"F outside the admissible 3-dim class span (residual {np.max(d.residual):.3e})"
        )
    sizes = max_abs(np.stack([d.components[s] for s in ADMISSIBLE_CLASSES], axis=-4), 3)
    present = sizes > np.asarray(tol)[..., None]
    rows = [tuple(row) for row in present.reshape(-1, len(ADMISSIBLE_CLASSES)).tolist()]
    made = {
        row: ClassLabel(
            classes=tuple(s for s, on in zip(ADMISSIBLE_CLASSES, row) if on), is_f0=not any(row)
        )
        for row in dict.fromkeys(rows)
    }
    labels = [made[row] for row in rows]
    return labels if present.ndim > 1 else labels[0]


def check_nabla_eta_relation(conn: ConnectionCoeffs, f: np.ndarray):
    """Residual of (nabla_x eta)(y) = -F(x, phi y, xi) over all frame pairs,
    per point."""
    f = as_tensor(f, 3, batched=True)
    lhs = conn.gamma[..., :, 0, :]
    (phi_xi,) = gather(f, _NABLA_ETA_TERMS, 3)
    rhs = -phi_xi
    return max_abs(lhs - rhs, 2)
