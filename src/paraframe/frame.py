"""Connection and curvature of an orthonormal moving frame.

Input is a StructureField: the structure constants C of the frame brackets
[e_i, e_j] = C[i, j, k] e_k together with their frame-directional
derivatives.  The Koszul formula turns these into connection coefficients
Gamma[i, j, k] = g(nabla_{e_i} e_j, e_k); curvature, Ricci traces and
sectional curvatures follow algebraically.  Derivatives of Gamma reuse the
linearity of Koszul, so the frame field is the only differentiation site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import DIM, _frozen, as_tensor, kulkarni_nomizu, max_abs


@dataclass(frozen=True, eq=False)
class StructureField:
    """Structure constants of a frame at a point, or at each point of a batch.

    c[..., i, j, k]     component k of [e_i, e_j]
    dc[..., l, i, j, k] frame derivative e_l(c[i, j, k])

    Leading axes index the points of a batch (`bracket_field` of a batched
    frame); the connection and curvature functions take one point.
    """

    c: np.ndarray
    dc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(as_tensor(self.c, 3, batched=True)))
        object.__setattr__(self, "dc", _frozen(as_tensor(self.dc, 4, batched=True)))

    def antisymmetry_defect(self) -> float:
        return max(
            max_abs(self.c + np.swapaxes(self.c, -3, -2)),
            max_abs(self.dc + np.swapaxes(self.dc, -3, -2)),
        )


@dataclass(frozen=True, eq=False)
class ConnectionCoeffs:
    """Levi-Civita connection in the orthonormal frame.

    gamma[i, j, k]     g(nabla_{e_i} e_j, e_k)
    dgamma[l, i, j, k] frame derivative e_l(gamma[i, j, k])
    """

    gamma: np.ndarray
    dgamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen(as_tensor(self.gamma, 3)))
        object.__setattr__(self, "dgamma", _frozen(as_tensor(self.dgamma, 4)))

    def metric_defect(self) -> float:
        """Residual of gamma[i, j, k] = -gamma[i, k, j]."""
        return max_abs(self.gamma + np.swapaxes(self.gamma, 1, 2))

    def torsion_defect(self, sf: StructureField) -> float:
        """Residual of gamma[i, j, k] - gamma[j, i, k] = c[i, j, k]."""
        return max_abs(self.gamma - np.swapaxes(self.gamma, 0, 1) - sf.c)


def _koszul_map(c: np.ndarray) -> np.ndarray:
    # 2 g(nabla_i e_j, e_k) = C_ijk + C_kij + C_kji in an orthonormal frame
    return 0.5 * (c + np.transpose(c, (1, 2, 0)) + np.transpose(c, (2, 1, 0)))


def koszul(sf: StructureField, tol: float = 1e-12) -> ConnectionCoeffs:
    """Levi-Civita connection coefficients from structure constants."""
    if sf.antisymmetry_defect() > tol:
        raise ValueError("structure constants are not antisymmetric in (i, j)")
    gamma = _koszul_map(sf.c)
    dgamma = np.stack([_koszul_map(sf.dc[l]) for l in range(DIM)])
    return ConnectionCoeffs(gamma=gamma, dgamma=dgamma)


def curvature(conn: ConnectionCoeffs, sf: StructureField, tol: float = 1e-9) -> np.ndarray:
    """The (0,4) curvature tensor R[i, j, k, l] = g(R(e_i, e_j) e_k, e_l).

    R(x, y) = [nabla_x, nabla_y] - nabla_[x, y]; the derivative terms come
    from dgamma, everything else is bilinear in gamma and c.
    """
    defect = conn.torsion_defect(sf)
    if defect > tol:
        raise ValueError(
            f"torsion identity gamma[i,j,k] - gamma[j,i,k] = c[i,j,k] violated "
            f"(residual {defect:.3e} > {tol:.1e})"
        )
    g = conn.gamma
    r = conn.dgamma - np.swapaxes(conn.dgamma, 0, 1)
    r += np.einsum("jkm,iml->ijkl", g, g) - np.einsum("ikm,jml->ijkl", g, g)
    r -= np.einsum("ijm,mkl->ijkl", sf.c, g)
    return r


def sectional(r: np.ndarray, g: np.ndarray, x, y) -> float:
    """Sectional curvature of span{x, y}: -2 R(x,y,y,x) / (g^g)(x,y,y,x)."""
    r = as_tensor(r, 4)
    x = as_tensor(x, 1)
    y = as_tensor(y, 1)
    gg = kulkarni_nomizu(g, g)
    denom = float(np.einsum("ijkl,i,j,k,l->", gg, x, y, y, x))
    if abs(denom) < 1e-12:
        raise ValueError("degenerate 2-plane: (g^g)(x,y,y,x) vanishes")
    num = float(np.einsum("ijkl,i,j,k,l->", r, x, y, y, x))
    return -2.0 * num / denom


def space_form_residual(r: np.ndarray, g: np.ndarray, kappa: float) -> float:
    """Max-norm of R + (kappa/2) g^g; zero iff constant sectional curvature kappa."""
    return max_abs(as_tensor(r, 4) + 0.5 * kappa * kulkarni_nomizu(g, g))


def nabla_xi(conn: ConnectionCoeffs) -> np.ndarray:
    """(nabla eta)[i, j] = g(nabla_{e_i} xi, e_j), with xi = e0."""
    return np.array(conn.gamma[:, 0, :])


def nabla_xi_xi(conn: ConnectionCoeffs) -> np.ndarray:
    """Components of nabla_xi xi; zero iff the Reeb curves are geodesic."""
    return np.array(conn.gamma[0, 0, :])


def d_eta(conn: ConnectionCoeffs) -> np.ndarray:
    """Exterior derivative: d eta(x, y) = (nabla_x eta) y - (nabla_y eta) x."""
    n = nabla_xi(conn)
    return n - n.T


def lie_xi_g(conn: ConnectionCoeffs) -> np.ndarray:
    """Lie derivative of g along xi: (nabla_x eta) y + (nabla_y eta) x."""
    n = nabla_xi(conn)
    return n + n.T


def jacobi_residual(sf: StructureField) -> float:
    """Max-norm of the Jacobi identity for the frame bracket.

    Checks the consistency of c with dc: the cyclic sum over (i, j, k) of
    e_i(c[j, k, l]) + c[j, k, m] c[i, m, l] must vanish.
    """
    term = sf.dc + np.einsum("jkm,iml->ijkl", sf.c, sf.c)
    cyc = term + np.transpose(term, (1, 2, 0, 3)) + np.transpose(term, (2, 0, 1, 3))
    return max_abs(cyc)
