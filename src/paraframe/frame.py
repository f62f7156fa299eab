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

from .tensors import DIM, _frozen, as_tensor, kulkarni_nomizu, max_abs, permute


@dataclass(frozen=True, eq=False)
class StructureField:
    """Structure constants of a frame at a point, or at each point of a batch.

    c[..., i, j, k]     component k of [e_i, e_j]
    dc[..., l, i, j, k] frame derivative e_l(c[i, j, k])

    Leading axes index the points of a batch (`bracket_field` of a batched
    frame); every function of this module keeps them, one result per point.
    """

    c: np.ndarray
    dc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(as_tensor(self.c, 3, batched=True)))
        object.__setattr__(self, "dc", _frozen(as_tensor(self.dc, 4, batched=True)))

    def antisymmetry_defect(self):
        """max |c[i, j, k] + c[j, i, k]| over c and dc, per point."""
        return np.maximum(
            max_abs(self.c + np.swapaxes(self.c, -3, -2), 3),
            max_abs(self.dc + np.swapaxes(self.dc, -3, -2), 4),
        )


@dataclass(frozen=True, eq=False)
class ConnectionCoeffs:
    """Levi-Civita connection in the orthonormal frame, at a point or at
    each point of a batch (leading axes, as in StructureField).

    gamma[..., i, j, k]     g(nabla_{e_i} e_j, e_k)
    dgamma[..., l, i, j, k] frame derivative e_l(gamma[i, j, k])
    """

    gamma: np.ndarray
    dgamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen(as_tensor(self.gamma, 3, batched=True)))
        object.__setattr__(self, "dgamma", _frozen(as_tensor(self.dgamma, 4, batched=True)))

    def metric_defect(self):
        """Residual of gamma[i, j, k] = -gamma[i, k, j], per point."""
        return max_abs(self.gamma + np.swapaxes(self.gamma, -2, -1), 3)

    def torsion_defect(self, sf: StructureField):
        """Residual of gamma[i, j, k] - gamma[j, i, k] = c[i, j, k], per point."""
        return max_abs(self.gamma - np.swapaxes(self.gamma, -3, -2) - sf.c, 3)


def _koszul_map(c: np.ndarray) -> np.ndarray:
    # 2 g(nabla_i e_j, e_k) = C_ijk + C_kij + C_kji in an orthonormal frame
    return 0.5 * (c + permute(c, (1, 2, 0)) + permute(c, (2, 1, 0)))


#: Largest antisymmetry defect of the structure constants `koszul` accepts.
ANTISYMMETRY_TOL = 1e-12

#: Largest torsion-identity residual `curvature` accepts.
TORSION_TOL = 1e-9


def koszul(sf: StructureField) -> ConnectionCoeffs:
    """Levi-Civita connection coefficients from structure constants."""
    if np.any(sf.antisymmetry_defect() > ANTISYMMETRY_TOL):
        raise ValueError("structure constants are not antisymmetric in (i, j)")
    # the Koszul map acts on the last three axes, so dc's l axis rides along
    return ConnectionCoeffs(gamma=_koszul_map(sf.c), dgamma=_koszul_map(sf.dc))


def curvature(conn: ConnectionCoeffs, sf: StructureField) -> np.ndarray:
    """The (0,4) curvature tensor R[i, j, k, l] = g(R(e_i, e_j) e_k, e_l).

    R(x, y) = [nabla_x, nabla_y] - nabla_[x, y]; the derivative terms come
    from dgamma, everything else is bilinear in gamma and c.
    """
    defect = np.max(conn.torsion_defect(sf))
    if defect > TORSION_TOL:
        raise ValueError(
            f"torsion identity gamma[i,j,k] - gamma[j,i,k] = c[i,j,k] violated "
            f"(residual {defect:.3e} > {TORSION_TOL:.1e})"
        )
    g = conn.gamma
    r = conn.dgamma - np.swapaxes(conn.dgamma, -4, -3)
    r += np.einsum("...jkm,...iml->...ijkl", g, g) - np.einsum("...ikm,...jml->...ijkl", g, g)
    r -= np.einsum("...ijm,...mkl->...ijkl", sf.c, g)
    return r


#: g ^ g for the frame metric g = I, built (and checked) once.
_GG = kulkarni_nomizu(np.eye(DIM), np.eye(DIM))


def sectional(r: np.ndarray, x, y):
    """Sectional curvature of span{x, y}: -2 R(x,y,y,x) / (g^g)(x,y,y,x),
    one per point of r; a degenerate plane is a ValueError."""
    r = as_tensor(r, 4, batched=True)
    x = as_tensor(x, 1)
    y = as_tensor(y, 1)
    denom = float(np.einsum("ijkl,i,j,k,l->", _GG, x, y, y, x))
    if abs(denom) < 1e-12:
        raise ValueError("degenerate 2-plane: (g^g)(x,y,y,x) vanishes")
    num = np.einsum("...ijkl,i,j,k,l->...", r, x, y, y, x)
    return -2.0 * num / denom


def space_form_residual(r: np.ndarray, kappa):
    """Max-norm of R + (kappa/2) g^g per point; zero iff constant sectional
    curvature kappa.  kappa is one value, or one per point."""
    kappa = np.asarray(kappa, dtype=float)[..., None, None, None, None]
    return max_abs(as_tensor(r, 4, batched=True) + 0.5 * kappa * _GG, 4)


def nabla_xi(conn: ConnectionCoeffs) -> np.ndarray:
    """(nabla eta)[i, j] = g(nabla_{e_i} xi, e_j), with xi = e0."""
    return np.array(conn.gamma[..., :, 0, :])


def nabla_xi_xi(conn: ConnectionCoeffs) -> np.ndarray:
    """Components of nabla_xi xi; zero iff the Reeb curves are geodesic."""
    return np.array(conn.gamma[..., 0, 0, :])


def d_eta(conn: ConnectionCoeffs) -> np.ndarray:
    """Exterior derivative: d eta(x, y) = (nabla_x eta) y - (nabla_y eta) x."""
    n = nabla_xi(conn)
    return n - np.swapaxes(n, -1, -2)


def lie_xi_g(conn: ConnectionCoeffs) -> np.ndarray:
    """Lie derivative of g along xi: (nabla_x eta) y + (nabla_y eta) x."""
    n = nabla_xi(conn)
    return n + np.swapaxes(n, -1, -2)


def jacobi_residual(sf: StructureField):
    """Max-norm of the Jacobi identity for the frame bracket, per point.

    Checks the consistency of c with dc: the cyclic sum over (i, j, k) of
    e_i(c[j, k, l]) + c[j, k, m] c[i, m, l] must vanish.
    """
    term = sf.dc + np.einsum("...jkm,...iml->...ijkl", sf.c, sf.c)
    cyc = term + permute(term, (1, 2, 0, 3)) + permute(term, (2, 0, 1, 3))
    return max_abs(cyc, 4)
