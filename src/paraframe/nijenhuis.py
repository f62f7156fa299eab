"""Nijenhuis tensor and its associated symmetric companion.

Two independent routes are provided.  The authoritative one expresses both
tensors through F, which pins the sign convention; the direct route builds
them from frame brackets and symmetrized covariant derivatives and exists
as a cross-check oracle.  Every function keeps the leading (batch) axes of
its tensor arguments.
"""

from __future__ import annotations

import numpy as np

from .frame import ConnectionCoeffs, StructureField, d_eta, lie_xi_g
from .structure import AprStructure
from .tensors import as_tensor


def nijenhuis_from_F(f: np.ndarray, s: AprStructure) -> np.ndarray:
    """N(x,y,z) = F(phi x,y,z) - F(phi y,x,z) - F(x,y,phi z) + F(y,x,phi z)
    + eta(z) { F(x,phi y,xi) - F(y,phi x,xi) }."""
    f = as_tensor(f, 3, batched=True)
    p, eta, xi = s.phi, s.eta, s.xi
    n = np.einsum("mi,...mjk->...ijk", p, f) - np.einsum("mj,...mik->...ijk", p, f)
    n -= np.einsum("mk,...ijm->...ijk", p, f) - np.einsum("mk,...jim->...ijk", p, f)
    corr = np.einsum("mj,...ims,s->...ij", p, f, xi) - np.einsum("mi,...jms,s->...ij", p, f, xi)
    n += np.einsum("k,...ij->...ijk", eta, corr)
    return n


def assoc_nijenhuis_from_F(f: np.ndarray, s: AprStructure) -> np.ndarray:
    """Symmetric companion: same expansion with all cross terms added."""
    f = as_tensor(f, 3, batched=True)
    p, eta, xi = s.phi, s.eta, s.xi
    n = np.einsum("mi,...mjk->...ijk", p, f) + np.einsum("mj,...mik->...ijk", p, f)
    n -= np.einsum("mk,...ijm->...ijk", p, f) + np.einsum("mk,...jim->...ijk", p, f)
    corr = np.einsum("mj,...ims,s->...ij", p, f, xi) + np.einsum("mi,...jms,s->...ij", p, f, xi)
    n += np.einsum("k,...ij->...ijk", eta, corr)
    return n


def nijenhuis_direct(
    conn: ConnectionCoeffs, sf: StructureField, s: AprStructure
) -> tuple[np.ndarray, np.ndarray]:
    """Both tensors from brackets and the connection, bypassing F.

    N(x,y)    = [phi,phi](x,y) - d eta(x,y) xi
    N_hat(x,y) = {phi,phi}(x,y) - (L_xi g)(x,y) xi

    Frame vectors have constant phi components, so every bracketed term is
    a contraction of c (antisymmetric part) or gamma (symmetrized part).
    """
    p = s.phi
    psq = p @ p
    eta = s.eta

    def torsion_like(b: np.ndarray, correction: np.ndarray) -> np.ndarray:
        out = np.einsum("ai,bj,...abk->...ijk", p, p, b)
        out += np.einsum("...ijm,km->...ijk", b, psq)
        out -= np.einsum("ai,...ajm,km->...ijk", p, b, p)
        out -= np.einsum("bj,...ibm,km->...ijk", p, b, p)
        out -= np.einsum("...ij,k->...ijk", correction, eta)
        return out

    sym = conn.gamma + np.swapaxes(conn.gamma, -3, -2)
    return torsion_like(sf.c, d_eta(conn)), torsion_like(sym, lie_xi_g(conn))
