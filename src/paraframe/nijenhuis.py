"""Nijenhuis tensor and its associated symmetric companion.

Two independent routes are provided.  The authoritative one expresses both
tensors through F, which pins the sign convention; the direct route builds
them from frame brackets and symmetrized covariant derivatives and exists
as a cross-check oracle.  Each route returns the pair (N, N_hat).  Both
read phi, xi and eta from the constants of `structure` and contract them by
gather (`tensors.gather`): each such contraction only copies entries, and
the gather is bitwise its einsum.  Every function keeps the leading (batch)
axes of its tensor arguments.
"""

from __future__ import annotations

import numpy as np

from .frame import ConnectionCoeffs, StructureField, d_eta, lie_xi_g
from .structure import ETA, PHI, XI
from .tensors import as_tensor, gather, gather_table

#: The contractions of F (rank-3 terms, then the two rank-2 corrections) and
#: of a bracket-type tensor b by the constants phi, xi and eta, as gathers (see
#: `gather_table`); `_ETA_K` and `_K_ETA` put a rank-2 tensor in the slots (i, j, 0).
_F_TERMS = gather_table(
    ("mi,...mjk->...ijk", PHI, None),
    ("mj,...mik->...ijk", PHI, None),
    ("mk,...ijm->...ijk", PHI, None),
    ("mk,...jim->...ijk", PHI, None),
)
_F_CORRECTIONS = gather_table(
    ("mj,...ims,s->...ij", PHI, None, XI), ("mi,...jms,s->...ij", PHI, None, XI)
)
_ETA_K = gather_table(("k,...ij->...ijk", ETA, None))
_B_TERMS = gather_table(
    ("ai,bj,...abk->...ijk", PHI, PHI, None),
    ("...ijm,km->...ijk", None, PHI @ PHI),
    ("ai,...ajm,km->...ijk", PHI, None, PHI),
    ("bj,...ibm,km->...ijk", PHI, None, PHI),
)
_K_ETA = gather_table(("...ij,k->...ijk", None, ETA))


def nijenhuis_from_F(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both tensors from one gather of F's contractions:

    N(x,y,z) = F(phi x,y,z) - F(phi y,x,z) - F(x,y,phi z) + F(y,x,phi z)
    + eta(z) { F(x,phi y,xi) - F(y,phi x,xi) },

    and N_hat, the same expansion with every cross term added.
    """
    f = as_tensor(f, 3, batched=True)
    t1, t2, t3, t4 = gather(f, _F_TERMS, 3)
    c1, c2 = gather(f, _F_CORRECTIONS, 3)

    def expansion(cross) -> np.ndarray:
        # cross joins each pair of cross terms: np.subtract for N, np.add for N_hat
        n = cross(t1, t2)
        n -= cross(t3, t4)
        (eta_corr,) = gather(cross(c1, c2), _ETA_K, 2)
        n += eta_corr
        return n

    return expansion(np.subtract), expansion(np.add)


def nijenhuis_direct(conn: ConnectionCoeffs, sf: StructureField) -> tuple[np.ndarray, np.ndarray]:
    """Both tensors from brackets and the connection, bypassing F.

    N(x,y)    = [phi,phi](x,y) - d eta(x,y) xi
    N_hat(x,y) = {phi,phi}(x,y) - (L_xi g)(x,y) xi

    Frame vectors have constant phi components, so every bracketed term is
    a contraction of c (antisymmetric part) or gamma (symmetrized part).
    """

    def torsion_like(b: np.ndarray, correction: np.ndarray) -> np.ndarray:
        phi_phi, psq, phi_i, phi_j = gather(b, _B_TERMS, 3)
        out = phi_phi + psq
        out -= phi_i
        out -= phi_j
        (correction_xi,) = gather(correction, _K_ETA, 2)
        out -= correction_xi
        return out

    sym = conn.gamma + np.swapaxes(conn.gamma, -3, -2)
    return torsion_like(sf.c, d_eta(conn)), torsion_like(sym, lie_xi_g(conn))
