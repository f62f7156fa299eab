"""The almost paracontact almost paracomplex Riemannian structure.

The structure (phi, xi, eta, g) is always expressed in the adapted frame
{e0, e1, e2}: xi = e0, eta = e^0, phi swaps e1 and e2 and kills e0, and the
metric is the identity.  Frame dependence lives entirely in the hypersurface
and frame modules; here phi, xi and eta are read-only constants, column j of
PHI holding the components of phi(e_j).
"""

from __future__ import annotations

import numpy as np

from .tensors import DIM, _frozen, max_abs

PHI = _frozen([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
XI = _frozen([1.0, 0.0, 0.0])
ETA = _frozen([1.0, 0.0, 0.0])


def metric_compat(g) -> np.ndarray:
    """Residual of g(phi x, phi y) = g(x, y) - eta(x) eta(y) for the metric g,
    one value per point: the only axiom that reads the metric."""
    return max_abs(PHI.T @ g @ PHI - (g - np.outer(ETA, ETA)), 2)


def verify_axioms(g) -> dict[str, float | np.ndarray]:
    """Check the defining axioms of the structure against the metric g and
    report residuals.

    phi^2 = I - eta (x) xi,  eta(xi) = 1,  eta o phi = 0,  phi xi = 0,
    tr phi = 0,  g(phi x, phi y) = g(x, y) - eta(x) eta(y).
    """
    return {
        "phi_squared": max_abs(PHI @ PHI - (np.eye(DIM) - np.outer(XI, ETA)), 2),
        "eta_xi": np.abs(ETA @ XI - 1.0),
        "eta_phi": max_abs(ETA @ PHI, 1),
        "phi_xi": max_abs(PHI @ XI, 1),
        "trace_phi": np.abs(np.trace(PHI)),
        "metric_compat": metric_compat(g),
    }
