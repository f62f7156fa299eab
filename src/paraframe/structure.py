"""The almost paracontact almost paracomplex Riemannian structure.

The structure (phi, xi, eta, g) is always expressed in the adapted frame
{e0, e1, e2}, where phi swaps e1 and e2, kills e0, and the metric is the
identity.  Frame dependence lives entirely in the hypersurface and frame
modules; here phi has constant components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import DIM, _frozen, as_tensor, max_abs


@dataclass(frozen=True, eq=False)
class AprStructure:
    """Structure tensors in the adapted frame.

    phi:    matrix of the endomorphism, column j = components of phi(e_j)
    xi:     Reeb field components
    eta:    dual 1-form components
    metric: frame metric (identity for an orthonormal frame)

    Leading axes index the points of a batch; the fields broadcast.
    """

    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    metric: np.ndarray

    def __post_init__(self):
        for name, rank in (("phi", 2), ("xi", 1), ("eta", 1), ("metric", 2)):
            t = as_tensor(getattr(self, name), rank, batched=True)
            object.__setattr__(self, name, _frozen(t))


def standard_structure() -> AprStructure:
    """The adapted-frame structure: phi e0 = 0, phi e1 = e2, phi e2 = e1."""
    phi = np.zeros((DIM, DIM))
    phi[2, 1] = 1.0
    phi[1, 2] = 1.0
    xi = np.array([1.0, 0.0, 0.0])
    eta = np.array([1.0, 0.0, 0.0])
    return AprStructure(phi=phi, xi=xi, eta=eta, metric=np.eye(DIM))


#: The adapted-frame structure, built and validated once.
STANDARD = standard_structure()


def metric_compat(s: AprStructure, g) -> np.ndarray:
    """Residual of g(phi x, phi y) = g(x, y) - eta(x) eta(y) for the metric g,
    one value per point: the only axiom that reads the metric."""
    eta_eta = np.einsum("...i,...j->...ij", s.eta, s.eta)
    return max_abs(np.swapaxes(s.phi, -1, -2) @ g @ s.phi - (g - eta_eta), 2)


def verify_axioms(s: AprStructure) -> dict[str, float | np.ndarray]:
    """Check the defining axioms of the structure and report residuals.

    phi^2 = I - eta (x) xi,  eta(xi) = 1,  eta o phi = 0,  phi xi = 0,
    tr phi = 0,  g(phi x, phi y) = g(x, y) - eta(x) eta(y).
    """
    p, xi, eta = s.phi, s.xi, s.eta
    xi_eta = np.einsum("...i,...j->...ij", xi, eta)
    return {
        "phi_squared": max_abs(p @ p - (np.eye(DIM) - xi_eta), 2),
        "eta_xi": np.abs(np.einsum("...i,...i->...", eta, xi) - 1.0),
        "eta_phi": max_abs(np.einsum("...i,...ij->...j", eta, p), 1),
        "phi_xi": max_abs(np.einsum("...ij,...j->...i", p, xi), 1),
        "trace_phi": np.abs(np.trace(p, axis1=-2, axis2=-1)),
        "metric_compat": metric_compat(s, s.metric),
    }
