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


@dataclass(frozen=True)
class AprStructure:
    """Structure tensors in the adapted frame.

    phi:    matrix of the endomorphism, column j = components of phi(e_j)
    xi:     Reeb field components
    eta:    dual 1-form components
    metric: frame metric (identity for an orthonormal frame)
    """

    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    metric: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _frozen(as_tensor(self.phi, 2)))
        object.__setattr__(self, "xi", _frozen(as_tensor(self.xi, 1)))
        object.__setattr__(self, "eta", _frozen(as_tensor(self.eta, 1)))
        object.__setattr__(self, "metric", _frozen(as_tensor(self.metric, 2)))


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom maximum residuals; passes iff all are within tol."""

    residuals: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())

    @property
    def failures(self) -> list[str]:
        return [k for k, v in self.residuals.items() if v > self.tol]

    @property
    def worst(self) -> float:
        return max(self.residuals.values())


def standard_structure() -> AprStructure:
    """The adapted-frame structure: phi e0 = 0, phi e1 = e2, phi e2 = e1."""
    phi = np.zeros((DIM, DIM))
    phi[2, 1] = 1.0
    phi[1, 2] = 1.0
    xi = np.array([1.0, 0.0, 0.0])
    eta = np.array([1.0, 0.0, 0.0])
    return AprStructure(phi=phi, xi=xi, eta=eta, metric=np.eye(DIM))


def phi_apply(s: AprStructure, x) -> np.ndarray:
    """Apply the structure endomorphism to a frame vector."""
    return s.phi @ as_tensor(x, 1)


def verify_axioms(s: AprStructure, tol: float = 1e-12) -> AxiomReport:
    """Check the defining axioms of the structure and report residuals.

    phi^2 = I - eta (x) xi,  eta(xi) = 1,  eta o phi = 0,  phi xi = 0,
    tr phi = 0,  g(phi x, phi y) = g(x, y) - eta(x) eta(y).
    """
    p, xi, eta, g = s.phi, s.xi, s.eta, s.metric
    residuals = {
        "phi_squared": max_abs(p @ p - (np.eye(DIM) - np.outer(xi, eta))),
        "eta_xi": abs(float(eta @ xi) - 1.0),
        "eta_phi": max_abs(eta @ p),
        "phi_xi": max_abs(p @ xi),
        "trace_phi": abs(float(np.trace(p))),
        "metric_compat": max_abs(p.T @ g @ p - (g - np.outer(eta, eta))),
    }
    return AxiomReport(residuals=residuals, tol=tol)
