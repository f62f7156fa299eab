"""Moving-frame tensor calculus for almost paracontact almost paracomplex
Riemannian 3-manifolds, with built-in hypersphere models in Euclidean and
Minkowski 4-space."""

from .classifier import (
    ADMISSIBLE_CLASSES,
    ClassLabel,
    FDecomposition,
    LeeForms,
    check_nabla_eta_relation,
    class_components,
    classification_tol,
    classify,
    f_symmetry_residuals,
    fundamental_tensor,
    lee_forms,
)
from .frame import (
    ConnectionCoeffs,
    StructureField,
    curvature,
    d_eta,
    jacobi_residual,
    koszul,
    lie_xi_g,
    nabla_xi,
    nabla_xi_xi,
    sectional,
    space_form_residual,
)
from .hypersurface import (
    EUCLIDEAN,
    LORENTZIAN,
    MODELS,
    AmbientSignature,
    DomainError,
    FrameCoeffs,
    Jet3,
    ModelPoint,
    PointBatch,
    bracket_field,
    evaluate_immersion,
    immerse,
    induced_metric,
    orthonormal_frame,
    sample_points,
    sphere_residual,
    structure_field,
)
from .nijenhuis import nijenhuis_direct, nijenhuis_from_F
from .structure import verify_axioms
from .tensors import (
    DIM,
    contract_metric,
    curvature_symmetry_residuals,
    kulkarni_nomizu,
    max_abs,
    trace2,
)

__version__ = "0.1.0"
