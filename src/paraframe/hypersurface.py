"""Hyperspheres in 4-space and their orthonormal moving frames.

Two built-in models:

  s1  the sphere <z, z> = r^2 in Euclidean 4-space, parameters (u0, u1, u2),
      all in [0, 2pi) with u1 away from multiples of pi/2;
  s2  the time-like sphere <z, z> = -r^2 in Minkowski 4-space, parameters
      (u1, u2, u3) with u1 != 0; the induced metric is Riemannian.

The immersion is evaluated as a degree-3 Taylor jet, so every derivative in
the pipeline (frame coefficients, bracket coefficients and their frame
derivatives) is exact to machine precision.  The hand-differentiated
closed forms of the bracket data live in `reference`, next to the other
verification targets; a finite-difference jet is kept here for debugging
the jet plumbing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .frame import StructureField
from .jets import TJet, partials
from .tensors import DIM, max_abs

#: Points closer than this to an excluded parameter locus are rejected;
#: the frame normalization blows up there.
EXCLUSION = 1e-6

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """A parameter point violates its model's domain."""


@dataclass(frozen=True)
class AmbientSignature:
    """Sign of the fourth term of the ambient inner product."""

    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")

    @property
    def weights(self) -> np.ndarray:
        return np.array([1.0, 1.0, 1.0, float(self.eps)])


EUCLIDEAN = AmbientSignature(1)
LORENTZIAN = AmbientSignature(-1)


@dataclass(frozen=True)
class Jet3:
    """Degree-3 jet of an immersion into 4-space at one parameter point.

    coords holds the four ambient coordinate jets.  The arrays are their
    partials, read once: value (4,), d1[i, a] = d z^a / d u^i, and d2, d3
    the higher partials, symmetric in their parameter indices by
    construction.
    """

    coords: tuple[TJet, ...]
    value: np.ndarray = field(init=False)
    d1: np.ndarray = field(init=False)
    d2: np.ndarray = field(init=False)
    d3: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.coords) != 4:
            raise ValueError("immersion must produce 4 ambient coordinates")
        object.__setattr__(self, "coords", tuple(self.coords))
        for name, order in (("value", 0), ("d1", 1), ("d2", 2), ("d3", 3)):
            a = partials(self.coords, order)
            if not np.all(np.isfinite(a)):
                raise ValueError("jet has non-finite entries")
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class FrameCoeffs:
    """Orthonormal frame in the coordinate basis: e_i = a[i, k] d_k.

    jets[i][k] is the jet of a[i, k] in the surface parameters, valid to
    degree 2; bracket_field differentiates it.  metric is the induced
    metric G the frame was built against.
    """

    a: np.ndarray
    jets: tuple[tuple[TJet, ...], ...]
    metric: np.ndarray

    def gram_defect(self) -> float:
        return max_abs(self.a @ self.metric @ self.a.T - np.eye(DIM))


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _s1_coords(r: float, v: Sequence[TJet]) -> list[TJet]:
    u0, u1, u2 = v
    return [
        r * u1.cos() * u2.cos(),
        r * u1.cos() * u2.sin(),
        r * u1.sin() * u0.cos(),
        r * u1.sin() * u0.sin(),
    ]


def _s2_coords(r: float, v: Sequence[TJet]) -> list[TJet]:
    u1, u2, u3 = v
    return [
        r * u1.sinh() * u2.cos(),
        r * u1.sinh() * u2.sin(),
        r * u1.cosh() * u3.sinh(),
        r * u1.cosh() * u3.cosh(),
    ]


def _validate_s1(u: np.ndarray) -> None:
    for i, ui in enumerate(u):
        if not 0.0 <= ui < TWO_PI:
            raise DomainError(f"s1 parameter u{i} = {ui} outside [0, 2*pi)")
    quarter = math.pi / 2.0
    dist = min(abs(u[1] - k * quarter) for k in range(5))
    if dist < EXCLUSION:
        raise DomainError(
            f"s1 parameter u1 = {u[1]} within {EXCLUSION} of a multiple of pi/2"
        )


def _validate_s2(u: np.ndarray) -> None:
    if abs(u[0]) < EXCLUSION:
        raise DomainError(f"s2 parameter u1 = {u[0]} within {EXCLUSION} of 0")
    if not 0.0 <= u[1] < TWO_PI:
        raise DomainError(f"s2 parameter u2 = {u[1]} outside [0, 2*pi)")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    signature: AmbientSignature
    sphere_sign: int  # <z, z> = sphere_sign * r^2
    coords: Callable[[float, Sequence[TJet]], list[TJet]]
    validate: Callable[[np.ndarray], None]

    def kappa(self, r: float) -> float:
        """Constant sectional curvature of the model."""
        return self.sphere_sign / (r * r)


MODELS = {
    "s1": ModelSpec("s1", EUCLIDEAN, 1, _s1_coords, _validate_s1),
    "s2": ModelSpec("s2", LORENTZIAN, -1, _s2_coords, _validate_s2),
}


@dataclass(frozen=True)
class ModelPoint:
    """A parameter point of a built-in model."""

    model: str
    r: float
    u: np.ndarray

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {sorted(MODELS)}")
        u = np.asarray(self.u, dtype=float)
        if u.shape != (3,) or not np.all(np.isfinite(u)):
            raise ValueError("u must be 3 finite parameters")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        if not (np.isfinite(self.r) and self.r > 0.0):
            raise DomainError(f"radius must be positive, got {self.r}")
        MODELS[self.model].validate(u)

    @property
    def spec(self) -> ModelSpec:
        return MODELS[self.model]


# ---------------------------------------------------------------------------
# jet evaluation
# ---------------------------------------------------------------------------


def evaluate_immersion(
    coords: Callable[[Sequence[TJet]], Sequence[TJet | float]], u: np.ndarray
) -> Jet3:
    """Run a user-supplied jet evaluator at u and collect the 3-jet.

    Coordinates may be jets or plain numbers; numbers are constants.
    """
    seeds = [TJet.variable(i, u[i]) for i in range(DIM)]
    return Jet3(tuple(TJet._coerce(x) for x in coords(seeds)))


def immerse(p: ModelPoint) -> Jet3:
    """Full 3-jet of the model immersion at p."""
    spec = p.spec
    return evaluate_immersion(lambda v: spec.coords(p.r, v), p.u)


def sphere_residual(p: ModelPoint, jet: Jet3) -> float:
    """|<z, z> - sign * r^2| at the evaluated point."""
    w = p.spec.signature.weights
    return abs(float(np.dot(w * jet.value, jet.value)) - p.spec.sphere_sign * p.r**2)


def induced_metric(jet: Jet3, sig: AmbientSignature) -> np.ndarray:
    """First fundamental form G[i, j] = <d_i z, d_j z>; must be Riemannian."""
    w = sig.weights
    g = np.einsum("ia,a,ja->ij", jet.d1, w, jet.d1)
    if np.any(np.linalg.eigvalsh(g) <= 0.0):
        raise ValueError("induced metric not Riemannian")
    return g


def _metric_jets(tangent: list[list[TJet]], sig: AmbientSignature) -> list[list[TJet]]:
    w = sig.weights
    out = [[None] * DIM for _ in range(DIM)]
    for l in range(DIM):
        for m in range(l, DIM):
            s = TJet.constant(0.0)
            for a in range(4):
                s = s + tangent[l][a] * tangent[m][a] * w[a]
            out[l][m] = out[m][l] = s
    return out


def orthonormal_frame(jet: Jet3, sig: AmbientSignature) -> FrameCoeffs:
    """Gram-Schmidt frame coefficients, with their jets and the induced metric.

    The tangent jets d z^a / d u^i are the coordinate jets differentiated
    once, valid to degree 2.  Orthonormalization runs in jet arithmetic on
    the identity coefficient rows, so the coefficient jets fall out of the
    same computation that produces a.
    """
    metric = induced_metric(jet, sig)  # also the positive-definiteness gate
    tangent = [[jet.coords[a].deriv(i) for a in range(4)] for i in range(DIM)]
    gj = _metric_jets(tangent, sig)

    def inner(x: list[TJet], y: list[TJet]) -> TJet:
        s = TJet.constant(0.0)
        for l in range(DIM):
            for m in range(DIM):
                s = s + x[l] * gj[l][m] * y[m]
        return s

    rows: list[list[TJet]] = []
    for i in range(DIM):
        w = [TJet.constant(1.0 if k == i else 0.0) for k in range(DIM)]
        for prev in rows:
            proj = inner(w, prev)
            w = [w[k] - proj * prev[k] for k in range(DIM)]
        n2 = inner(w, w)
        if n2.value <= 1e-24:
            raise ValueError("degenerate tangent vectors: cannot orthonormalize")
        inv_norm = n2.sqrt().reciprocal()
        w = [w[k] * inv_norm for k in range(DIM)]
        # flip the row so its leading coefficient is positive; for s1 this
        # equals the quadrant sign factors sgn(sin u1), sgn(cos u1).
        row_scale = max(abs(w[k].value) for k in range(DIM))
        for k in range(DIM):
            if abs(w[k].value) > 1e-9 * row_scale:
                if w[k].value < 0.0:
                    w = [-wk for wk in w]
                break
        rows.append(tuple(w))

    return FrameCoeffs(a=partials(rows, 0), jets=tuple(rows), metric=metric)


def _det3(q: list[list[TJet]]) -> TJet:
    return (
        q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
        - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
        + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0])
    )


def _solve3(m: list[list[TJet]], inv_det: TJet, b: list[TJet]) -> list[TJet]:
    """Cramer solve of a 3x3 jet system, given the reciprocal of det(m)."""
    out = []
    for col in range(DIM):
        repl = [[b[row] if c == col else m[row][c] for c in range(DIM)] for row in range(DIM)]
        out.append(_det3(repl) * inv_det)
    return out


def bracket_field(fc: FrameCoeffs) -> StructureField:
    """Bracket coefficients of a frame, with their frame derivatives.

    [e_i, e_j] = (a[i, l] d_l a[j, m] - a[j, l] d_l a[i, m]) d_m, converted
    to frame components through the inverse coefficient matrix.  The
    products read only degree <= 1 of the frame jets and of their
    derivatives, so degree-2 frame jets give dc exactly.
    """
    aj = fc.jets
    daj = [[[aj[i][m].deriv(l) for m in range(DIM)] for i in range(DIM)] for l in range(DIM)]
    # frame components: sum_k C_ij^k a[k, m] = B_ij^m
    mat = [[aj[k][m] for k in range(DIM)] for m in range(DIM)]
    inv_det = _det3(mat).reciprocal()

    zero = TJet.constant(0.0)
    c_jets = [[[zero] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i + 1, DIM):
            b = []
            for m in range(DIM):
                s = TJet.constant(0.0)
                for l in range(DIM):
                    s = s + aj[i][l] * daj[l][j][m] - aj[j][l] * daj[l][i][m]
                b.append(s)
            c_jets[i][j] = _solve3(mat, inv_det, b)
            c_jets[j][i] = [-x for x in c_jets[i][j]]

    c = partials(c_jets, 0)
    dcoord = partials(c_jets, 1)  # dcoord[m, i, j, k] = d_m C_ij^k
    dc = np.einsum("lm,mijk->lijk", fc.a, dcoord)
    return StructureField(c=c, dc=dc)


def structure_field(p: ModelPoint) -> StructureField:
    """Bracket data of the model's orthonormal frame at p, via the jet pipeline."""
    jet = immerse(p)
    fc = orthonormal_frame(jet, p.spec.signature)
    return bracket_field(fc)


def sample_points(
    model: str, n: int, seed: int, r: float = 1.0, margin: float = 0.1
) -> list[ModelPoint]:
    """Deterministic valid parameter points, spread over the full domain.

    s1 samples all four u1 quadrants; s2 samples both u1 branches.  margin
    keeps cot/tan (or coth) bounded so identity residuals stay comparable
    across points.
    """
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        if model == "s1":
            quadrant = int(rng.integers(0, 4))
            u1 = quadrant * math.pi / 2 + rng.uniform(margin, math.pi / 2 - margin)
            u = np.array([rng.uniform(0.0, TWO_PI), u1, rng.uniform(0.0, TWO_PI)])
        elif model == "s2":
            branch = 1.0 if rng.uniform() < 0.5 else -1.0
            u = np.array(
                [branch * rng.uniform(margin, 2.5), rng.uniform(0.0, TWO_PI), rng.uniform(-2.5, 2.5)]
            )
        else:
            raise ValueError(f"unknown model {model!r}")
        points.append(ModelPoint(model=model, r=r, u=u))
    return points


# ---------------------------------------------------------------------------
# finite-difference debug oracle
# ---------------------------------------------------------------------------


def _position(p: ModelPoint, u: np.ndarray) -> np.ndarray:
    """Plain ambient position at arbitrary u (no domain check, for FD shifts)."""
    jets = p.spec.coords(p.r, [TJet.constant(ui) for ui in u])
    return np.array([j.value for j in jets])


def fd_jet(
    p: ModelPoint, step: float = 1e-4
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference 3-jet, Richardson extrapolated; debug oracle only.

    Returns (value, d1, d2, d3), laid out like the arrays of Jet3.  Third
    partials use a coarser step, where roundoff would otherwise dominate;
    expect ~1e-6 accuracy there and ~1e-9 elsewhere.
    """

    def richardson(d: Callable[[float], np.ndarray], h: float) -> np.ndarray:
        return (4.0 * d(h / 2.0) - d(h)) / 3.0

    u0 = p.u
    eye = np.eye(DIM)

    value = _position(p, u0)

    def d1_of(i):
        def central(h):
            return (_position(p, u0 + h * eye[i]) - _position(p, u0 - h * eye[i])) / (2 * h)

        return richardson(central, step)

    d1 = np.array([d1_of(i) for i in range(DIM)])

    def d2_of(i, j):
        return richardson(lambda h: _fd_second(p, u0, i, j, h), step * 10)

    d2 = np.array([[d2_of(i, j) for j in range(DIM)] for i in range(DIM)])

    def d3_of(i, j, k):
        def central(hh):
            plus = _fd_second(p, u0 + hh * eye[k], i, j, step * 10)
            minus = _fd_second(p, u0 - hh * eye[k], i, j, step * 10)
            return (plus - minus) / (2.0 * hh)

        return richardson(central, 0.02)

    d3 = np.array(
        [[[d3_of(i, j, k) for k in range(DIM)] for j in range(DIM)] for i in range(DIM)]
    )
    # symmetrize away FD noise, so the partials are symmetric like a jet's
    d2 = 0.5 * (d2 + np.swapaxes(d2, 0, 1))
    d3 = (
        d3
        + np.transpose(d3, (0, 2, 1, 3))
        + np.transpose(d3, (1, 0, 2, 3))
        + np.transpose(d3, (1, 2, 0, 3))
        + np.transpose(d3, (2, 0, 1, 3))
        + np.transpose(d3, (2, 1, 0, 3))
    ) / 6.0
    return value, d1, d2, d3


def _fd_second(p: ModelPoint, u: np.ndarray, i: int, j: int, h: float) -> np.ndarray:
    eye = np.eye(DIM)
    if i == j:
        return (
            _position(p, u + h * eye[i]) - 2.0 * _position(p, u) + _position(p, u - h * eye[i])
        ) / h**2
    return (
        _position(p, u + h * (eye[i] + eye[j]))
        - _position(p, u + h * (eye[i] - eye[j]))
        - _position(p, u - h * (eye[i] - eye[j]))
        + _position(p, u - h * (eye[i] + eye[j]))
    ) / (4.0 * h**2)
