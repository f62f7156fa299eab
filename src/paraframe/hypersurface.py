"""Hyperspheres in 4-space and their orthonormal moving frames.

Two built-in models:

  s1  the sphere <z, z> = r^2 in Euclidean 4-space, parameters (u0, u1, u2),
      all in [0, 2pi) with u1 away from multiples of pi/2;
  s2  the time-like sphere <z, z> = -r^2 in Minkowski 4-space, parameters
      (u1, u2, u3) with u1 != 0; the induced metric is Riemannian.

The immersion is evaluated as a degree-3 Taylor jet, so every derivative in
the pipeline (frame coefficients, bracket coefficients and their frame
derivatives) is exact to machine precision.  Each jet stage (immerse,
orthonormal_frame, bracket_field) takes one point or a batch of points
with a leading point axis, and a batch row is bitwise the result for that
point alone.  The hand-differentiated
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


@dataclass(frozen=True, eq=False)
class Jet3:
    """Degree-3 jet of an immersion into 4-space, at one parameter point or
    at a batch of them.

    coords is the jet of the four ambient coordinates, leading shape
    (..., 4), where the leading axes before the last index the points of a
    batch (none for one point).  The arrays are its partials, read once:
    value (..., 4), d1[..., i, a] = d z^a / d u^i, and d2, d3 the higher
    partials, symmetric in their parameter indices by construction.
    """

    coords: TJet
    value: np.ndarray = field(init=False)
    d1: np.ndarray = field(init=False)
    d2: np.ndarray = field(init=False)
    d3: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.coords.shape[-1:] != (4,):
            raise ValueError("immersion must produce 4 ambient coordinates")
        for name, order in (("value", 0), ("d1", 1), ("d2", 2), ("d3", 3)):
            # parameter axes after the point axes, before the coordinate axis
            a = np.moveaxis(partials(self.coords, order), range(order), range(-order - 1, -1))
            if not np.all(np.isfinite(a)):
                raise ValueError("jet has non-finite entries")
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class FrameCoeffs:
    """Orthonormal frame in the coordinate basis: e_i = a[..., i, k] d_k.

    jets is the jet of a, leading shape (..., 3, 3), valid to degree 2;
    bracket_field differentiates it.  metric is the induced metric G the
    frame was built against.  Leading axes index the points of a batch.
    """

    a: np.ndarray
    jets: TJet
    metric: np.ndarray

    def gram_defect(self):
        """max |a G a^T - I| over the frame, one value per point of a batch."""
        return max_abs(self.a @ self.metric @ np.swapaxes(self.a, -1, -2) - np.eye(DIM), 2)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _s1_coords(r: float | np.ndarray, v: Sequence[TJet]) -> list[TJet]:
    u0, u1, u2 = v
    return [
        r * u1.cos() * u2.cos(),
        r * u1.cos() * u2.sin(),
        r * u1.sin() * u0.cos(),
        r * u1.sin() * u0.sin(),
    ]


def _s2_coords(r: float | np.ndarray, v: Sequence[TJet]) -> list[TJet]:
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
    coords: Callable[[float | np.ndarray, Sequence[TJet]], list[TJet]]  # r per point
    validate: Callable[[np.ndarray], None]

    def kappa(self, r: float) -> float:
        """Constant sectional curvature of the model."""
        return self.sphere_sign / (r * r)


MODELS = {
    "s1": ModelSpec("s1", EUCLIDEAN, 1, _s1_coords, _validate_s1),
    "s2": ModelSpec("s2", LORENTZIAN, -1, _s2_coords, _validate_s2),
}


@dataclass(frozen=True, eq=False)
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

    u is one parameter point (3,) or a batch (..., 3); the seeds then carry
    the batch's leading axes.  Coordinates may be jets or plain numbers;
    numbers are constants.
    """
    u = np.asarray(u, dtype=float)
    seeds = [TJet.variable(i, u[..., i]) for i in range(DIM)]
    return Jet3(TJet.stack([TJet._coerce(x) for x in coords(seeds)]))


def immerse(p: ModelPoint | Sequence[ModelPoint]) -> Jet3:
    """Full 3-jet of the model immersion at p, or at each point of a list of
    points of one model (a leading point axis)."""
    if isinstance(p, ModelPoint):
        spec, r, u = p.spec, p.r, p.u
    else:
        if len({q.model for q in p}) != 1:
            raise ValueError("a batch of points must share one model")
        spec = p[0].spec
        r = np.array([q.r for q in p])
        u = np.array([q.u for q in p])
    return evaluate_immersion(lambda v: spec.coords(r, v), u)


def sphere_residual(p: ModelPoint, z: np.ndarray) -> float:
    """|<z, z> - sign * r^2| for the ambient position z (jet.value) of p."""
    w = p.spec.signature.weights
    return abs(float(np.dot(w * z, z)) - p.spec.sphere_sign * p.r**2)


def induced_metric(jet: Jet3, sig: AmbientSignature) -> np.ndarray:
    """First fundamental form G[..., i, j] = <d_i z, d_j z>; must be Riemannian."""
    w = sig.weights
    g = np.einsum("...ia,a,...ja->...ij", jet.d1, w, jet.d1)
    if np.any(np.linalg.eigvalsh(g) <= 0.0):
        raise ValueError("induced metric not Riemannian")
    return g


#: The index pairs (l, m) with l <= m in row-major order, the pair index
#: of each (l, m) in either order, and the pairs i < j.
_PAIR_L, _PAIR_M = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])
_PAIR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_UPPER_I, _UPPER_J = np.array([0, 0, 1]), np.array([1, 2, 2])


def orthonormal_frame(jet: Jet3, sig: AmbientSignature) -> FrameCoeffs:
    """Gram-Schmidt frame coefficients, with their jets and the induced metric.

    The tangent jets d z^a / d u^i are the coordinate jets differentiated
    once, valid to degree 2.  Orthonormalization runs in jet arithmetic on
    the identity coefficient rows, so the coefficient jets fall out of the
    same computation that produces a.  Every point of a batched jet goes
    through each step in one array operation over (point, row, column);
    the metric jets are formed for l <= m and mirrored, and every sum runs
    in its index order, so each point's frame is bitwise the frame computed
    for that point alone.
    """
    metric = induced_metric(jet, sig)  # also the positive-definiteness gate
    tangent = TJet.stack([jet.coords.deriv(i) for i in range(DIM)], axis=-2)  # [..., i, a]
    pairs = tangent[..., _PAIR_L, :] * tangent[..., _PAIR_M, :] * sig.weights
    gj = pairs.sum()[..., _PAIR]  # [..., l, m]

    def inner(x: TJet, y: TJet) -> TJet:
        # sum over (l, m) of x[l] g[l, m] y[m]
        return (x[..., :, None] * gj * y[..., None, :]).sum(2)

    rows: list[TJet] = []
    for i in range(DIM):
        w = TJet.constant(np.eye(DIM)[i])
        for prev in rows:
            w = w - inner(w, prev)[..., None] * prev
        n2 = inner(w, w)
        if np.any(n2.value <= 1e-24):
            raise ValueError("degenerate tangent vectors: cannot orthonormalize")
        w = w * n2.sqrt().reciprocal()[..., None]
        # flip the row so its leading coefficient is positive; for s1 this
        # equals the quadrant sign factors sgn(sin u1), sgn(cos u1).
        v = np.abs(w.value)
        big = v > 1e-9 * np.max(v, axis=-1, keepdims=True)
        lead = np.take_along_axis(w.value, np.argmax(big, axis=-1)[..., None], -1)[..., 0]
        flip = np.any(big, axis=-1) & (lead < 0.0)
        rows.append(TJet(np.where(flip[..., None, None], -w.c, w.c), w.deg))

    jets = TJet.stack(rows, axis=-2)
    return FrameCoeffs(a=partials(jets, 0), jets=jets, metric=metric)


def _det3(q: TJet) -> TJet:
    """Determinants of the 3x3 jet matrices q[..., row, col], by cofactors
    along the first row."""
    minors = q[..., [1, 1, 1], [1, 0, 0]] * q[..., [2, 2, 2], [2, 2, 1]] - (
        q[..., [1, 1, 1], [2, 2, 1]] * q[..., [2, 2, 2], [1, 0, 0]]
    )
    t = q[..., 0, :] * minors
    return t[..., 0] - t[..., 1] + t[..., 2]


def bracket_field(fc: FrameCoeffs) -> StructureField:
    """Bracket coefficients of a frame, with their frame derivatives.

    [e_i, e_j] = (a[i, l] d_l a[j, m] - a[j, l] d_l a[i, m]) d_m, converted
    to frame components by a Cramer solve against the coefficient matrix.
    The products read only degree <= 1 of the frame jets and of their
    derivatives, so degree-2 frame jets give dc exactly, and every product
    here runs at degree 1.  A batched frame gives batched fields; the three
    pairs i < j and the three Cramer columns are solved in one pass.
    """
    aj = fc.jets
    daj = TJet.stack([aj.deriv(l) for l in range(DIM)], axis=-2)  # [..., i, l, m] = d_l a[i, m]
    pi, pj = _UPPER_I, _UPPER_J
    # b[..., pair, m] = sum_l a[i, l] d_l a[j, m] - a[j, l] d_l a[i, m]
    plus = aj[..., pi, :, None] * daj[..., pj, :, :]
    minus = aj[..., pj, :, None] * daj[..., pi, :, :]
    b = TJet.constant(0.0)
    for l in range(DIM):
        b = b + plus[..., l, :] - minus[..., l, :]

    # frame components: sum_k C_ij^k a[k, m] = B_ij^m, by Cramer's rule
    mat = TJet(np.swapaxes(aj.c, -3, -2), 1)  # [..., m, k]
    inv_det = _det3(mat).reciprocal()
    column = np.eye(DIM, dtype=bool)[:, None, :, None]  # [col, row, k]
    repl = np.where(column, b.c[..., :, None, :, None, :], mat.c[..., None, None, :, :, :])
    solved = _det3(TJet(repl, 1)) * inv_det[..., None, None]  # [..., pair, k]

    c_jets = np.zeros(solved.c.shape[:-3] + (DIM,) * 3 + solved.c.shape[-1:])
    c_jets[..., pi, pj, :, :] = solved.c
    c_jets[..., pj, pi, :, :] = -solved.c
    c_jets = TJet(c_jets, solved.deg)
    c = partials(c_jets, 0)
    dcoord = partials(c_jets, 1)  # dcoord[m, ..., i, j, k] = d_m C_ij^k
    dc = np.einsum("...lm,m...ijk->...lijk", fc.a, dcoord)
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
