"""Hyperspheres in 4-space and their orthonormal moving frames.

`MODELS` is the one record per model; no other code branches on a model.  A
`ModelSpec` holds the ambient signature, the sphere sign (so kappa), the
coordinate jets, the domain check, the sampler, the batched closed form of
`reference`, and the model's identities:

  s1  the sphere <z, z> = r^2 in Euclidean 4-space, parameters (u0, u1, u2),
      all in [0, 2pi) with u1 away from multiples of pi/2;
  s2  the time-like sphere <z, z> = -r^2 in Minkowski 4-space, parameters
      (u1, u2, u3) with u1 != 0; the induced metric is Riemannian.

The immersion is evaluated as a degree-3 Taylor jet, so every derivative in
the pipeline (frame coefficients, bracket coefficients and their frame
derivatives) is exact to machine precision.  Each jet stage (immerse,
orthonormal_frame, bracket_field) takes one point or a batch of points
with a leading point axis, and a batch row is bitwise the result for that
point alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .frame import StructureField
from .jets import ORDER, TJet, _cut, _elementwise, partials, scatter_add
from .reference import ModelReference, _square, s1_identities, s1_reference, s2_identities
from .reference import s2_reference
from .tensors import DIM, _frozen

if TYPE_CHECKING:  # report imports this module
    from .report import PointAnalysis

#: Points closer than this to an excluded parameter locus are rejected;
#: the frame normalization blows up there.
EXCLUSION = 1e-6

#: Sampled points keep this distance from the excluded loci, so cot/tan
#: (or coth) stay bounded and identity residuals comparable across points.
SAMPLE_MARGIN = 0.1

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
    batch (none for one point).  Every coefficient must be finite.  The
    arrays are its partials of order 0 and 1, read once: value (..., 4) and
    d1[..., i, a] = d z^a / d u^i.  Higher partials are
    `partials(coords, k)`, derivative axes first.
    """

    coords: TJet
    value: np.ndarray = field(init=False)
    d1: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.coords.shape[-1:] != (4,):
            raise ValueError("immersion must produce 4 ambient coordinates")
        if self.coords.deg != ORDER:
            raise ValueError(f"immersion jet must be valid to degree {ORDER}")
        if not np.all(np.isfinite(self.coords.c)):
            raise ValueError("jet has non-finite entries")
        for name, order in (("value", 0), ("d1", 1)):
            # parameter axes after the point axes, before the coordinate axis
            a = np.moveaxis(partials(self.coords, order), range(order), range(-order - 1, -1))
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class FrameCoeffs:
    """Orthonormal frame in the coordinate basis: e_i = a[..., i, k] d_k.

    jets is the jet of a, leading shape (..., 3, 3), valid to degree 2;
    bracket_field differentiates it.  inverse is the jet of a^-1, of the
    same shape and degree: d_m = inverse[..., m, k] e_k.  metric is the
    induced metric G the frame was built against.  Leading axes index the
    points of a batch.

    a is the inverse Cholesky factor of G up to the sign of each row: with
    G = L L^T, L lower triangular and positive on its diagonal, a = S L^-1
    and a^-1 = L S, where S = diag(+-1) holds the row signs.  Gram-Schmidt
    on the coordinate basis gives the same frame, since QR with a positive
    diagonal is unique.  So a, a^-1 and every coefficient of their jets
    are exactly zero above the diagonal; bracket_field relies on this and
    rejects a frame without it.
    """

    a: np.ndarray
    jets: TJet
    inverse: TJet
    metric: np.ndarray


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _s1_coords(r: float | np.ndarray, v: Sequence[TJet]) -> list[TJet]:
    sc = TJet.stack(v, axis=0).sincos()  # [sin | cos, parameter]
    rc1, rs1 = r * sc[1, 1], r * sc[0, 1]
    return [rc1 * sc[1, 2], rc1 * sc[0, 2], rs1 * sc[1, 0], rs1 * sc[0, 0]]


def _s2_coords(r: float | np.ndarray, v: Sequence[TJet]) -> list[TJet]:
    u1, u2, u3 = v
    hyp = TJet.stack([u1, u3], axis=0).sinhcosh()  # [sinh | cosh, (u1, u3)]
    trig = u2.sincos()
    rsh1, rch1 = r * hyp[0, 0], r * hyp[1, 0]
    return [rsh1 * trig[1], rsh1 * trig[0], rch1 * hyp[0, 1], rch1 * hyp[1, 1]]


def _validate_s1(u: Sequence[float]) -> None:
    for i, ui in enumerate(u):
        if not 0.0 <= ui < TWO_PI:
            raise DomainError(f"s1 parameter u{i} = {ui} outside [0, 2*pi)")
    quarter = math.pi / 2.0
    dist = min(abs(u[1] - k * quarter) for k in range(5))
    if dist < EXCLUSION:
        raise DomainError(
            f"s1 parameter u1 = {u[1]} within {EXCLUSION} of a multiple of pi/2"
        )


def _validate_s2(u: Sequence[float]) -> None:
    if abs(u[0]) < EXCLUSION:
        raise DomainError(f"s2 parameter u1 = {u[0]} within {EXCLUSION} of 0")
    if not 0.0 <= u[1] < TWO_PI:
        raise DomainError(f"s2 parameter u2 = {u[1]} outside [0, 2*pi)")


def _sample_s1(rng: random.Random) -> tuple[float, float, float]:
    """All four u1 quadrants."""
    quarter = math.pi / 2.0
    quadrant = int(4.0 * rng.random())
    u1 = quadrant * quarter + SAMPLE_MARGIN + (quarter - 2.0 * SAMPLE_MARGIN) * rng.random()
    return TWO_PI * rng.random(), u1, TWO_PI * rng.random()


def _sample_s2(rng: random.Random) -> tuple[float, float, float]:
    """Both u1 branches."""
    positive = rng.random() < 0.5
    u1 = SAMPLE_MARGIN + (2.5 - SAMPLE_MARGIN) * rng.random()
    return u1 if positive else -u1, TWO_PI * rng.random(), -2.5 + 5.0 * rng.random()


@dataclass(frozen=True)
class ModelSpec:
    signature: AmbientSignature
    sphere_sign: int  # <z, z> = sphere_sign * r^2
    coords: Callable[[float | np.ndarray, Sequence[TJet]], list[TJet]]  # r per point
    validate: Callable[[Sequence[float]], None]  # u: an array or 3 Python floats
    sample: Callable[[random.Random], tuple[float, float, float]]  # SAMPLE_MARGIN inside domain
    closed_form: Callable[[float | np.ndarray, np.ndarray], ModelReference]  # r (...), u (..., 3)
    identities: Callable[[PointAnalysis], dict[str, np.ndarray]]  # residuals per point

    def kappa(self, r: float | np.ndarray) -> float | np.ndarray:
        """Constant sectional curvature of the model, per radius."""
        return self.sphere_sign / (r * r)


MODELS = {
    "s1": ModelSpec(EUCLIDEAN, 1, _s1_coords, _validate_s1, _sample_s1, s1_reference,
                    s1_identities),
    "s2": ModelSpec(LORENTZIAN, -1, _s2_coords, _validate_s2, _sample_s2, s2_reference,
                    s2_identities),
}


def check_point(model: str, r: float, u: Sequence[float]) -> None:
    """Raise the error of a point outside its model's domain, checked in this
    order: an unknown model, u not 3 finite parameters (an array of shape
    (3,) or 3 Python floats), a radius not positive and finite, then the
    model's own `validate`."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(MODELS)}")
    if len(u) != 3 or not all(map(math.isfinite, u)):
        raise ValueError("u must be 3 finite parameters")
    check_radius(r)
    MODELS[model].validate(u)


def check_radius(r: float) -> None:
    """Raise the DomainError of a radius that is not positive and finite."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"radius must be positive, got {r}")


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """A parameter point of a built-in model, checked by `check_point`; u is
    a read-only copy."""

    model: str
    r: float
    u: np.ndarray

    def __post_init__(self):
        u = _frozen(self.u)
        check_point(self.model, self.r, u if u.shape == (3,) else ())  # () is not 3 parameters
        object.__setattr__(self, "u", u)

    @property
    def spec(self) -> ModelSpec:
        return MODELS[self.model]


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Points of one model as arrays: radii r (n,) and parameters u (n, 3),
    read-only copies.  The batched stages (`immerse`, `model_reference` and
    the report's chunk analysis) take a chunk of points in this form; its
    points are taken to be in the domain, as `check_point` checks them.  A
    slice is the batch of those points.
    """

    model: str
    r: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {sorted(MODELS)}")
        r, u = _frozen(self.r), _frozen(self.u)
        if r.ndim != 1 or u.shape != r.shape + (3,):
            raise ValueError(f"a batch needs r (n,) and u (n, 3), got {r.shape} and {u.shape}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)

    @classmethod
    def of(cls, points: Sequence[ModelPoint]) -> PointBatch:
        """The batch of a list of points of one model, in order."""
        if len({p.model for p in points}) != 1:
            raise ValueError("a batch of points must share one model")
        return cls(points[0].model, [p.r for p in points], [p.u for p in points])

    @property
    def spec(self) -> ModelSpec:
        return MODELS[self.model]

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, part: slice) -> PointBatch:
        return PointBatch(self.model, self.r[part], self.u[part])


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


def immerse(p: ModelPoint | PointBatch) -> Jet3:
    """Full 3-jet of the model immersion at p, or at each point of a batch
    (a leading point axis)."""
    return evaluate_immersion(lambda v: p.spec.coords(p.r, v), p.u)


def sphere_residual(p: ModelPoint | PointBatch, z: np.ndarray) -> float | np.ndarray:
    """|<z, z> - sign * r^2| for the ambient position z (jet.value) of p, or
    one per point of a batch.

    <z, z> is one `np.vecdot` over the points, bitwise `np.dot` point by
    point, and r^2 is Python's r**2 per element, as in the closed forms.
    """
    spec = p.spec
    r2 = _elementwise(_square, np.asarray(p.r, dtype=float))
    res = np.abs(np.vecdot(spec.signature.weights * z, z) - spec.sphere_sign * r2)
    return float(res) if res.ndim == 0 else res


def positive_definite(g: np.ndarray) -> np.ndarray:
    """Whether each symmetric 3x3 matrix g[..., :, :] is positive definite,
    one bool per point, by Sylvester's criterion: its leading principal
    minors D1 = g00, D2 = g00 g11 - g01 g10 and D3 = det g (cofactors along
    row 0) are all > 0.  A NaN minor fails; a minor whose products
    overflow is +-inf, or NaN and fails, without a warning."""
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = (
        [g[..., i, j] for j in range(DIM)] for i in range(DIM)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = g00 * g11 - g01 * g10
        d3 = g00 * (g11 * g22 - g12 * g21) - g01 * (g10 * g22 - g12 * g20) + g02 * (
            g10 * g21 - g11 * g20
        )
    return (g00 > 0.0) & (d2 > 0.0) & (d3 > 0.0)


def induced_metric(jet: Jet3, sig: AmbientSignature) -> np.ndarray:
    """First fundamental form G[..., i, j] = <d_i z, d_j z>; must be Riemannian.

    The gate is `positive_definite`, Sylvester's criterion on G's entries: a
    few products per point.  An eigen-solver would answer the same question
    through LAPACK, whose first call makes OpenBLAS allocate and touch its
    work buffers (most of a megabyte of peak memory for 3x3 matrices), and
    whose own "Eigenvalues did not converge" would stand in for "not
    Riemannian" where G overflows.
    """
    w = sig.weights
    g = np.einsum("...ia,a,...ja->...ij", jet.d1, w, jet.d1)
    if not np.all(positive_definite(g)):
        raise ValueError("induced metric not Riemannian")
    return g


#: The index pairs (l, m) with l <= m in row-major order, and the pairs i < j.
_PAIR_L, _PAIR_M = np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2])
_UPPER_I, _UPPER_J = np.array([0, 0, 1]), np.array([1, 2, 2])
_DIAG = np.arange(DIM)


def _pivot(p: TJet) -> TJet:
    """p^(-1/2) for a Cholesky pivot p, which must exceed 1e-24 at every point."""
    if np.any(p.value <= 1e-24):
        raise ValueError("degenerate tangent vectors: cannot orthonormalize")
    return p.rsqrt()


def orthonormal_frame(jet: Jet3, sig: AmbientSignature) -> FrameCoeffs:
    """Frame coefficients as the inverse Cholesky factor of the metric jet,
    with their jets, the jets of their inverse and the induced metric.

    The tangent jets d z^a / d u^i are the coordinate jets differentiated
    once, valid to degree 2, and their products give the metric jets
    g[l, m] for l <= m.  One pass over these scalar jets factors
    G = L L^T, each pivot's p^(-1/2) = 1 / L_kk one `rsqrt` composition;
    forward substitution then gives a = L^-1, whose row i is Gram-Schmidt's
    e_i.  Every point of a batched jet goes through each step in one array
    operation, and every product and sum runs in the same order at every
    point, so each point's frame is bitwise the frame computed for that
    point alone.

    Only the nonzero entries of the triangular factors are formed; the
    entries above the diagonal are exact zeros.  Each row of a is then
    flipped so that its leading coefficient is positive, and the matching
    column of the inverse L with it.
    """
    metric = induced_metric(jet, sig)  # also the positive-definiteness gate
    tangent = TJet.stack([jet.coords.deriv(i) for i in range(DIM)], axis=-2)  # [..., i, a]
    pairs = tangent[..., _PAIR_L, :] * tangent[..., _PAIR_M, :] * sig.weights
    g = pairs.sum()  # [..., pair]: g00, g01, g02, g11, g12, g22

    # G = L L^T column by column, with s_k = 1 / L_kk; c is a and inv is L
    c = np.zeros(g.shape[:-1] + (DIM, DIM, g.c.shape[-1]))
    inv = np.zeros_like(c)
    s0 = _pivot(g[..., 0])
    col0 = g[..., 1:3] * s0[..., None]  # L10, L20
    sq = col0[..., [0, 1, 1]] * col0[..., [0, 0, 1]]  # L10 L10, L20 L10, L20 L20
    p1 = g[..., 3] - sq[..., 0]
    s1 = _pivot(p1)
    l21 = (g[..., 4] - sq[..., 1]) * s1
    p2 = (g[..., 5] - sq[..., 2]) - l21 * l21
    s2 = _pivot(p2)
    # the pivots p_k on inv's diagonal and the s_k on c's, so that one
    # product makes L_kk = p_k s_k
    for k, (p, sk) in enumerate(((g[..., 0], s0), (p1, s1), (p2, s2))):
        inv[..., k, k, :], c[..., k, k, :] = p.c, sk.c
    diag = TJet(inv[..., _DIAG, _DIAG, :], s0.deg) * TJet(c[..., _DIAG, _DIAG, :], s0.deg)
    inv[..., _DIAG, _DIAG, :] = diag.c
    inv[..., 1:, 0, :] = col0.c
    inv[..., 2, 1, :] = l21.c

    # a = L^-1: a_kk = s_k and a_ik = -s_i sum_{k <= j < i} L_ij a_jk
    m0 = col0 * s0[..., None]  # L10 a00, L20 a00
    c[..., 1, 0, :] = (-m0[..., 0] * s1).c
    t = l21[..., None] * TJet(c[..., 1, :2, :], s0.deg)  # L21 a10, L21 a11
    t.c[..., 0, :] += m0.c[..., 1, :]  # L20 a00 + L21 a10
    c[..., 2, :2, :] = (-t * s2[..., None]).c  # a20, a21

    # flip each row so its leading coefficient is positive; for s1 this
    # equals the quadrant sign factors sgn(sin u1), sgn(cos u1)
    a = c[..., 0]
    v = np.abs(a)
    big = v > 1e-9 * np.max(v, axis=-1, keepdims=True)
    lead = np.take_along_axis(a, np.argmax(big, axis=-1)[..., None], -1)[..., 0]
    flip = np.any(big, axis=-1) & (lead < 0.0)
    jets = TJet(np.where(flip[..., None, None], -c, c), s0.deg)
    inverse = TJet(np.where(flip[..., None, :, None], -inv, inv), s0.deg)
    return FrameCoeffs(a=partials(jets, 0), jets=jets, inverse=inverse, metric=metric)


#: The nonzero terms of the bracket sums b[pair, m]: a[i, l] d_l a[j, m] with
#: l <= i, m <= j, and a[j, l] d_l a[i, m] with l <= j, m <= i, for each pair
#: i < j, ordered by l, then the plus before the minus term.  Columns: the
#: rows of the left and right factors a[left, l], d_l a[right, m], then l, m,
#: the sign and the target pair * DIM + m.
_BRACKET_TERMS = np.array([
    (left, right, l, m, sign, pair * DIM + m)
    for l in range(DIM)
    for sign in (1, -1)
    for pair, (i, j) in enumerate(zip(_UPPER_I.tolist(), _UPPER_J.tolist()))
    for left, right in [(i, j) if sign > 0 else (j, i)]
    for m in range(right + 1)
    if l <= left
])


def bracket_field(fc: FrameCoeffs) -> StructureField:
    """Bracket coefficients of a frame, with their frame derivatives.

    [e_i, e_j] = B_ij^m d_m with B_ij^m = a[i, l] d_l a[j, m] - a[j, l]
    d_l a[i, m], and d_m = a^-1[m, k] e_k, so the frame components are
    C_ij^k = sum_m B_ij^m a^-1[m, k].  The products read only degree <= 1
    of the frame jets and of their derivatives, so degree-2 frame jets give
    dc exactly, and every product here runs at degree 1.  A batched frame
    gives batched fields; the three pairs i < j are solved in one pass.

    The frame and its inverse must be lower triangular, as
    `orthonormal_frame` makes them: a[..., i, m], a^-1[..., i, m] and their
    jets are exactly zero for m > i.  So only the 22 nonzero products of
    the 54 in the sums B above are formed, and added in their order from
    +0.0 (x - y is x + (-y)); and C takes the 6 products with m >= k,
    added in the order of m.
    """
    aj = fc.jets
    if aj.deg < 2:
        raise ValueError(f"frame jets must be valid to degree 2, got {aj.deg}")
    coeffs = (fc.a[..., None], aj.c, fc.inverse.c)  # each with a coefficient axis last
    if any((x[..., _UPPER_I, _UPPER_J, :] != 0.0).any() for x in coeffs):
        raise ValueError("frame coefficients must be lower triangular")
    daj = TJet.stack([aj.deriv(l) for l in range(DIM)], axis=-2)  # [..., i, l, m] = d_l a[i, m]
    left, right, l, m, sign, target = _BRACKET_TERMS.T
    terms = TJet(_cut(aj.c, 1)[..., left, l, :], 1) * daj[..., right, l, m]
    # b[..., pair, m] = sum_l a[i, l] d_l a[j, m] - a[j, l] d_l a[i, m]
    b = scatter_add(terms.c * sign[:, None], target, DIM * DIM)
    b = TJet(b.reshape(b.shape[:-2] + (DIM, DIM, b.shape[-1])), 1)

    # C[..., pair, k] = sum over m >= k of b[..., pair, m] a^-1[m, k]: the
    # terms (k, m) = (_PAIR_L, _PAIR_M), in the order of m for each k
    inv = TJet(_cut(fc.inverse.c, 1)[..., None, _PAIR_M, _PAIR_L, :], 1)
    solved = scatter_add((b[..., _PAIR_M] * inv).c, _PAIR_L, DIM)  # [..., pair, k]

    c_jets = np.zeros(solved.shape[:-3] + (DIM,) * 3 + solved.shape[-1:])
    c_jets[..., _UPPER_I, _UPPER_J, :, :] = solved
    c_jets[..., _UPPER_J, _UPPER_I, :, :] = -solved
    c_jets = TJet(c_jets, 1)
    c = partials(c_jets, 0)
    dcoord = partials(c_jets, 1)  # dcoord[m, ..., i, j, k] = d_m C_ij^k
    dc = np.einsum("...lm,m...ijk->...lijk", fc.a, dcoord)
    return StructureField(c=c, dc=dc)


def structure_field(p: ModelPoint) -> StructureField:
    """Bracket data of the model's orthonormal frame at p, via the jet pipeline."""
    jet = immerse(p)
    fc = orthonormal_frame(jet, p.spec.signature)
    return bracket_field(fc)


def seeded(seed: int) -> random.Random:
    """Python's `random.Random(seed)` for a seed >= 0.  random.Random seeds
    an int by its absolute value, so a negative seed would draw the stream
    of -seed; it is rejected."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def sample_u(model: str, n: int, rng: random.Random) -> np.ndarray:
    """The parameters (n, 3) of n draws of the model's sampler from rng, in
    order; each draw is SAMPLE_MARGIN inside the domain by construction."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if n < 0:
        raise ValueError(f"the number of samples must be >= 0, got {n}")
    sample = MODELS[model].sample
    return np.array([sample(rng) for _ in range(n)]).reshape(n, 3)


def sample_points(model: str, n: int, seed: int | random.Random,
                  r: float = 1.0) -> list[ModelPoint]:
    """Deterministic valid parameter points, n draws of the model's sampler
    from seed: an int >= 0, whose stream is Python's `random.Random(seed)`,
    or a `random.Random` it draws from (and so advances)."""
    rng = seed if isinstance(seed, random.Random) else seeded(seed)
    return [ModelPoint(model=model, r=r, u=u) for u in sample_u(model, n, rng)]
