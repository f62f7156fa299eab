"""Truncated Taylor jets in three variables, with leading array axes.

Forward-mode differentiation for the frame pipeline: every scalar quantity
is carried as a multivariate Taylor polynomial in the three surface
parameters, truncated at total degree 3.  Within the truncated algebra all
arithmetic is exact, so derivatives read off a jet are correct to machine
precision up to the order the jet was built for (a quantity obtained after
k jet-differentiations of degree-3 data is valid to degree 3 - k).

Coefficients are stored against the graded list of multi-indices
(1, u0, u1, u2, u0^2, u0*u1, ...); the coefficient of the monomial u^alpha
is d^alpha f / alpha!.  The leading axes of a coefficient array index many
jets at once (points of a batch, rows and columns of a matrix of jets), and
every operation acts on all of them in one numpy call, broadcasting the
leading axes.  `partials` reads the partials of one order off such an
array, with the derivative axes first.

Each jet carries `deg`, the degree to which its coefficients are valid,
and stores only those: the graded prefix of _NC[deg] = 1, 4, 10 or 20
coefficients, so its array has shape (..., _NC[deg]) (the storage of
truncated Taylor polynomials by degree in Griewank & Walther, *Evaluating
Derivatives*, ch. 13).  A sum, difference or stack is valid to the
smallest degree of its operands and cuts the others to it.  A product is
valid to the smaller of its operands' degrees and evaluates only the
entries of the product table whose target has at most that degree: 84 of
them at degree 3 (the immersion), 28 at degree 2 (the frame, built from
first derivatives) and 7 at degree 1 (the brackets).  The product gathers
both operands over the table's index arrays and adds the terms into their
targets with one `np.bincount`, offset per leading cell, against flat
targets built at import for 256 cells.  A product over more cells runs in
blocks of at most 256 cells, each against a prefix of the same targets, so
no product builds its own and a block's arrays do not grow with the batch.
`bincount` adds in input order, starting from +0.0, which is the table
order, so each target coefficient is the same sequence of additions as a
loop over the table, bit for bit, in any block; a truncated table is a
subsequence of the full one that keeps every entry of the targets it
keeps, and no kept target reads a coefficient above its own degree, so
dropping the coefficients above a jet's degree changes no bit of any
coefficient that is kept.  `sum` adds along axes in the same sequential
order.

Smooth functions compose through the powers h, ..., h^deg of a jet's
nilpotent part, and `sqrt`, `rsqrt` and `reciprocal` take only the
derivatives that degree reads.  `sincos` and `sinhcosh` share those powers
between the two functions and return both, stacked on a new leading axis;
`sin`, `cos`, `sinh` and `cosh` are their slices.  Values of sin, cos,
sinh, cosh and integer powers are taken per element with Python's `math`,
as for a single jet.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

NVARS = 3
ORDER = 3


def _build_index() -> list[tuple[int, int, int]]:
    idx = []
    for total in range(ORDER + 1):
        for alpha in product(range(ORDER + 1), repeat=NVARS):
            if sum(alpha) == total:
                idx.append(alpha)
    return idx


_MONOMIALS = _build_index()
_POS = {alpha: n for n, alpha in enumerate(_MONOMIALS)}

#: _NC[deg]: the coefficients of total degree <= deg, a prefix of the graded
#: list (1, 4, 10, 20); a jet valid to degree deg stores only these.
_NC = [sum(1 for alpha in _MONOMIALS if sum(alpha) <= deg) for deg in range(ORDER + 1)]

# (i, j, target) triples with monomial_i * monomial_j = monomial_target,
# restricted to total degree <= ORDER.
_MUL_TABLE = []
for _i, _a in enumerate(_MONOMIALS):
    for _j, _b in enumerate(_MONOMIALS):
        _c = tuple(x + y for x, y in zip(_a, _b))
        if sum(_c) <= ORDER:
            _MUL_TABLE.append((_i, _j, _POS[_c]))


def _mul_table(deg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = [t for t in _MUL_TABLE if sum(_MONOMIALS[t[2]]) <= deg]
    return tuple(np.array(col, dtype=np.intp) for col in zip(*rows))


#: _MUL[deg] = (left, right, target): the product table filtered to targets
#: of degree <= deg, in table order.
_MUL = [_mul_table(deg) for deg in range(ORDER + 1)]

_FACTORIAL = np.array(
    [math.factorial(a[0]) * math.factorial(a[1]) * math.factorial(a[2]) for a in _MONOMIALS]
)


def _partials_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    pos = np.zeros((NVARS,) * order, dtype=np.intp)
    for idx in np.ndindex(pos.shape):
        pos[idx] = _POS[tuple(idx.count(k) for k in range(NVARS))]
    return pos, _FACTORIAL[pos]


#: _PARTIALS[order] = (pos, fact): the partial d^order f / du_i du_j ... is
#: coefficient pos[i, j, ...] times fact[i, j, ...].
_PARTIALS = [_partials_table(order) for order in range(ORDER + 1)]


def _deriv_table(var: int, deg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    source = [n for n in range(_NC[deg]) if _MONOMIALS[n][var] > 0]
    target = [_POS[tuple(a - (k == var) for k, a in enumerate(_MONOMIALS[n]))] for n in source]
    power = [_MONOMIALS[n][var] for n in source]
    return np.array(target, dtype=np.intp), np.array(source, dtype=np.intp), np.array(power)


#: _DERIV[var][deg] = (target, source, power): d/du_var of a degree-deg jet
#: sends the coefficient of u^alpha, times alpha[var], to the coefficient of
#: u^(alpha - e_var); every target is below _NC[deg - 1].
_DERIV = [[_deriv_table(var, deg) for deg in range(ORDER + 1)] for var in range(NVARS)]


def _flat_targets(deg: int, cells: int) -> np.ndarray:
    """Flat target of each term of a degree-`deg` product over `cells`
    leading cells: its coefficient, offset by its cell."""
    n = _NC[deg]
    return np.add.outer(np.arange(0, cells * n, n), _MUL[deg][2]).ravel()


#: The flat targets of the first k cells do not depend on the cell count,
#: so a product over at most _FLAT_CELLS cells reads a prefix of _FLAT[deg],
#: built at import; a larger one runs in blocks of at most _FLAT_CELLS cells
#: (`_blocked_product`), each reading a prefix of the same table.  A point's
#: largest product has 27 cells, so every product of up to 9 points is one
#: block, and neither the table's 0.24 MB nor a block's arrays grow with CHUNK.
_FLAT_CELLS = 256
_FLAT = [_flat_targets(deg, _FLAT_CELLS) for deg in range(ORDER + 1)]
for _flat in _FLAT:
    _flat.flags.writeable = False


def _blocked_product(a: np.ndarray, b: np.ndarray, deg: int) -> np.ndarray:
    """The degree-`deg` product coefficients of a and b, broadcast over their
    leading axes, _FLAT_CELLS cells at a time.

    The operands, cut to degree `deg`, are broadcast and flattened to one row
    per cell (a copy only where an operand broadcasts); each block gathers
    its rows over the product table and adds them with one `np.bincount`
    against a prefix of _FLAT[deg], so each cell's terms are added in table
    order, as in a single-block product.
    """
    left, right, _ = _MUL[deg]
    n = _NC[deg]
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    cells = math.prod(lead)
    a = np.broadcast_to(_cut(a, deg), lead + (n,)).reshape(cells, n)
    b = np.broadcast_to(_cut(b, deg), lead + (n,)).reshape(cells, n)
    out = np.empty((cells, n))
    for start in range(0, cells, _FLAT_CELLS):
        block = slice(start, start + _FLAT_CELLS)
        terms = a[block, left] * b[block, right]
        out[block] = np.bincount(_FLAT[deg][: terms.size], weights=terms.ravel(),
                                 minlength=len(terms) * n).reshape(-1, n)
    return out.reshape(lead + (n,))


def scatter_add(terms: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """out[..., t, :] = the sum of the coefficient arrays terms[..., q, :]
    over the q with target[q] = t, for each t < n and each leading cell.

    One `np.bincount` adds the terms of each target in the order of q,
    from +0.0, as a loop over q does; a target with no terms is +0.0.
    """
    lead, nc = terms.shape[:-2], terms.shape[-1]
    cells = math.prod(lead)
    flat = (np.arange(0, cells * n, n)[:, None] + target)[..., None] * nc + np.arange(nc)
    out = np.bincount(flat.ravel(), weights=terms.ravel(), minlength=cells * n * nc)
    return out.reshape(lead + (n, nc))


def _cut(c: np.ndarray, deg: int) -> np.ndarray:
    """The coefficients of c through degree deg: a view of its first _NC[deg]."""
    n = _NC[deg]
    return c if c.shape[-1] == n else c[..., :n]


def partials(jet: "TJet", order: int) -> np.ndarray:
    """Order-`order` partials of every jet in `jet`, derivative axes first.

    For a jet with leading shape S the result has shape (NVARS,) * order + S;
    entry [i, j, ..., s] is d^order jet[s] / du_i du_j ...
    """
    pos, fact = _PARTIALS[order]
    coeffs = np.moveaxis(jet.c, -1, 0)
    return coeffs[pos] * fact.reshape(fact.shape + (1,) * (coeffs.ndim - 1))


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn of every element of x, each a Python float, as an array shaped like x."""
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


class TJet:
    """Taylor jets through order 3: coefficient array c of shape
    (..., _NC[deg]), the coefficients through degree deg.

    deg is the degree through which the coefficients are valid.  The
    array is stored as given: one with more coefficients is cut with `_cut`
    before it is wrapped.
    """

    __slots__ = ("c", "deg")

    # ndarray operands defer to TJet's reflected operators
    __array_ufunc__ = None

    def __init__(self, coeffs: np.ndarray, deg: int = ORDER):
        self.c = coeffs
        self.deg = deg

    # ---------- constructors ----------

    @staticmethod
    def constant(x) -> "TJet":
        x = np.asarray(x, dtype=float)
        c = np.zeros(x.shape + (_NC[ORDER],))
        c[..., 0] = x
        return TJet(c)

    @staticmethod
    def variable(var: int, x) -> "TJet":
        """The seed jet of parameter `var` at the evaluation point(s) x."""
        out = TJet.constant(x)
        out.c[..., _PARTIALS[1][0][var]] = 1.0
        return out

    @staticmethod
    def stack(jets: list["TJet"], axis: int = -1) -> "TJet":
        """The jets, broadcast, side by side along a new leading axis.

        A negative axis counts from the last leading axis, as for arrays of
        the leading shape.
        """
        deg = min(j.deg for j in jets)
        cs = np.broadcast_arrays(*(_cut(j.c, deg) for j in jets))
        return TJet(np.stack(cs, axis=axis - 1 if axis < 0 else axis), deg)

    # ---------- readout ----------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[:-1]

    @property
    def value(self) -> np.ndarray:
        return self.c[..., 0]

    def __getitem__(self, idx) -> "TJet":
        """Index the leading axes."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        return TJet(self.c[idx + (slice(None),)], self.deg)

    def deriv(self, var: int) -> "TJet":
        """Partial derivative jet; valid to one degree less than self."""
        if self.deg == 0:
            raise ValueError("a degree-0 jet has no valid derivative")
        target, source, power = _DERIV[var][self.deg]
        c = np.zeros(self.c.shape[:-1] + (_NC[self.deg - 1],))
        c[..., target] = self.c[..., source] * power
        return TJet(c, self.deg - 1)

    def sum(self, axes: int = 1) -> "TJet":
        """Sum over the last `axes` leading axes, term by term in row-major
        order from +0.0, as a Python loop adds.

        `np.cumsum` adds sequentially from the first term; adding +0.0 to
        its total turns an all-(-0.0) sum into +0.0, as a loop from +0.0 does.
        """
        c = self.c.reshape(self.c.shape[: -1 - axes] + (-1, self.c.shape[-1]))
        return TJet(np.cumsum(c, axis=-2)[..., -1, :] + 0.0, self.deg)

    # ---------- arithmetic ----------

    @staticmethod
    def _coerce(x) -> "TJet":
        return x if isinstance(x, TJet) else TJet.constant(x)

    def __add__(self, other) -> "TJet":
        other = TJet._coerce(other)
        deg = min(self.deg, other.deg)
        return TJet(_cut(self.c, deg) + _cut(other.c, deg), deg)

    __radd__ = __add__

    def __sub__(self, other) -> "TJet":
        other = TJet._coerce(other)
        deg = min(self.deg, other.deg)
        return TJet(_cut(self.c, deg) - _cut(other.c, deg), deg)

    def __rsub__(self, other) -> "TJet":
        return TJet._coerce(other) - self

    def __neg__(self) -> "TJet":
        return TJet(-self.c, self.deg)

    @staticmethod
    def _scale(x) -> np.ndarray | float:
        """A number or an array of numbers, shaped to scale coefficient arrays."""
        x = np.asarray(x, dtype=float)
        return float(x) if x.ndim == 0 else x[..., np.newaxis]

    def __mul__(self, other) -> "TJet":
        if not isinstance(other, TJet):
            return TJet(self.c * TJet._scale(other), self.deg)
        deg = min(self.deg, other.deg)
        n = _NC[deg]
        # an operand larger than one block of degree-deg coefficients is
        # blocked before any full-size gather; the cell count of the terms
        # catches smaller operands that broadcast past one block
        if self.c.size > _FLAT_CELLS * n or other.c.size > _FLAT_CELLS * n:
            return TJet(_blocked_product(self.c, other.c, deg), deg)
        left, right, target = _MUL[deg]
        terms = self.c[..., left] * other.c[..., right]
        lead = terms.shape[:-1]
        cells = math.prod(lead)
        if cells > _FLAT_CELLS:
            return TJet(_blocked_product(self.c, other.c, deg), deg)
        flat = _FLAT[deg][: cells * len(target)]
        out = np.bincount(flat, weights=terms.ravel(), minlength=cells * n)
        return TJet(out.reshape(lead + (n,)), deg)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TJet":
        if not isinstance(other, TJet):
            return TJet(self.c / TJet._scale(other), self.deg)
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> "TJet":
        return TJet._coerce(other) * self.reciprocal()

    # ---------- composition with smooth functions ----------

    def _compose(self, d: list[np.ndarray]) -> "TJet":
        """Taylor composition with f given its derivatives d[k] = f^(k)(value),
        for k up to the jet's degree at least.

        Exact because the nilpotent part h satisfies h^(deg + 1) = 0 in the
        truncated algebra, so only the powers h .. h^deg are formed.  For
        finite jets this is bitwise the sum through h^ORDER: a higher power
        would add only +-0, and adding +-0 changes no coefficient of
        f(value) + h f'(value) that is not -0.0.  None is: each is a sum from
        +0.0 but the value's, f(value) + 0 * f'(value), which is -0.0 only
        if f(value) is -0.0 and f'(value) negative, as at no value of the
        functions here.  The powers of h are formed once, so derivatives
        stacked on a new leading axis (shape (F,) + self.shape) compose F
        functions at once.
        """
        h = TJet(self.c.copy(), self.deg)
        h.c[..., 0] = 0.0
        out = TJet.constant(d[0]) + h * d[1]
        term = h
        fact = 1.0
        for k in range(2, self.deg + 1):
            term = term * h
            fact *= k
            out = out + term * (d[k] / fact)
        return out

    def sincos(self) -> "TJet":
        """sin and cos in one composition, stacked on a new leading axis."""
        s, co = _elementwise(math.sin, self.value), _elementwise(math.cos, self.value)
        return self._compose([np.stack(d) for d in ((s, co), (co, -s), (-s, -co), (-co, s))])

    def sin(self) -> "TJet":
        return self.sincos()[0]

    def cos(self) -> "TJet":
        return self.sincos()[1]

    def sinhcosh(self) -> "TJet":
        """sinh and cosh in one composition, stacked on a new leading axis."""
        s, co = _elementwise(math.sinh, self.value), _elementwise(math.cosh, self.value)
        return self._compose([np.stack(d) for d in ((s, co), (co, s), (s, co), (co, s))])

    def sinh(self) -> "TJet":
        return self.sinhcosh()[0]

    def cosh(self) -> "TJet":
        return self.sinhcosh()[1]

    def sqrt(self) -> "TJet":
        """x^(1/2); the frame takes `rsqrt`, and this stays for jet evaluators
        of custom immersions."""
        v = self.value
        bad = v <= 0.0
        if np.any(bad):
            raise ValueError(f"jet sqrt needs a positive value, got {float(v[bad][0])}")
        r = np.sqrt(v)  # correctly rounded, like math.sqrt
        d = [r, 0.5 / r]  # the derivatives the jet's degree reads
        if self.deg >= 2:
            d.append(-0.25 / (r * v))
        if self.deg >= 3:
            d.append(0.375 / (r * v * v))
        return self._compose(d)

    def rsqrt(self) -> "TJet":
        """x^(-1/2) in one composition: s = 1 / sqrt(x), with the derivatives
        -s / (2x), 3s / (4x^2) and -15s / (8x^3), each from s / x."""
        v = self.value
        bad = v <= 0.0
        if np.any(bad):
            raise ValueError(f"jet rsqrt needs a positive value, got {float(v[bad][0])}")
        s = 1.0 / np.sqrt(v)
        sv = s / v
        d = [s, -0.5 * sv]  # the derivatives the jet's degree reads
        if self.deg >= 2:
            d.append(0.75 * sv / v)
        if self.deg >= 3:
            d.append(-1.875 * sv / (v * v))
        return self._compose(d)

    def reciprocal(self) -> "TJet":
        v = self.value
        if np.any(v == 0.0):
            raise ZeroDivisionError("jet reciprocal at zero value")
        iv = 1.0 / v
        d = [iv, -iv * iv]  # the derivatives the jet's degree reads
        if self.deg >= 2:
            d.append(2.0 * _elementwise(lambda x: x**3, iv))
        if self.deg >= 3:
            d.append(-6.0 * _elementwise(lambda x: x**4, iv))
        return self._compose(d)
