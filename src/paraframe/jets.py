"""Truncated Taylor jets in three variables.

Forward-mode differentiation for the frame pipeline: every scalar quantity
is carried as a multivariate Taylor polynomial in the three surface
parameters, truncated at total degree 3.  Within the truncated algebra all
arithmetic is exact, so derivatives read off a jet are correct to machine
precision up to the order the jet was built for (a quantity obtained after
k jet-differentiations of degree-3 data is valid to degree 3 - k).

Coefficients are stored against the graded list of multi-indices
(1, u0, u1, u2, u0^2, u0*u1, ...); the coefficient of the monomial u^alpha
is d^alpha f / alpha!.  `partials` reads the partials of one order off a
nested list of jets at once, as an array with the derivative axes first.
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
_NCOEFF = len(_MONOMIALS)

# (i, j, target) triples with monomial_i * monomial_j = monomial_target,
# restricted to total degree <= ORDER.
_MUL_TABLE = []
for _i, _a in enumerate(_MONOMIALS):
    for _j, _b in enumerate(_MONOMIALS):
        _c = tuple(x + y for x, y in zip(_a, _b))
        if sum(_c) <= ORDER:
            _MUL_TABLE.append((_i, _j, _POS[_c]))

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


def _deriv_table(var: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    source = [n for n, alpha in enumerate(_MONOMIALS) if alpha[var] > 0]
    target = [_POS[tuple(a - (k == var) for k, a in enumerate(_MONOMIALS[n]))] for n in source]
    power = [_MONOMIALS[n][var] for n in source]
    return np.array(target), np.array(source), np.array(power)


#: _DERIV[var] = (target, source, power): d/du_var sends the coefficient of
#: u^alpha, times alpha[var], to the coefficient of u^(alpha - e_var).
_DERIV = [_deriv_table(var) for var in range(NVARS)]


def partials(jets, order: int) -> np.ndarray:
    """Order-`order` partials of a nested list of jets, derivative axes first.

    For jets nested to shape S the result has shape (NVARS,) * order + S;
    entry [i, j, ..., s] is d^order jets[s] / du_i du_j ...
    """
    pos, fact = _PARTIALS[order]
    cells = np.array(jets, dtype=object)
    coeffs = np.array([j.c for j in cells.flat]).T
    return (coeffs[pos] * fact[..., np.newaxis]).reshape(pos.shape + cells.shape)


class TJet:
    """A scalar Taylor jet: value plus partial derivatives through order 3."""

    __slots__ = ("c",)

    def __init__(self, coeffs: np.ndarray):
        self.c = coeffs

    # ---------- constructors ----------

    @staticmethod
    def constant(x: float) -> "TJet":
        c = np.zeros(_NCOEFF)
        c[0] = float(x)
        return TJet(c)

    @staticmethod
    def variable(var: int, x: float) -> "TJet":
        """The seed jet of parameter `var` at the evaluation point x."""
        c = np.zeros(_NCOEFF)
        c[0] = float(x)
        c[_PARTIALS[1][0][var]] = 1.0
        return TJet(c)

    # ---------- readout ----------

    @property
    def value(self) -> float:
        return float(self.c[0])

    def first(self, l: int) -> float:
        return float(self.c[_PARTIALS[1][0][l]])

    def second(self, l: int, m: int) -> float:
        pos, fact = _PARTIALS[2]
        return float(self.c[pos[l, m]] * fact[l, m])

    def third(self, l: int, m: int, p: int) -> float:
        pos, fact = _PARTIALS[3]
        return float(self.c[pos[l, m, p]] * fact[l, m, p])

    def deriv(self, var: int) -> "TJet":
        """Partial derivative jet; valid to one degree less than self."""
        target, source, power = _DERIV[var]
        c = np.zeros(_NCOEFF)
        c[target] = self.c[source] * power
        return TJet(c)

    # ---------- arithmetic ----------

    @staticmethod
    def _coerce(x) -> "TJet":
        return x if isinstance(x, TJet) else TJet.constant(x)

    def __add__(self, other) -> "TJet":
        return TJet(self.c + TJet._coerce(other).c)

    __radd__ = __add__

    def __sub__(self, other) -> "TJet":
        return TJet(self.c - TJet._coerce(other).c)

    def __rsub__(self, other) -> "TJet":
        return TJet(TJet._coerce(other).c - self.c)

    def __neg__(self) -> "TJet":
        return TJet(-self.c)

    def __mul__(self, other) -> "TJet":
        if not isinstance(other, TJet):
            return TJet(self.c * float(other))
        a, b = self.c, other.c
        out = np.zeros(_NCOEFF)
        for i, j, k in _MUL_TABLE:
            out[k] += a[i] * b[j]
        return TJet(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TJet":
        if not isinstance(other, TJet):
            return TJet(self.c / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> "TJet":
        return TJet._coerce(other) * self.reciprocal()

    # ---------- composition with smooth functions ----------

    def _compose(self, d: list[float]) -> "TJet":
        """Taylor composition with f given its derivatives d[k] = f^(k)(value).

        Exact at ORDER = 3 because the nilpotent part h satisfies h^4 = 0.
        """
        h = TJet(self.c.copy())
        h.c[0] = 0.0
        out = TJet.constant(d[0])
        term = TJet.constant(1.0)
        fact = 1.0
        for k in range(1, ORDER + 1):
            term = term * h
            fact *= k
            out = out + term * (d[k] / fact)
        return out

    def sin(self) -> "TJet":
        s, co = math.sin(self.value), math.cos(self.value)
        return self._compose([s, co, -s, -co])

    def cos(self) -> "TJet":
        s, co = math.sin(self.value), math.cos(self.value)
        return self._compose([co, -s, -co, s])

    def sinh(self) -> "TJet":
        s, co = math.sinh(self.value), math.cosh(self.value)
        return self._compose([s, co, s, co])

    def cosh(self) -> "TJet":
        s, co = math.sinh(self.value), math.cosh(self.value)
        return self._compose([co, s, co, s])

    def sqrt(self) -> "TJet":
        v = self.value
        if v <= 0.0:
            raise ValueError(f"jet sqrt needs a positive value, got {v}")
        r = math.sqrt(v)
        return self._compose([r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)])

    def reciprocal(self) -> "TJet":
        v = self.value
        if v == 0.0:
            raise ZeroDivisionError("jet reciprocal at zero value")
        iv = 1.0 / v
        return self._compose([iv, -iv * iv, 2.0 * iv**3, -6.0 * iv**4])
