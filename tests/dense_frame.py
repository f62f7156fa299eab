"""Dense reference for the jet front: Gram-Schmidt and the Cramer solve over
every entry of the 3x3 frame, zeros and units included.

`hypersurface.orthonormal_frame` and `hypersurface.bracket_field` skip the
entries of the lower-triangular frame that are exactly zero or one; these
are the same computations without the skips, so the two must agree bit for
bit.  `det3` is also the jet determinant for tests that need one.
"""

from __future__ import annotations

import numpy as np

from paraframe.frame import StructureField
from paraframe.hypersurface import (
    _PAIR,
    _PAIR_L,
    _PAIR_M,
    _UPPER_I,
    _UPPER_J,
    AmbientSignature,
    FrameCoeffs,
    Jet3,
    induced_metric,
)
from paraframe.jets import TJet, _cut, partials
from paraframe.tensors import DIM


def dense_orthonormal_frame(jet: Jet3, sig: AmbientSignature) -> FrameCoeffs:
    """Gram-Schmidt on the identity coefficient rows, every product formed."""
    metric = induced_metric(jet, sig)
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
        rows.append(w * n2.sqrt().reciprocal()[..., None])

    jets = TJet.stack(rows, axis=-2)
    a = jets.value
    v = np.abs(a)
    big = v > 1e-9 * np.max(v, axis=-1, keepdims=True)
    lead = np.take_along_axis(a, np.argmax(big, axis=-1)[..., None], -1)[..., 0]
    flip = np.any(big, axis=-1) & (lead < 0.0)
    jets = TJet(np.where(flip[..., None, None], -jets.c, jets.c), jets.deg)
    return FrameCoeffs(a=partials(jets, 0), jets=jets, metric=metric)


def det3(q: TJet) -> TJet:
    """Determinants of the 3x3 jet matrices q[..., row, col], by cofactors
    along the first row."""
    minors = q[..., [1, 1, 1], [1, 0, 0]] * q[..., [2, 2, 2], [2, 2, 1]] - (
        q[..., [1, 1, 1], [2, 2, 1]] * q[..., [2, 2, 2], [1, 0, 0]]
    )
    t = q[..., 0, :] * minors
    return t[..., 0] - t[..., 1] + t[..., 2]


def dense_bracket_field(fc: FrameCoeffs) -> StructureField:
    """All 54 bracket products, and Cramer's rule by full 3x3 determinants."""
    aj = fc.jets
    daj = TJet.stack([aj.deriv(l) for l in range(DIM)], axis=-2)  # [..., i, l, m] = d_l a[i, m]
    pi, pj = _UPPER_I, _UPPER_J
    plus = aj[..., pi, :, None] * daj[..., pj, :, :]
    minus = aj[..., pj, :, None] * daj[..., pi, :, :]
    b = TJet.constant(0.0)
    for l in range(DIM):
        b = b + plus[..., l, :] - minus[..., l, :]

    mat = TJet(np.swapaxes(_cut(aj.c, 1), -3, -2), 1)  # [..., m, k]
    inv_det = det3(mat).reciprocal()
    column = np.eye(DIM, dtype=bool)[:, None, :, None]  # [col, row, k]
    repl = np.where(column, b.c[..., :, None, :, None, :], mat.c[..., None, None, :, :, :])
    solved = det3(TJet(repl, 1)) * inv_det[..., None, None]  # [..., pair, k]

    c_jets = np.zeros(solved.c.shape[:-3] + (DIM,) * 3 + solved.c.shape[-1:])
    c_jets[..., pi, pj, :, :] = solved.c
    c_jets[..., pj, pi, :, :] = -solved.c
    c_jets = TJet(c_jets, solved.deg)
    c = partials(c_jets, 0)
    dcoord = partials(c_jets, 1)
    dc = np.einsum("...lm,m...ijk->...lijk", fc.a, dcoord)
    return StructureField(c=c, dc=dc)
