"""Dense tensor containers and algebra over the 3-dimensional frame.

All tensors are plain float ndarrays indexed by frame slots, with the
convention T[i, j, k, l] = T(e_i, e_j, e_k, e_l).  The frame is orthonormal
throughout the library, so raising and lowering indices is the identity and
metric contractions are plain traces.

Leading axes before the frame slots index the points of a batch:
`contract_metric`, `symmetry_defect`, `curvature_symmetry_residuals` and
`max_abs` with a `rank` act on the last axes and give one result per
point; `kulkarni_nomizu` and `trace2` take one tensor.  `gather` applies a
contraction by constants that only copies entries (a `gather_table`) to the
last axes.
"""

from __future__ import annotations

import numpy as np

DIM = 3

def as_tensor(values, rank: int, batched: bool = False) -> np.ndarray:
    """Validate and normalize a rank-`rank` frame tensor to a float array.

    With `batched`, leading axes (one tensor per point of a batch) are allowed.
    """
    t = np.asarray(values, dtype=float)
    lead = t.shape[: t.ndim - rank] if batched else ()
    if t.shape != lead + (DIM,) * rank:
        raise ValueError(f"expected shape {(DIM,) * rank}, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor has non-finite entries")
    return t


def permute(t: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """np.transpose of the last len(axes) axes by `axes`; leading axes stay put."""
    lead = t.ndim - len(axes)
    return np.transpose(t, (*range(lead), *(lead + a for a in axes)))


def _frozen(a) -> np.ndarray:
    """Read-only float copy, for tensors held by frozen dataclasses."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def gather_table(*terms) -> np.ndarray:
    """The `gather` table of 0/1 contractions of one tensor t by constants.

    Each term is (formula, *operands): an einsum with None in the place of
    the batched tensor t.  Applied to each basis tensor of t, it shows which
    entry of t each output entry copies; table[term] holds that entry's flat
    index over t's frame slots, or DIM**rank, the zero slot `gather` appends,
    where it copies none.  A contraction that sums or scales is a ValueError.
    """
    formula, *operands = terms[0]
    slot = [op is None for op in operands].index(True)
    rank = len(formula.split("->")[0].split(",")[slot].replace("...", ""))
    n = DIM**rank
    basis = np.asfortranarray(np.eye(n).reshape((n,) + (DIM,) * rank))
    out = np.stack(
        [np.einsum(f, *(basis if op is None else op for op in ops)) for f, *ops in terms], axis=1
    )
    coeffs = out.reshape(n, -1)  # [entry of t, output entry of each term]
    entry, copy = np.nonzero(coeffs)
    if not (coeffs[entry, copy] == 1.0).all() or len(set(copy.tolist())) < copy.size:
        raise ValueError(f"{[f for f, *_ in terms]} is not a 0/1 selection")
    table = np.full(coeffs.shape[1], n)
    table[copy] = entry
    return table.reshape(out.shape[1:])


def gather(t: np.ndarray, table: np.ndarray, rank: int) -> list[np.ndarray]:
    """The contractions of t a `gather_table` stands for, one array per term.

    t has `rank` frame slots after any leading (batch) axes, which every
    result keeps.  For finite t each result is bitwise its einsum: that
    einsum adds its one selected entry and zeros to a +0.0 start, which gives
    the entry (a -0.0 entry as +0.0) or +0.0, and so does reading `t + 0.0`.
    """
    lead = t.shape[: t.ndim - rank]
    n = DIM**rank
    padded = np.zeros(lead + (n + 1,))
    np.add(t.reshape(lead + (n,)), 0.0, out=padded[..., :n])
    out = padded[..., table]
    return [out[(slice(None),) * len(lead) + (k,)] for k in range(len(table))]


def max_abs(t, rank: int | None = None):
    """Max-norm of a tensor (0.0 for empty input).

    With `rank`, the norm runs over the last `rank` axes only: one value per
    point of a batch of rank-`rank` tensors.
    """
    a = np.abs(np.asarray(t, dtype=float))
    if rank is None:
        return float(a.max()) if a.size else 0.0
    return a.reshape(a.shape[: a.ndim - rank] + (-1,)).max(axis=-1)


def symmetry_defect(t: np.ndarray):
    """Max-norm of T - T^t for a rank-2 tensor, per point."""
    return max_abs(t - np.swapaxes(t, -1, -2), 2)


def kulkarni_nomizu(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric (0,2)-tensors.

    (g ^ h)(x,y,z,w) = g(x,z)h(y,w) - g(y,z)h(x,w)
                       + g(y,w)h(x,z) - g(x,w)h(y,z)

    The result carries the algebraic curvature symmetries, which is why
    non-symmetric factors are rejected.
    """
    g = as_tensor(g, 2)
    h = as_tensor(h, 2)
    if symmetry_defect(g) > 0.0 or symmetry_defect(h) > 0.0:
        raise ValueError("kulkarni_nomizu requires symmetric factors")
    return (
        np.einsum("ik,jl->ijkl", g, h)
        - np.einsum("jk,il->ijkl", g, h)
        + np.einsum("jl,ik->ijkl", g, h)
        - np.einsum("il,jk->ijkl", g, h)
    )


def contract_metric(t: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """Metric trace of a curvature-type tensor over its outer slots.

    Returns rho[j, k] = sum_i T(e_i, e_j, e_k, e_i); with `phi` given,
    the twisted variant rho*[j, k] = sum_i T(e_i, e_j, e_k, phi e_i).
    The frame metric is the identity, so the inverse-metric factors drop.
    """
    t = as_tensor(t, 4, batched=True)
    if phi is None:
        return np.einsum("...ijki->...jk", t)
    phi = as_tensor(phi, 2)
    return np.einsum("...ijkm,mi->...jk", t, phi)


def trace2(t: np.ndarray) -> float:
    """Frame trace of a (0,2)-tensor."""
    return float(np.trace(as_tensor(t, 2)))


def curvature_symmetry_residuals(r: np.ndarray) -> dict[str, np.ndarray]:
    """Residuals of the algebraic curvature identities for a (0,4)-tensor,
    one per point.

    Keys: antisymmetry in the first and second slot pairs, pair-swap
    symmetry, and the first Bianchi identity.
    """
    r = as_tensor(r, 4, batched=True)
    return {
        "antisym_12": max_abs(r + permute(r, (1, 0, 2, 3)), 4),
        "antisym_34": max_abs(r + permute(r, (0, 1, 3, 2)), 4),
        "pair_symmetry": max_abs(r - permute(r, (2, 3, 0, 1)), 4),
        "first_bianchi": max_abs(r + permute(r, (1, 2, 0, 3)) + permute(r, (2, 0, 1, 3)), 4),
    }
