"""The constant phi, xi and eta are contracted by gather: each gather equals
the einsum it replaces bit for bit, and so do the stage functions built
from them, on batched tensors holding +0.0, -0.0 and exact cancellations.
The report's sectional curvatures k_ab, read off R as R_abba, are
`frame.sectional` of the basis planes bit for bit.

The einsum formulas below are the oracle; they are the formulas the
gathers were built from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from paraframe import classifier, nijenhuis, report
from paraframe.frame import ConnectionCoeffs, StructureField, d_eta, lie_xi_g, sectional
from paraframe.hypersurface import PointBatch, sample_points
from paraframe.structure import ETA, PHI, XI
from paraframe.tensors import gather, gather_table, max_abs

#: (tables, index, formula, operands with None for the gathered tensor)
CONTRACTIONS = [
    (classifier._F_TERMS, 0, "mj,...imk->...ijk", (PHI, None)),
    (classifier._F_TERMS, 1, "km,...ijm->...ijk", (PHI, None)),
    (classifier._REBUILT_TERMS, 0, "aj,bk,...iab->...ijk", (PHI, PHI, None)),
    (classifier._REBUILT_TERMS, 1, "j,...imk,m->...ijk", (ETA, None, XI)),
    (classifier._REBUILT_TERMS, 2, "k,...ijm,m->...ijk", (ETA, None, XI)),
    (classifier._NABLA_ETA_TERMS, 0, "mj,...imk,k->...ij", (PHI, None, XI)),
    (nijenhuis._F_TERMS, 0, "mi,...mjk->...ijk", (PHI, None)),
    (nijenhuis._F_TERMS, 1, "mj,...mik->...ijk", (PHI, None)),
    (nijenhuis._F_TERMS, 2, "mk,...ijm->...ijk", (PHI, None)),
    (nijenhuis._F_TERMS, 3, "mk,...jim->...ijk", (PHI, None)),
    (nijenhuis._F_CORRECTIONS, 0, "mj,...ims,s->...ij", (PHI, None, XI)),
    (nijenhuis._F_CORRECTIONS, 1, "mi,...jms,s->...ij", (PHI, None, XI)),
    (nijenhuis._ETA_K, 0, "k,...ij->...ijk", (ETA, None)),
    (nijenhuis._B_TERMS, 0, "ai,bj,...abk->...ijk", (PHI, PHI, None)),
    (nijenhuis._B_TERMS, 1, "...ijm,km->...ijk", (None, PHI @ PHI)),
    (nijenhuis._B_TERMS, 2, "ai,...ajm,km->...ijk", (PHI, None, PHI)),
    (nijenhuis._B_TERMS, 3, "bj,...ibm,km->...ijk", (PHI, None, PHI)),
    (nijenhuis._K_ETA, 0, "...ij,k->...ijk", (None, ETA)),
]


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _same_bits(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


@st.composite
def batches(draw, rank: int, count: int = 1) -> list[np.ndarray]:
    """`count` tensors of one batch (no leading axis, 1-4 points or a 2 x 2
    grid), each entry +-0.0 or +-x or +-y, so that differences and sums of
    entries cancel exactly."""
    x, y = draw(st.lists(st.floats(-1e6, 1e6).filter(bool), min_size=2, max_size=2))
    lead = draw(st.sampled_from(((), (1,), (2,), (3,), (4,), (2, 2))))
    shape = lead + (3,) * rank
    pool = st.sampled_from((0.0, -0.0, x, -x, y, -y))
    return [draw(arrays(np.float64, shape, elements=pool)) for _ in range(count)]


def _oracle_fundamental_tensor(gamma):
    return np.einsum("mj,...imk->...ijk", PHI, gamma) - np.einsum("km,...ijm->...ijk", PHI, gamma)


def _oracle_f_symmetry_second(f):
    rebuilt = (
        -np.einsum("aj,bk,...iab->...ijk", PHI, PHI, f)
        + np.einsum("j,...imk,m->...ijk", ETA, f, XI)
        + np.einsum("k,...ijm,m->...ijk", ETA, f, XI)
    )
    return max_abs(f - rebuilt, 3)


def _oracle_nabla_eta(gamma, f):
    rhs = -np.einsum("mj,...imk,k->...ij", PHI, f, XI)
    return max_abs(gamma[..., :, 0, :] - rhs, 2)


def _oracle_nijenhuis_from_f(f):
    n = np.einsum("mi,...mjk->...ijk", PHI, f) - np.einsum("mj,...mik->...ijk", PHI, f)
    n -= np.einsum("mk,...ijm->...ijk", PHI, f) - np.einsum("mk,...jim->...ijk", PHI, f)
    corr = np.einsum("mj,...ims,s->...ij", PHI, f, XI) - np.einsum("mi,...jms,s->...ij", PHI, f, XI)
    n += np.einsum("k,...ij->...ijk", ETA, corr)
    return n


def _oracle_assoc_nijenhuis_from_f(f):
    n = np.einsum("mi,...mjk->...ijk", PHI, f) + np.einsum("mj,...mik->...ijk", PHI, f)
    n -= np.einsum("mk,...ijm->...ijk", PHI, f) + np.einsum("mk,...jim->...ijk", PHI, f)
    corr = np.einsum("mj,...ims,s->...ij", PHI, f, XI) + np.einsum("mi,...jms,s->...ij", PHI, f, XI)
    n += np.einsum("k,...ij->...ijk", ETA, corr)
    return n


def _oracle_torsion_like(b, correction):
    out = np.einsum("ai,bj,...abk->...ijk", PHI, PHI, b)
    out += np.einsum("...ijm,km->...ijk", b, PHI @ PHI)
    out -= np.einsum("ai,...ajm,km->...ijk", PHI, b, PHI)
    out -= np.einsum("bj,...ibm,km->...ijk", PHI, b, PHI)
    out -= np.einsum("...ij,k->...ijk", correction, ETA)
    return out


@given(batches(3), batches(2))
@settings(max_examples=100, deadline=None)
def test_each_gather_is_its_einsum(rank3, rank2):
    tensors = {3: rank3[0], 2: rank2[0]}
    for tables, index, formula, operands in CONTRACTIONS:
        slot = [op is None for op in operands].index(True)
        rank = len(formula.split("->")[0].split(",")[slot].replace("...", ""))
        t = tensors[rank]
        expected = np.einsum(formula, *(t if op is None else op for op in operands))
        assert _same_bits(gather(t, tables, rank)[index], expected), formula


@given(batches(3, count=2))
@settings(max_examples=100, deadline=None)
def test_classifier_stages_are_their_einsums(tensors):
    gamma, f = tensors
    conn = ConnectionCoeffs(gamma=gamma, dgamma=np.zeros(gamma.shape[:-3] + (3,) * 4))
    assert _same_bits(classifier.fundamental_tensor(conn), _oracle_fundamental_tensor(gamma))
    assert _same_bits(classifier.f_symmetry_residuals(f)[1], _oracle_f_symmetry_second(f))
    assert _same_bits(classifier.check_nabla_eta_relation(conn, f), _oracle_nabla_eta(gamma, f))


@given(batches(3, count=3))
@settings(max_examples=100, deadline=None)
def test_nijenhuis_stages_are_their_einsums(tensors):
    f, gamma, c = tensors
    n, hn = nijenhuis.nijenhuis_from_F(f)
    assert _same_bits(n, _oracle_nijenhuis_from_f(f))
    assert _same_bits(hn, _oracle_assoc_nijenhuis_from_f(f))
    conn = ConnectionCoeffs(gamma=gamma, dgamma=np.zeros(gamma.shape[:-3] + (3,) * 4))
    sf = StructureField(c=c, dc=np.zeros(c.shape[:-3] + (3,) * 4))
    sym = gamma + np.swapaxes(gamma, -3, -2)
    n, hn = nijenhuis.nijenhuis_direct(conn, sf)
    assert _same_bits(n, _oracle_torsion_like(c, d_eta(conn)))
    assert _same_bits(hn, _oracle_torsion_like(sym, lie_xi_g(conn)))


#: The basis planes (e_a, e_b) of the report's k_ab, in `_SECTIONAL_KEYS` order.
_PLANES = [(np.eye(3)[a], np.eye(3)[b]) for a, b in zip(report._A, report._B)]


@given(batches(4))
@settings(max_examples=100, deadline=None)
def test_sectional_basis_read_is_frame_sectional(tensors):
    # the report reads k_ab as R_abba, which is frame.sectional bit for bit
    (r,) = tensors
    k = r[..., report._A, report._B, report._B, report._A] + 0.0
    for j, (x, y) in enumerate(_PLANES):
        assert _same_bits(k[..., j], sectional(r, x, y))


@pytest.mark.parametrize("model", ["s1", "s2"])
@pytest.mark.parametrize("r", [1e-3, 1.0, 1e4])
def test_chunk_k_is_frame_sectional(model, r):
    (a,) = report._analysed(PointBatch.of(sample_points(model, report.CHUNK, seed=5, r=r)), 1e-9)
    for j, (x, y) in enumerate(_PLANES):
        assert _same_bits(a.k[:, j], sectional(a.curvature, x, y))


def test_gather_table_rejects_a_contraction_that_sums_or_scales():
    with pytest.raises(ValueError, match="0/1 selection"):
        gather_table(("mk,...ijm->...ijk", np.ones((3, 3)), None))  # sums
    with pytest.raises(ValueError, match="0/1 selection"):
        gather_table(("mk,...ijm->...ijk", 2.0 * PHI, None))  # scales
