import math

import numpy as np

from conftest import pipeline
from paraframe.frame import StructureField, d_eta, koszul, nabla_xi_xi
from paraframe.nijenhuis import nijenhuis_direct, nijenhuis_from_F
from paraframe.structure import ETA
from paraframe.tensors import max_abs

LN2 = math.log(2.0)


def build_expected(entries: dict) -> np.ndarray:
    t = np.zeros((3, 3, 3))
    for idx, v in entries.items():
        t[idx] = v
    return t


def test_nijenhuis_s1_quarter_turn():
    ctx = pipeline("s1", 1.0, [0.3, math.pi / 4, 1.1])
    n, _ = nijenhuis_from_F(ctx.f)
    expected = build_expected({(0, 1, 0): 1.0, (1, 0, 0): -1.0})
    assert np.allclose(n, expected, atol=1e-12)


def test_assoc_nijenhuis_s1_quarter_turn():
    ctx = pipeline("s1", 1.0, [0.3, math.pi / 4, 1.1])
    _, hn = nijenhuis_from_F(ctx.f)
    expected = build_expected(
        {
            (2, 2, 1): 4.0,
            (1, 1, 1): 4.0,
            (1, 2, 2): -4.0,
            (2, 1, 2): -4.0,
            (0, 0, 1): -2.0,
            (0, 1, 0): 1.0,
            (1, 0, 0): 1.0,
        }
    )
    assert np.allclose(hn, expected, atol=1e-12)


def test_nijenhuis_s2_log_two():
    ctx = pipeline("s2", 1.0, [LN2, 0.4, 0.9])
    n, _ = nijenhuis_from_F(ctx.f)
    w = 16.0 / 15.0  # 2 / sinh(2 ln 2)
    expected = build_expected(
        {(1, 0, 1): w, (0, 1, 1): -w, (0, 2, 2): w, (2, 0, 2): -w}
    )
    assert np.allclose(n, expected, atol=1e-12)


def test_assoc_nijenhuis_s2_log_two():
    ctx = pipeline("s2", 1.0, [LN2, 0.4, 0.9])
    _, hn = nijenhuis_from_F(ctx.f)
    w = 16.0 / 15.0
    expected = build_expected(
        {
            (1, 0, 1): w,
            (0, 1, 1): w,
            (2, 0, 2): -w,
            (0, 2, 2): -w,
            (1, 1, 0): -68.0 / 15.0,
            (2, 2, 0): -68.0 / 15.0,
        }
    )
    assert np.allclose(hn, expected, atol=1e-12)


def test_zero_f_gives_zero():
    zero = np.zeros((3, 3, 3))
    n, hn = nijenhuis_from_F(zero)
    assert max_abs(n) == 0.0
    assert max_abs(hn) == 0.0


def test_direct_route_flat_frame():
    zero = StructureField(c=np.zeros((3, 3, 3)), dc=np.zeros((3, 3, 3, 3)))
    n, hn = nijenhuis_direct(koszul(zero), zero)
    assert max_abs(n) == 0.0
    assert max_abs(hn) == 0.0


def test_symmetry_in_first_slots(batches):
    for batch in batches.values():
        for item in batch:
            n = item["a"].nijenhuis
            hn = item["a"].assoc_nijenhuis
            assert max_abs(n + np.swapaxes(n, 0, 1)) <= 1e-12
            assert max_abs(hn - np.swapaxes(hn, 0, 1)) <= 1e-12


def test_cross_route_agreement(batches):
    for batch in batches.values():
        for item in batch:
            res = item["a"].residuals
            assert res["nijenhuis_cross_route"] <= 1e-9
            assert res["assoc_nijenhuis_cross_route"] <= 1e-9


def test_s1_n_equals_minus_deta_xi(s1_batch):
    for item in s1_batch:
        a = item["a"]
        de = d_eta(a.connection)
        rebuilt = -np.einsum("ij,k->ijk", de, ETA)
        assert max_abs(a.nijenhuis - rebuilt) <= 1e-9


def test_s2_closed_eta_and_geodesic_reeb(s2_batch):
    for item in s2_batch:
        conn = item["a"].connection
        assert max_abs(d_eta(conn)) <= 1e-9
        assert max_abs(nabla_xi_xi(conn)) <= 1e-9
