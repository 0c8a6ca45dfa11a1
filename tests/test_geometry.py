from fractions import Fraction

import pytest

from walgebra import geometry
from walgebra.geometry import (
    GeometryError,
    _det_exact,
    jc_closed_form,
    jc_recursive,
    omega_matrix,
    verify_inverse,
    wonderbolic_basis,
)
from walgebra.pyramid import Pyramid


def test_wonderbolic_dimensions():
    for N in range(3, 9):
        w, nb = wonderbolic_basis(N)
        assert len(w) == 2 * nb
        assert nb == N * (N - 1) // 2 - 1


def test_wonderbolic_pattern():
    # zero first two entries of rows 1-2 except the b block, zero last column
    w, _ = wonderbolic_basis(4)
    assert (1, 1) not in w and (2, 1) not in w
    assert (1, 4) not in w and (3, 4) not in w
    assert (1, 2) in w and (2, 2) in w and (3, 1) in w


def test_omega_example_n3():
    w, _, gram = omega_matrix(3)
    a = w.index((3, 1))
    b = w.index((1, 2))
    # omega(E31, E12) = Tr(e [E31, E12]) = Tr(E23 E32) = 1
    assert gram[a][b] == 1
    for k in range(len(w)):
        assert gram[k][k] == 0


def test_omega_column_relation():
    # omega(E_{j,i-1}, E_{i,j}) = -1 and, for j >= 3,
    # omega(E_{j,i-1}, E_{i-1,j-1}) = +1, all other m-pairings zero
    N = 5
    w, nb, gram = omega_matrix(N)
    index = {v: k for k, v in enumerate(w)}
    for (j, c) in w[:nb]:
        i = c + 1
        row = gram[index[(j, c)]]
        expected = {}
        if (i, j) in index:
            expected[(i, j)] = Fraction(-1)
        if j >= 3 and (i - 1, j - 1) in index:
            expected[(i - 1, j - 1)] = Fraction(1)
        got = {m: row[index[m]] for m in w[nb:] if row[index[m]] != 0}
        assert got == expected, ((j, c), got, expected)


def test_jc_recursive_base_cases():
    jc = jc_recursive(3)
    # j_c columns: j_c^21(E*_31) = E_12, j_c^21(E*_32) = E_22
    assert jc == {((1, 2), (3, 1)): 1, ((2, 2), (3, 2)): 1}


def test_jc_recursive_rejects_image_outside_b(monkeypatch):
    # a basis with one first leg of j_c moved from b to the m side: the
    # recursion still lands on it, and the guard must see it leave b
    honest = geometry.wonderbolic_basis
    moved = min(jc_closed_form(5))[0]

    def doctored(N):
        w, nb = honest(N)
        return tuple(v for v in w[:nb] if v != moved) + w[nb:] + (moved,), nb - 1

    monkeypatch.setattr(geometry, "wonderbolic_basis", doctored)
    with pytest.raises(GeometryError, match="recursion left b"):
        jc_recursive(5)


def test_jc_closed_form_n3_n4():
    jc3 = jc_closed_form(3)
    assert jc3 == {
        ((2, 2), (3, 2)): 1,
        ((1, 2), (3, 1)): 1,
    }
    jc4 = jc_closed_form(4)
    assert jc4[((1, 3), (4, 1))] == 1
    # the (4,3) column picks up both E_22 and E_33
    assert jc4[((2, 2), (4, 3))] == 1
    assert jc4[((3, 3), (4, 3))] == 1


def test_jc_term_count_growth():
    # first family contributes sum_j (j-1)(N-j) terms: cubic growth
    for N in (4, 6, 8):
        jc = jc_closed_form(N)
        expected = sum((j - 1) * (N - j) for j in range(2, N)) + (N - 2)
        assert len(jc) == expected


@pytest.mark.parametrize("N", range(3, 9))
def test_verify_inverse(N):
    rep = verify_inverse(N)
    assert rep["ok"], rep
    assert rep["checks"]["recursive_equals_closed_form"]
    assert rep["checks"]["inverse_on_w"]
    assert rep["checks"]["isotropic_b"] and rep["checks"]["isotropic_m"]
    assert rep["checks"]["nondegenerate"]
    assert rep["checks"]["e_outside_w"]
    assert rep["recursive_vs_closed_diff"] == []


@pytest.mark.parametrize("doctor", ["drop", "alter", "outside-w"])
def test_verify_inverse_fails_closed(monkeypatch, doctor):
    # j_c with one term dropped, one coefficient changed, or one term added
    # whose first leg E_15 lies outside w: every dependent fact fails
    honest = geometry.jc_recursive

    def doctored(N):
        jc = honest(N)
        key = min(jc)
        if doctor == "drop":
            del jc[key]
        elif doctor == "alter":
            jc[key] += 1
        else:
            jc[((1, N), key[1])] = 1
        return jc

    monkeypatch.setattr(geometry, "jc_recursive", doctored)
    rep = verify_inverse(5)
    assert not rep["checks"]["recursive_equals_closed_form"]
    assert not rep["checks"]["inverse_on_w"]
    assert not rep["ok"]
    assert rep["recursive_vs_closed_diff"]


def test_det_exact():
    assert _det_exact([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]) == 1
    assert _det_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


def test_omega_structure_constants_match_matrix_products():
    import random

    from walgebra.geometry import omega_pairing

    rng = random.Random(3)
    for N in (3, 5, 7):
        w, _, gram = omega_matrix(N)
        for _ in range(40):
            a = rng.randrange(len(w))
            b = rng.randrange(len(w))
            assert gram[a][b] == omega_pairing(Pyramid.subregular(N), w[a], w[b])


def test_verify_inverse_runtime():
    import time

    start = time.monotonic()
    for N in range(3, 9):
        assert verify_inverse(N)["ok"]
    assert time.monotonic() - start < 1.0


def test_rmatrix_antisymmetry_by_construction():
    jc = jc_closed_form(5)
    r = geometry._merged(jc, geometry._swap_legs(jc), -1)
    assert r and not geometry._merged(r, geometry._swap_legs(r), 1)
