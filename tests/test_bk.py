import hashlib
import json

import pytest

from walgebra.algebra import AlgebraElement
from walgebra.bk import (
    chain_sum,
    t1_closed_form,
    t_element,
    truncated_t,
)
from walgebra.pyramid import Pyramid

from closed_forms import kazhdan_degree
from w_generators import subregular_w_generators


def E(order, i, j):
    return AlgebraElement.generator(order, i, j)


def S(order, c):
    return AlgebraElement.scalar(order, c)


def H(order, power=1, c=1):
    return AlgebraElement.scalar(order, c).times_hbar(power)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_t11_explicit(N):
    p = Pyramid.subregular(N)
    order = p.default_order()
    t = t_element(p, 1, 1, 0, 1)
    assert t == E(order, 1, 1) + H(order, 1, -(N - 2))


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_t21_sign_fixture(N):
    # pins the sign-product convention: the value is -E_21, not +E_21
    p = Pyramid.subregular(N)
    order = p.default_order()
    t = t_element(p, 2, 1, 1, 1)
    assert t == E(order, 2, 1).scale(-1)


def test_t_r0():
    p = Pyramid.subregular(4)
    order = p.default_order()
    assert t_element(p, 1, 1, 1, 0) == S(order, -1)
    assert t_element(p, 2, 2, 1, 0) == S(order, 1)
    assert t_element(p, 1, 2, 1, 0).is_zero()
    assert t_element(p, 1, 1, 0, 0) == S(order, 1)


def test_t22_r1_subreg3():
    p = Pyramid.subregular(3)
    t = t_element(p, 2, 2, 1, 1)
    assert t == p.modified_gen(2, 2) + p.modified_gen(3, 3)


def test_t22_r2_subreg3_hand_value():
    # full normal form computed by hand:
    # -E23 - E12*E21 + hbar*E11 + E22*E33 - hbar*E33 - hbar^2
    p = Pyramid.subregular(3)
    o = p.default_order()
    t = t_element(p, 2, 2, 1, 2)
    expected = (
        E(o, 2, 3).scale(-1)
        - E(o, 1, 2) * E(o, 2, 1)
        + H(o, 1, 1) * E(o, 1, 1)
        + E(o, 2, 2) * E(o, 3, 3)
        - H(o, 1, 1) * E(o, 3, 3)
        - H(o, 2, 1)
    )
    assert t == expected


def test_t12_r2_subreg3_hand_value():
    # -E13 - E12*E11 + E12*E33 + hbar*E12
    p = Pyramid.subregular(3)
    o = p.default_order()
    t = t_element(p, 1, 2, 1, 2)
    expected = (
        E(o, 1, 3).scale(-1)
        - E(o, 1, 2) * E(o, 1, 1)
        + E(o, 1, 2) * E(o, 3, 3)
        + H(o) * E(o, 1, 2)
    )
    assert t == expected


def test_t22_r2_subreg4_hand_value():
    # -E23 - E34 - E12*E21 + hbar*E11 + E22*E33 + E22*E44 + E33*E44
    #  - hbar*E33 - 2 hbar*E44 - 2 hbar^2
    p = Pyramid.subregular(4)
    o = p.default_order()
    t = t_element(p, 2, 2, 1, 2)
    expected = (
        E(o, 2, 3).scale(-1)
        - E(o, 3, 4)
        - E(o, 1, 2) * E(o, 2, 1)
        + H(o) * E(o, 1, 1)
        + E(o, 2, 2) * E(o, 3, 3)
        + E(o, 2, 2) * E(o, 4, 4)
        + E(o, 3, 3) * E(o, 4, 4)
        - H(o) * E(o, 3, 3)
        - H(o, 1, 2) * E(o, 4, 4)
        - H(o, 2, 2)
    )
    assert t == expected


def test_t1_matches_closed_form_subregular():
    for N in range(2, 8):
        p = Pyramid.subregular(N)
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                for x in range(0, p.n + 1):
                    assert t_element(p, i, j, x, 1) == t1_closed_form(p, i, j, x)


def test_t1_matches_closed_form_1321():
    p = Pyramid((1, 3, 2, 1))
    for i in range(1, 4):
        for j in range(1, 4):
            for x in range(0, 4):
                assert t_element(p, i, j, x, 1) == t1_closed_form(p, i, j, x)


def test_t1_single_block():
    p = Pyramid((1,))
    assert t1_closed_form(p, 1, 1, 0) == p.modified_gen(1, 1)
    assert t_element(p, 1, 1, 0, 1) == p.modified_gen(1, 1)


def in_parabolic(value: AlgebraElement, p: Pyramid) -> bool:
    """True when no monomial has a factor in m."""
    m_codes = p.m_codes()
    return not any(g in m_codes for mono in value.monomials() for g, _ in mono)


def test_values_lie_in_parabolic():
    for N in (3, 4, 5):
        p = Pyramid.subregular(N)
        for r in range(1, N):
            assert in_parabolic(t_element(p, 2, 2, 1, r), p)
        assert in_parabolic(t_element(p, 1, 2, 1, N - 1), p)


def test_kazhdan_degree_bound():
    # degree <= r with the top graded component nonzero, i.e. degree == r
    for N in (3, 4, 5):
        p = Pyramid.subregular(N)
        for r in range(1, N):
            assert kazhdan_degree(t_element(p, 2, 2, 1, r), p) == r
        assert kazhdan_degree(t_element(p, 1, 2, 1, N - 1), p) == N - 1
        assert kazhdan_degree(t_element(p, 2, 1, 1, 1), p) == 1
        assert kazhdan_degree(t_element(p, 1, 1, 0, 1), p) == 1


def test_truncated_identity_embedding():
    p = Pyramid.subregular(5)
    for r in range(0, 4):
        assert truncated_t(p, 0, 2, 2, 1, r) == t_element(p, 2, 2, 1, r)


def test_truncated_t22_subreg4():
    # one-column truncation of the degree-one element: Etilde_22 + Etilde_33
    # of the FULL pyramid (the embedding shifts diagonals)
    p = Pyramid.subregular(4)
    t = truncated_t(p, 1, 2, 2, 1, 1)
    assert t == p.modified_gen(2, 2) + p.modified_gen(3, 3)
    # and it differs from the same formula evaluated inside the truncation
    inner = t_element(Pyramid.subregular(3), 2, 2, 1, 1)
    assert inner.to_json() != t.to_json()


def test_truncation_preserves_kazhdan_degree():
    p = Pyramid.subregular(5)
    t = truncated_t(p, 2, 2, 2, 1, 2)
    assert kazhdan_degree(t, p) == 2


def test_w_generator_list():
    gens = subregular_w_generators(3)
    assert len(gens) == 5
    gens4 = subregular_w_generators(4)
    assert gens4[2] is t_element(Pyramid.subregular(4), 1, 2, 1, 3)


def test_memoization_returns_same_object():
    p = Pyramid.subregular(4)
    a = t_element(p, 2, 2, 1, 2)
    b = t_element(p, 2, 2, 1, 2)
    assert a is b


# ----------------------------------------------------------------------
# truncated_t sums the chains suffix-first; the oracle below multiplies
# every chain of chain_sum out from the left, with the sign product
# sigma(row(j_1)) ... sigma(row(j_s)) taken afresh from the chain
# ----------------------------------------------------------------------
def _chain_product_sum(value_p, enum_p, i, j, x, r):
    acc = AlgebraElement.zero(value_p.default_order())
    for listed_sign, chain in chain_sum(enum_p, i, j, x, r):
        sign = 1
        prod = None
        for ik, jk in chain:
            sign *= -1 if enum_p.row(jk) <= x else 1
            f = value_p.modified_gen(ik, jk)
            prod = f if prod is None else prod * f
        assert listed_sign == sign
        acc = acc + prod.scale(sign)
    return acc


ORACLE_PYRAMIDS = ("subreg:3", "subreg:4", "subreg:5", "subreg:6",
                   "1,3,3,1", "2,2,2,2", "1,2,2,2,1", "2,3,3,2,1")


@pytest.mark.parametrize("spec", ORACLE_PYRAMIDS)
def test_truncated_t_equals_chain_product_sum(spec):
    p = Pyramid.parse(spec)
    for k in (0, 1):
        enum_p = p.truncate(k)
        n = enum_p.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for x in range(0, n + 1):
                    for r in (1, 2, 3):
                        want = _chain_product_sum(p, enum_p, i, j, x, r)
                        assert truncated_t(p, k, i, j, x, r) == want, (k, i, j, x, r)


# SHA-256 of the sorted-key JSON of truncated_t(...).to_json(),
# recorded from the per-chain product sum before the suffix-first sum
T_DIGESTS = {
    ("subreg:8", 0, 1, 2, 2, 7): "194fe05a0989167b4d0f1fe84c06faf7870e0d9e9d6fc91cbed0cb0054df5094",
    ("1,3,3,1", 1, 2, 3, 3, 5): "e3d94312e4c352db5ce94ba5e8b05b648f19ce23fff7faba9af807c53d4f60c3",
    ("2,2,2,2", 0, 1, 2, 1, 5): "ec4ec50158f0765a02f7b685c36e175915a9c36bb8bce88a34b94ce3b151b21a",
}


@pytest.mark.parametrize("case", sorted(T_DIGESTS), ids=lambda c: "%s|k%d|i%d|j%d|x%d|r%d" % c)
def test_truncated_t_golden_digests(case):
    spec, k, i, j, x, r = case
    value = truncated_t(Pyramid.parse(spec), k, i, j, x, r)
    text = json.dumps(value.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == T_DIGESTS[case]
