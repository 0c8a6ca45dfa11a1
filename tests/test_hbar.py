from fractions import Fraction

import pytest

from walgebra.hbar import HBAR, ONE, ZERO, HbarPoly


def test_canonical_trailing_zeros():
    assert HbarPoly((1, 0, 0)).coeffs == (Fraction(1),)
    assert HbarPoly((0, 0)).coeffs == ()
    assert HbarPoly() == ZERO


def test_arithmetic_exact():
    p = HbarPoly((Fraction(1, 3), 2))
    q = HbarPoly((Fraction(2, 3), -2, 5))
    assert (p + q).coeffs == (Fraction(1), Fraction(0), Fraction(5))
    assert (p - p).is_zero()
    assert (p * ZERO).is_zero()
    r = p * q
    # (1/3 + 2h)(2/3 - 2h + 5h^2) = 2/9 + (4/3 - 2/3)h + (5/3 - 4)h^2 + 10h^3
    assert r.coeffs == (Fraction(2, 9), Fraction(2, 3), Fraction(-7, 3), Fraction(10))


def test_hbar_division():
    assert (HBAR * HBAR).divide_hbar() == HBAR
    with pytest.raises(ValueError):
        ONE.divide_hbar()
    assert HbarPoly((0, 3, 1)).divide_hbar().coeffs == (Fraction(3), Fraction(1))


def test_degree_and_parts():
    p = HbarPoly((1, 0, 4))
    assert p.degree() == 2
    assert p.constant_term() == 1
    assert p.coefficient(2) == 4
    assert p.coefficient(7) == 0
    assert p.at_hbar_zero() == ONE
    assert p.hbar_part(2) == HbarPoly.hbar(2, 4)
    assert p.evaluate(1) == 5
    assert p.evaluate(Fraction(1, 2)) == 2


def test_json_round_trip():
    p = HbarPoly((Fraction(-3, 7), 0, Fraction(22)))
    assert HbarPoly.from_json(p.to_json()) == p
    assert p.to_json() == ["-3/7", "0/1", "22/1"]


def test_integral_sum_is_stored_as_int():
    s = HbarPoly((Fraction(1, 2),)) + HbarPoly((Fraction(1, 2),))
    assert s.coeffs == (1,)
    assert type(s.coeffs[0]) is int
    assert s.to_json() == ["1/1"]


def test_one_representation_per_value():
    a, b = HbarPoly((Fraction(4, 2),)), HbarPoly((2,))
    assert a == b
    assert hash(a) == hash(b)
    assert a.coeffs == b.coeffs == (2,)


def test_nonintegral_scale_stays_exact():
    p = HbarPoly((3, 1)).scale(Fraction(1, 2))
    assert p.coeffs == (Fraction(3, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.scale(2).coeffs == (3, 1)
    assert all(type(c) is int for c in p.scale(2).coeffs)
