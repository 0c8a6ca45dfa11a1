import ast
import os
from fractions import Fraction

import walgebra
from walgebra.algebra import AlgebraElement, GeneratorOrder
from walgebra.hbar import ZERO, HbarPoly

from hbar_terms import from_terms


def test_canonical_trailing_zeros():
    assert HbarPoly((1, 0, 0)).coeffs == (Fraction(1),)
    assert HbarPoly((0, 0)).coeffs == ()
    assert HbarPoly() == ZERO


def test_arithmetic_exact():
    p = HbarPoly((Fraction(1, 3), 2))
    q = HbarPoly((Fraction(2, 3), -2, 5))
    assert (p + q).coeffs == (Fraction(1), Fraction(0), Fraction(5))
    assert not p + p.scale(-1)
    assert not p * ZERO
    r = p * q
    # (1/3 + 2h)(2/3 - 2h + 5h^2) = 2/9 + (4/3 - 2/3)h + (5/3 - 4)h^2 + 10h^3
    assert r.coeffs == (Fraction(2, 9), Fraction(2, 3), Fraction(-7, 3), Fraction(10))


def test_json_round_trip():
    # a coefficient leaves as one "p/q" string per hbar-degree and is read
    # back through _exact, its zeros skipped
    order = GeneratorOrder.lex(2)
    el = from_terms(order, {(): HbarPoly((Fraction(-3, 7), 0, Fraction(22)))})
    assert el.terms == {((), 0): Fraction(-3, 7), ((), 2): 22}
    assert el.to_json()["terms"] == [{"mono": [], "coeff": ["-3/7", "0/1", "22/1"]}]
    back = AlgebraElement.from_json(el.to_json(), order)
    assert back == el
    assert type(back.terms[((), 2)]) is int
    assert el._grouped() == [(((),), {0: Fraction(-3, 7), 2: 22})]


def test_integral_sum_is_stored_as_int():
    s = HbarPoly((Fraction(1, 2),)) + HbarPoly((Fraction(1, 2),))
    assert s.coeffs == (1,)
    assert type(s.coeffs[0]) is int
    el = from_terms(GeneratorOrder.lex(2), {(): s})
    assert el.to_json()["terms"][0]["coeff"] == ["1/1"]


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


def _imported_modules(tree):
    """Dotted names of the modules an AST imports (the package is flat)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = ".".join(filter(None, ("walgebra" if node.level else None, node.module)))
            yield mod
            yield from (mod + "." + a.name for a in node.names)


def test_hbar_is_imported_only_at_the_edge():
    # coefficients cross every edge as bare rationals: no module of the
    # package imports hbar, which only the benchmark's tracer and the
    # tests use
    pkg = os.path.dirname(walgebra.__file__)
    importers = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            if "walgebra.hbar" in set(_imported_modules(tree)):
                importers.add(name)
    assert importers == set()
    assert not hasattr(walgebra, "HbarPoly")
