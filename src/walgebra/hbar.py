"""Exact polynomials in the deformation parameter hbar.

Coefficients are arbitrary-precision rationals: a polynomial is stored as
a tuple indexed by hbar-power with trailing zeros stripped, each
coefficient an int where it is integral and a Fraction otherwise, so
equality of values is equality of representations.  There is no floating
point anywhere in this package.

HbarPoly is neither the engine's arithmetic nor an edge form of a
coefficient: element terms hold one bare rational per hbar-degree
(algebra.TermMap), to_json writes those as "p/q" strings, the from_json
readers read them back through _exact, and render.py writes them as text
straight from the term map.  Apart from the package re-export, only
algebra imports from here, and only _exact.  HbarPoly stays for that
re-export and for the benchmark's tracer (perfbench/tracer.py), which binds its constructor and its ring
operations +, *, scale and shift by name; it can go once the tracer
counts the bare term coefficients instead.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(c):
    """The canonical exact form of a rational: an int stays as it is;
    anything else becomes a Fraction, reduced to its numerator when that
    is integral."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class HbarPoly:
    """A polynomial sum_d c_d * hbar^d with rational c_d, canonically stored
    (see _exact)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, HbarPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "HbarPoly") -> "HbarPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return HbarPoly(out)

    def __mul__(self, other: "HbarPoly") -> "HbarPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return HbarPoly(out)

    def scale(self, q) -> "HbarPoly":
        q = _exact(q)
        if not q:
            return ZERO
        return HbarPoly(tuple(c * q for c in self.coeffs))

    def shift(self, power: int) -> "HbarPoly":
        """Multiply by hbar^power."""
        if not self.coeffs:
            return ZERO
        return HbarPoly((0,) * power + self.coeffs)

    def __repr__(self):
        return "HbarPoly(%r)" % (self.coeffs,)


ZERO = HbarPoly()
