"""Exact polynomials in the deformation parameter hbar.

Coefficients are arbitrary-precision rationals: a polynomial is stored as
a tuple indexed by hbar-power with trailing zeros stripped, each
coefficient an int where it is integral and a Fraction otherwise, so
equality of values is equality of representations.  There is no floating
point anywhere in this package.

HbarPoly is the edge form of a coefficient, not the engine's arithmetic:
element terms hold one bare rational per hbar-degree (algebra.TermMap).
A polynomial enters a term map only through AlgebraElement.from_terms
and the two from_json readers, and leaves one only through
TermMap.sorted_terms, for JSON and rendering.  The ring operations +, *,
scale and shift have no caller in the package; the benchmark's tracer
(perfbench/tracer.py) binds each of them by name, so they stay until it
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
        # the inline int test saves a call per coefficient on the hot path
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
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

    def to_json(self) -> list:
        return ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]

    def __repr__(self):
        return "HbarPoly(%r)" % (self.coeffs,)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                h = "ℏ" if d == 1 else "ℏ^%d" % d
                if c == 1:
                    parts.append(h)
                elif c == -1:
                    parts.append("-" + h)
                else:
                    parts.append("%s·%s" % (c, h))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


ZERO = HbarPoly()
