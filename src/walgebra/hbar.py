"""Exact polynomials in the deformation parameter hbar.

Coefficients are arbitrary-precision rationals: a polynomial is stored as
a tuple indexed by hbar-power with trailing zeros stripped, each
coefficient an int where it is integral and a Fraction otherwise, so
equality of values is equality of representations.  There is no floating
point anywhere in this package.

HbarPoly is the input and output form of a coefficient, not the engine's
arithmetic: element terms hold one bare rational per hbar-degree
(algebra.TermMap), and a polynomial is spread into them on the way in
and gathered from them on the way out (JSON and rendering).
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

    @classmethod
    def const(cls, c) -> "HbarPoly":
        return cls((c,))

    @classmethod
    def hbar(cls, power: int = 1, c=1) -> "HbarPoly":
        """c * hbar^power."""
        return cls((0,) * power + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Top hbar-degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

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

    def __neg__(self) -> "HbarPoly":
        return HbarPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "HbarPoly") -> "HbarPoly":
        return self + (-other)

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

    def divide_hbar(self) -> "HbarPoly":
        """Exact division by hbar; raises if the constant term is nonzero."""
        if self.coeffs and self.coeffs[0] != 0:
            raise ValueError("not divisible by hbar: constant term %s" % self.coeffs[0])
        return HbarPoly(self.coeffs[1:])

    def coefficient(self, power: int) -> int | Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def constant_term(self) -> int | Fraction:
        return self.coefficient(0)

    def at_hbar_zero(self) -> "HbarPoly":
        return HbarPoly((self.constant_term(),))

    def hbar_part(self, power: int) -> "HbarPoly":
        """The single component c_power * hbar^power."""
        return HbarPoly((0,) * power + (self.coefficient(power),))

    def divisible_by_hbar(self) -> bool:
        return not self.coeffs or self.coeffs[0] == 0

    def evaluate(self, value) -> int | Fraction:
        value = _exact(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def to_json(self) -> list:
        return ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "HbarPoly":
        return cls(data)

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
ONE = HbarPoly.const(1)
HBAR = HbarPoly.hbar()
