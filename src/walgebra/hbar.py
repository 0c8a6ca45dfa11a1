"""Exact polynomials in the deformation parameter hbar.

A polynomial is stored as a tuple indexed by hbar-power with trailing
zeros stripped, each coefficient in the canonical exact form of
algebra._exact (an int where integral, a Fraction otherwise), so
equality of values is equality of representations.

The engine builds no HbarPoly: element terms hold one bare rational per
hbar-degree (algebra.TermMap), and no module of the package imports
this one.  HbarPoly is kept only for the benchmark's tracer
(perfbench/tracer.py), which binds its constructor and its ring
operations +, *, scale and shift by name, and for the tests, which draw
random coefficients with it.  It can go once the tracer counts the bare
term coefficients instead.
"""

from __future__ import annotations

from .algebra import _exact


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
