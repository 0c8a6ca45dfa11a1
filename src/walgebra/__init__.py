"""Exact symbolic calculus in the asymptotic enveloping algebra of gl_N.

The package keeps every computation over the rationals, with
coefficients in Q[hbar].  Algebra elements key each term by
(monomial, hbar-degree) and module elements by (monomial, slots,
hbar-degree); both hold a bare rational per term, an int where integral
and a Fraction otherwise, and scalars are rationals, so the engine
builds no polynomial objects.  HbarPoly, the polynomial in hbar, is only
the rendering form of a coefficient and the form JSON is read through;
JSON is written from the bare rationals.  All products are
rewritten into PBW normal form with respect to an explicit total order
on the matrix-unit generators.  On top of that core it builds pyramid combinatorics, the
degree-filtered invariants T^(r) of Brundan-Kleshchev type, Whittaker
vectors for the vector representation, the wonderbolic 2-form and its
inverse, and the tensor-structure matrix J together with its first
order in hbar.
"""

__version__ = "0.1.0"

from .hbar import HbarPoly
from .algebra import AlgebraElement, GeneratorOrder
from .pyramid import Pyramid, CharacterPsi

__all__ = [
    "HbarPoly",
    "AlgebraElement",
    "GeneratorOrder",
    "Pyramid",
    "CharacterPsi",
    "__version__",
]
