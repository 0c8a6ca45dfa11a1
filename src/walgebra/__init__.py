"""Exact symbolic calculus in the asymptotic enveloping algebra of gl_N.

The package keeps every computation over the rationals: coefficients are
polynomials in the deformation parameter hbar whose coefficients are ints
where integral and Fractions otherwise, and all products are rewritten
into PBW normal form with respect to an explicit total order on the
matrix-unit generators.  Module elements key each term by
(monomial, slots, hbar-degree) and hold a bare rational, so their hot
loops build no polynomial objects.  On top of that core it builds
pyramid combinatorics, the degree-filtered invariants T^(r) of
Brundan-Kleshchev type, Whittaker vectors for the vector representation,
the wonderbolic 2-form and its inverse, and the tensor-structure matrix J
together with its first order in hbar.
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
