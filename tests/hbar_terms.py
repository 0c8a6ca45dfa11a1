"""Algebra elements built from polynomial coefficients, the form the
randomized tests draw: {monomial: HbarPoly} becomes the term map
{(monomial, d): c} of the nonzero coefficients."""

from walgebra.algebra import AlgebraElement


def from_terms(order, raw: dict) -> AlgebraElement:
    """The element sum of poly * monomial over raw = {monomial: HbarPoly}."""
    terms = {(m, d): c for m, poly in raw.items() for d, c in enumerate(poly.coeffs) if c}
    return AlgebraElement(order, terms)
