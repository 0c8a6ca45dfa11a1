"""Human-readable rendering of algebra and module elements.

Output uses the working notation: matrix units as E[i,j], the
deformation parameter as ℏ, tensor slots as v1..vN.  Coefficients are
read as the bare {hbar-degree: rational} of TermMap._grouped, in the
order to_json writes them; hbar.HbarPoly, kept only for the benchmark's
tracer and the tests, is not the rendering form.  Every text here and in
tensorj's semi-classical diffs is a signed sum, written by one rule:
term and signed_sum.
"""

from __future__ import annotations

from .algebra import gen_ij


def term(coeff: str, mono: str) -> str:
    """coeff·mono, a coefficient 1 or -1 written as a bare sign and an
    empty mono (the unit) as the coefficient alone."""
    if not mono:
        return coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return "-" + mono
    return "%s·%s" % (coeff, mono)


def signed_sum(terms) -> str:
    """The terms joined by " + ", a negative one by " - "; "0" when empty."""
    return " + ".join(terms).replace("+ -", "- ") or "0"


def _coeff(by_d: dict) -> str:
    """{d: c} as a polynomial in ℏ, in parentheses when it has two terms
    or more."""
    s = signed_sum(
        term(str(c), "" if not d else "ℏ" if d == 1 else "ℏ^%d" % d)
        for d, c in sorted(by_d.items())
    )
    return "(%s)" % s if len(by_d) > 1 else s


def render_mono(N: int, mono) -> str:
    parts = []
    for g, e in mono:
        i, j = gen_ij(N, g)
        parts.append("E[%d,%d]" % (i, j) + ("^%d" % e if e > 1 else ""))
    return "·".join(parts)


def render_algebra(el) -> str:
    return signed_sum(term(_coeff(by_d), render_mono(el.N, m)) for (m,), by_d in el._grouped())


def render_module(el) -> str:
    # the unit monomial is written as 1, so a rank-0 term reads ℏ·1
    return signed_sum(
        term(_coeff(by_d), render_mono(el.N, m) or "1")
        + "".join("⊗v%d" % k for k in slots)
        for (m, slots), by_d in el._grouped()
    )
