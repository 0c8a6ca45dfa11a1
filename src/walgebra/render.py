"""Human-readable rendering of algebra and module elements.

Output uses the working notation: matrix units as E[i,j], the
deformation parameter as ℏ, tensor slots as v1..vN.
"""

from __future__ import annotations

from .algebra import AlgebraElement, gen_ij
from .hbar import HbarPoly


def render_poly(p: HbarPoly) -> str:
    s = str(p)
    if " + " in s or " - " in s:
        return "(%s)" % s
    return s


def render_mono(N: int, mono) -> str:
    if not mono:
        return "1"
    parts = []
    for g, e in mono:
        i, j = gen_ij(N, g)
        parts.append("E[%d,%d]" % (i, j) + ("^%d" % e if e > 1 else ""))
    return "·".join(parts)


def render_algebra(el: AlgebraElement) -> str:
    if el.is_zero():
        return "0"
    parts = []
    for (m,), c in el.sorted_terms():
        cs = render_poly(c)
        ms = render_mono(el.N, m)
        if ms == "1":
            parts.append(cs)
        elif cs == "1":
            parts.append(ms)
        elif cs == "-1":
            parts.append("-" + ms)
        else:
            parts.append("%s·%s" % (cs, ms))
    return " + ".join(parts).replace("+ -", "- ")


def render_module(el) -> str:
    if el.is_zero():
        return "0"
    parts = []
    for (m, slots), c in el.sorted_terms():
        cs = render_poly(c)
        ms = render_mono(el.N, m)
        head = ms if cs == "1" else ("-" + ms if cs == "-1" else "%s·%s" % (cs, ms))
        tail = "⊗".join("v%d" % k for k in slots)
        parts.append(head + ("⊗" + tail if tail else ""))
    return " + ".join(parts).replace("+ -", "- ")
