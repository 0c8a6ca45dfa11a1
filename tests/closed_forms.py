"""Printed closed forms of the T-elements and their filtration degree,
kept as test oracles: the linear and l-linear parts of T^(r)_[ij;x], and
the Kazhdan degree, shared by the BK, Whittaker and acceptance tests."""

from walgebra.algebra import AlgebraElement, gen_code, gen_ij
from walgebra.pyramid import Pyramid


def kazhdan_degree(x: AlgebraElement, pyramid: Pyramid) -> float:
    """Filtration degree: deg E_ij = col(j)-col(i)+1 and deg hbar = 1.

    Returns -inf for the zero element.
    """
    if not x.terms:
        return float("-inf")
    best = None
    for m, d in x.terms:
        for g, e in m:
            i, j = gen_ij(x.N, g)
            d += e * (pyramid.col(j) - pyramid.col(i) + 1)
        if best is None or d > best:
            best = d
    return best


def linear_part_closed_form(p: Pyramid, i: int, j: int, x: int, r: int) -> AlgebraElement:
    """The hbar-constant linear part of T^(r)_[ij;x]:
    sigma(j) (-1)^(r-1) * sum E_{i1,j1} over single-step chains of cost r."""
    order = p.default_order()
    sigma_j = -1 if j <= x else 1
    sign = sigma_j * (1 if (r - 1) % 2 == 0 else -1)
    acc = AlgebraElement.zero(order)
    for i1 in range(1, p.N + 1):
        if p.row(i1) != i:
            continue
        for j1 in range(1, p.N + 1):
            if p.row(j1) == j and p.col(j1) - p.col(i1) + 1 == r:
                acc = acc + AlgebraElement.generator(order, i1, j1)
    return acc.scale(sign)


def _l_monomial(N: int, r: int, e21: int, e11: int):
    """PBW monomial E_{1,r} E_21^e21 E_11^e11 under the canonical order."""
    mono = [(gen_code(N, 1, r), 1)]
    if e21:
        mono.append((gen_code(N, 2, 1), e21))
    if e11:
        mono.append((gen_code(N, 1, 1), e11))
    return tuple(mono)


def t22_l_linear_closed_form(p: Pyramid, rho: int, mode: str) -> AlgebraElement:
    """Candidate closed forms for the l-linear part of T^(rho)_[22;1]:
    sum over r of +-E_{1,r} E_21 E_11^(rho-r), with sign (-1)^r in
    'alternating' mode and a constant (-1)^(rho-1) in 'constant' mode."""
    if mode not in ("alternating", "constant"):
        raise ValueError("unknown mode %r" % mode)
    terms = {}
    for r in range(2, rho + 1):
        sign = (-1) ** r if mode == "alternating" else (-1) ** (rho - 1)
        terms[(_l_monomial(p.N, r, 1, rho - r), 0)] = sign
    return AlgebraElement(p.default_order(), terms)


def t12_l_linear_closed_form(p: Pyramid, rho: int, mode: str) -> AlgebraElement:
    """Candidate closed forms for the l-linear part of T^(rho)_[12;1].

    'displayed'           sum_{r=2}^{rho-1} (-1)^r     E_{1,r} E_11^(rho-r)
    'shifted-alternating' sum_{r=2}^{rho}   (-1)^r     E_{1,r} E_11^(rho-r+1)
    'shifted-constant'    sum_{r=2}^{rho} (-1)^(rho-1) E_{1,r} E_11^(rho-r+1)
    """
    terms = {}
    if mode == "displayed":
        for r in range(2, rho):
            terms[(_l_monomial(p.N, r, 0, rho - r), 0)] = (-1) ** r
    elif mode in ("shifted-alternating", "shifted-constant"):
        for r in range(2, rho + 1):
            sign = (-1) ** r if mode == "shifted-alternating" else (-1) ** (rho - 1)
            terms[(_l_monomial(p.N, r, 0, rho - r + 1), 0)] = sign
    else:
        raise ValueError("unknown mode %r" % mode)
    return AlgebraElement(p.default_order(), terms)
