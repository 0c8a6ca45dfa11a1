"""Whittaker vectors for the vector representation over the subregular pyramid.

For target index N-j >= 2 the vector is

    vtilde_{N-j} = 1 ⊗ v_{N-j} + sum_{i=0}^{j-1} (-1)^{j-i} * [k=i+1]T^(j-i)_[22;1] ⊗ v_{N-i},

with truncated T-elements as coefficients.  For target index 1 the same
shape uses the [12;1] family; the printed sources disagree by one on its
superscript, so both candidates are tried and the invariance check picks
the one that works (the choice is recorded on the basis object).  Every
built vector is gated through the invariance check; a failure raises
with the offending m-generator, since this is the verification point of
the whole construction.

The gate runs ad_action over the N-1 Lie generators of m
(Pyramid.m_generators), not over all of m, and this is exact: ad xi is
(L_xi - psi(xi))/hbar on the quotient, [L_x, L_y] = hbar L_[x,y] in U_hbar,
and psi, a character of m, vanishes on [m, m], so [ad x, ad y] = ad [x,y]
(the module is free over Q[hbar], so the division loses nothing).  A
vector killed by ad x and ad y is therefore killed by ad [x,y], hence by
the Lie algebra the generators span, which is m.  modules.is_whittaker
stays the check over all of m, used as the oracle.

Canonicalization removes, from the highest slot down, the l-constant
part of every coefficient (l = span(E_21, E_11)) by subtracting right
translates of the already-canonical higher vectors.  The result is the
unique invariant vector of the form 1 ⊗ v_i + sum_{j>i} x_i^j ⊗ v_j with
every x_i^j in b·U; uniqueness makes a failed b-membership check a hard
error rather than data.
"""

from __future__ import annotations

from .algebra import AlgebraElement, GeneratorOrder, gen_code, gen_ij
from .bk import truncated_t
from .modules import (
    ModuleElement,
    ad_action,
    b_reduction_is_zero,
    reduce_mod_m_psi,
    right_act,
)
from .pyramid import Pyramid

V1_EXPONENT_CANDIDATES = ("N-i-2", "N-i-1")


class WhittakerError(Exception):
    """A vector that must be invariant is not, or canonical form failed."""


# ----------------------------------------------------------------------
# filtered parts relative to l = span(E_21, E_11)
# ----------------------------------------------------------------------
def in_l(p: Pyramid):
    """The predicate on PBW monomials: uses only E_21 and E_11 (the unit
    included), i.e. lies in U(l)."""
    l_codes = set(p.l_codes())
    return lambda m: all(g in l_codes for g, _ in m)


def l_constant_part(x: AlgebraElement, p: Pyramid) -> AlgebraElement:
    """Terms whose monomials use only E_21 and E_11 (including the unit)."""
    return x.keep(in_l(p))


def asymptotic_parts(x: AlgebraElement, p: Pyramid):
    """(linear, l_linear): the hbar-constant PBW-degree-one part, and the
    hbar-constant part of shape (single b-generator)·(positive l-monomial)."""
    l_codes = set(p.l_codes())
    b_codes = p.b_codes()
    linear: dict = {}
    l_linear: dict = {}
    for (m, d), c in x.terms.items():
        if d:
            continue
        total = sum(e for _, e in m)
        if total == 1:
            linear[(m, 0)] = c
            continue
        if (
            len(m) >= 2
            and m[0][0] in b_codes
            and m[0][1] == 1
            and all(g in l_codes for g, _ in m[1:])
        ):
            l_linear[(m, 0)] = c
    return AlgebraElement(x.order, linear), AlgebraElement(x.order, l_linear)


def linear_part_closed_form(p: Pyramid, i: int, j: int, x: int, r: int) -> AlgebraElement:
    """Independent oracle for the hbar-constant linear part of T^(r)_[ij;x]:
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


def _l_monomial(order: GeneratorOrder, N: int, r: int, e21: int, e11: int):
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
    order = p.default_order()
    terms = {}
    for r in range(2, rho + 1):
        sign = (-1) ** r if mode == "alternating" else (-1) ** (rho - 1)
        terms[(_l_monomial(order, p.N, r, 1, rho - r), 0)] = sign
    return AlgebraElement(order, terms)


def t12_l_linear_closed_form(p: Pyramid, rho: int, mode: str) -> AlgebraElement:
    """Candidate closed forms for the l-linear part of T^(rho)_[12;1].

    'displayed'           sum_{r=2}^{rho-1} (-1)^r     E_{1,r} E_11^(rho-r)
    'shifted-alternating' sum_{r=2}^{rho}   (-1)^r     E_{1,r} E_11^(rho-r+1)
    'shifted-constant'    sum_{r=2}^{rho} (-1)^(rho-1) E_{1,r} E_11^(rho-r+1)
    """
    order = p.default_order()
    terms = {}
    if mode == "displayed":
        for r in range(2, rho):
            terms[(_l_monomial(order, p.N, r, 0, rho - r), 0)] = (-1) ** r
    elif mode in ("shifted-alternating", "shifted-constant"):
        for r in range(2, rho + 1):
            sign = (-1) ** r if mode == "shifted-alternating" else (-1) ** (rho - 1)
            terms[(_l_monomial(order, p.N, r, 0, rho - r + 1), 0)] = sign
    else:
        raise ValueError("unknown mode %r" % mode)
    return AlgebraElement(order, terms)


# ----------------------------------------------------------------------
# vector construction
# ----------------------------------------------------------------------
def _invariant_on_generators(vec: ModuleElement):
    """The gate: is_whittaker's (ok, offending (i,j), residue) triple over
    the Lie generators of m, which decides invariance under all of m."""
    for xi in vec.pyramid.m_generators():
        res = ad_action(xi, vec)
        if not res.is_zero():
            return False, xi, res
    return True, None, None


def _tilde_v_candidate(N: int, j: int, v1_exponent: str) -> ModuleElement:
    p = Pyramid.subregular(N)
    target = N - j
    vec = ModuleElement.basis_vector(p, target)
    if target != 1:
        for i in range(0, j):
            t = truncated_t(p, i + 1, 2, 2, 1, j - i)
            sign = -1 if (j - i) % 2 else 1
            vec = vec + ModuleElement.embed(t.value, p, (N - i,)).scale(sign)
    else:
        for i in range(0, N - 2):
            r = (N - i - 2) if v1_exponent == "N-i-2" else (N - i - 1)
            if r <= 0:
                continue
            t = truncated_t(p, i + 1, 1, 2, 1, r)
            sign = -1 if (N - i - 2) % 2 else 1
            vec = vec + ModuleElement.embed(t.value, p, (N - i,)).scale(sign)
    return reduce_mod_m_psi(vec)


def build_tilde_v(N: int, j: int, v1_exponent: str | None = None):
    """The invariant vector with leading slot N-j, gated through the
    invariance check.  Returns (vector, chosen v1 exponent convention or
    None when the [22;1] family was used)."""
    if not 0 <= j <= N - 1:
        raise ValueError("j=%d out of range 0..%d" % (j, N - 1))
    if v1_exponent not in (None,) + V1_EXPONENT_CANDIDATES:
        raise ValueError("unknown v1 exponent convention %r" % (v1_exponent,))
    if N - j != 1:
        vec = _tilde_v_candidate(N, j, "N-i-2")
        ok, xi, res = _invariant_on_generators(vec)
        if not ok:
            raise WhittakerError(
                "vtilde_%d over N=%d is not invariant: ad E%r left %r" % (N - j, N, xi, res)
            )
        return vec, None
    candidates = (v1_exponent,) if v1_exponent else V1_EXPONENT_CANDIDATES
    failures = []
    for cand in candidates:
        vec = _tilde_v_candidate(N, j, cand)
        ok, xi, res = _invariant_on_generators(vec)
        if ok:
            return vec, cand
        failures.append((cand, xi))
    raise WhittakerError(
        "vtilde_1 over N=%d fails invariance for every exponent convention: %r"
        % (N, failures)
    )


class WhittakerBasis:
    """The N generating invariant vectors, indexed by leading slot."""

    def __init__(self, pyramid: Pyramid, vectors: dict, canonical: bool = False,
                 conventions: dict | None = None, change_log: list | None = None):
        self.pyramid = pyramid
        self.vectors = vectors  # leading slot -> ModuleElement
        self.canonical = canonical
        self.conventions = {} if conventions is None else conventions
        self.change_log = [] if change_log is None else change_log

    @property
    def N(self) -> int:
        return self.pyramid.N

    def vector(self, i: int) -> ModuleElement:
        return self.vectors[i]


def build_basis(N: int) -> WhittakerBasis:
    p = Pyramid.subregular(N)
    vectors = {}
    conventions = {}
    for j in range(N):
        vec, conv = build_tilde_v(N, j)
        vectors[N - j] = vec
        if conv is not None:
            conventions["v1_exponent"] = conv
    return WhittakerBasis(pyramid=p, vectors=vectors, conventions=conventions)


_CANONICALIZE_PASS_BOUND = 64


def is_canonical_vector(vec: ModuleElement, leading: int, p: Pyramid) -> bool:
    """1 ⊗ v_leading plus higher slots with coefficients in b·U."""
    coeffs = vec.by_slots()
    if coeffs.get((leading,)) != AlgebraElement.one(vec.order):
        return False
    for slots, x in coeffs.items():
        q = slots[0]
        if q == leading:
            continue
        if q < leading:
            return False
        if not b_reduction_is_zero(x, p):
            return False
    return True


def canonicalize(basis: WhittakerBasis) -> WhittakerBasis:
    """Remove all l-constant coefficient parts, top slot first."""
    if basis.canonical:
        return basis
    p = basis.pyramid
    N = p.N
    l_only = in_l(p)
    out: dict = {}
    log: list = []
    for leading in range(N, 0, -1):
        vec = basis.vectors[leading]
        for _ in range(_CANONICALIZE_PASS_BOUND):
            corrections = [
                (q, c) for (q,), c in vec.keep(l_only).by_slots().items() if q > leading
            ]
            if not corrections:
                break
            for q, c in corrections:
                vec = vec - right_act(out[q], c)
                log.append((leading, q, c))
        else:
            raise WhittakerError("canonicalization did not stabilize at slot %d" % leading)
        if not is_canonical_vector(vec, leading, p):
            raise WhittakerError(
                "vector with leading slot %d is not in canonical form after "
                "l-constant removal" % leading
            )
        ok, xi, res = _invariant_on_generators(vec)
        if not ok:
            raise WhittakerError("canonicalization broke invariance at slot %r" % (xi,))
        out[leading] = vec
    return WhittakerBasis(
        pyramid=p,
        vectors=out,
        canonical=True,
        conventions=dict(basis.conventions),
        change_log=log,
    )


def canonical_basis(N: int) -> WhittakerBasis:
    return canonicalize(build_basis(N))


# ----------------------------------------------------------------------
# membership of coefficients in head·U for a generator subset
# ----------------------------------------------------------------------
def in_head_product(x: AlgebraElement, head, p: Pyramid) -> bool:
    """True when x lies in span(head)·U, tested in an adapted PBW order."""
    if x.is_zero():
        return True
    N = p.N
    head_codes = [gen_code(N, i, j) for (i, j) in sorted(head)]
    if not head_codes:
        return False
    rest = [c for c in range(N * N) if c not in set(head_codes)]
    rest.sort(key=lambda c: p.default_order().ranks[c])
    ranked = [gen_ij(N, c) for c in head_codes + rest]
    adapted = GeneratorOrder(N, ranked, label="head-first")
    y = x.change_order(adapted)
    head_set = set(head_codes)
    return all(m and m[0][0] in head_set for m in y.monomials())


def truncated_borel(p: Pyramid, blocks: int):
    """Borel-type generator set of the pyramid truncated to the given
    number of blocks: E_kl with k <= l <= blocks-1 and l >= 2."""
    return [(k, l) for k in range(1, blocks) for l in range(max(k, 2), blocks)]
