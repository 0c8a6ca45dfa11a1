"""Whittaker vectors for the vector representation over the subregular pyramid.

Every vector is built from one formula in the truncated T-elements,

    vtilde_{N-j} = 1 ⊗ v_{N-j} + sum_{i=0}^{s-1} (-1)^{s-i} * [k=i+1]T^(s-i)_[a2;1] ⊗ v_{N-i},

with (a, s) = (2, j) when N-j >= 2 and (a, s) = (1, j-1) for vtilde_1.
The printed sources disagree by one on the [12;1] superscript; the other
reading, N-i-1 instead of N-i-2, fails invariance (a test pins this).
The vectors need no reduction: every T-element, truncated ones included,
is a sum of products of Etilde_{i_k j_k} with col(i_k) <= col(j_k), so
it lies in U(p), and u ⊗ v with u in U(p) is already the reduced
representative (modules).

build_basis returns the raw vectors ungated.  canonicalize gates each
canonical vector, raising with N, the leading slot and the offending
m-generator; that one gate decides the raw vector too, since a raw vector
is its canonical form plus right translates of higher canonical vectors,
and right translates of invariant vectors are invariant.

The gate runs ad_action over the N-1 Lie generators of m
(Pyramid.m_generators), not over all of m, and this is exact.
modules.ad_action computes ad xi as D_xi on the U-factor plus xi on the
slots, D_xi(u) = [xi, u]/hbar, then reduces.  By Jacobi
[D_x, D_y] = D_[x,y], and the slot action is a Lie action, so
[ad x, ad y] = ad [x,y].  On the quotient ad xi is the left action less
the character, (L_xi - psi(xi))/hbar, and the identity agrees with it
there because psi, a character of m, vanishes on [m, m].  A vector
killed by ad x and ad y is therefore killed by ad [x,y], hence by the
Lie algebra the generators span, which is m.  modules.is_whittaker over
its default element set, all of m, stays the oracle.

Canonicalization removes, from the highest slot down, the l-constant
part of every coefficient (l = span(E_21, E_11)) by subtracting right
translates of the already-canonical higher vectors.  The result is the
unique invariant vector of the form 1 ⊗ v_i + sum_{j>i} x_i^j ⊗ v_j with
every x_i^j in b·U.  is_canonical_vector states that form once, through
the left b-quotient pi: pi(vec) = 1 ⊗ v_i, and every term with a U-letter
sits at a slot above i; it is the rank-1 form of compute_J's pair
equality.  A basis carries no flag: canonicalize checks its output and
compute_J its input, and by uniqueness a failure is a hard error rather
than data.  eliminate_l_constant is that triangular elimination for any
rank; tensorj.compute_J runs it on pairs.
"""

from __future__ import annotations

from .algebra import AlgebraElement
from .bk import truncated_t
from .modules import ModuleElement, is_whittaker, reduce_mod_b_left, right_act
from .pyramid import Pyramid


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


def l_constant_part(x, p: Pyramid):
    """Terms of an algebra or module element whose monomials use only
    E_21 and E_11 (including the unit)."""
    return x.keep(in_l(p))


def asymptotic_parts(x: AlgebraElement, p: Pyramid):
    """(linear, l_linear): the hbar-constant PBW-degree-one part, and the
    hbar-constant part of shape (single b-generator)·(positive l-monomial)."""
    l_mono = in_l(p)
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
            and l_mono(m[1:])
        ):
            l_linear[(m, 0)] = c
    return AlgebraElement(x.order, linear), AlgebraElement(x.order, l_linear)


# ----------------------------------------------------------------------
# vector construction
# ----------------------------------------------------------------------
def _tilde_v(N: int, j: int) -> ModuleElement:
    p = Pyramid.subregular(N)
    a, s = (2, j) if N - j >= 2 else (1, j - 1)
    vec = ModuleElement.basis_vector(p, N - j)
    for i in range(s):
        t = truncated_t(p, i + 1, a, 2, 1, s - i)
        sign = -1 if (s - i) % 2 else 1
        vec = vec + ModuleElement.embed(t, p, (N - i,)).scale(sign)
    return vec


class WhittakerBasis:
    """The N generating invariant vectors, indexed by leading slot."""

    def __init__(self, pyramid: Pyramid, vectors: dict):
        self.pyramid = pyramid
        self.vectors = vectors  # leading slot -> ModuleElement

    @property
    def N(self) -> int:
        return self.pyramid.N

    def vector(self, i: int) -> ModuleElement:
        return self.vectors[i]


def build_basis(N: int) -> WhittakerBasis:
    """The raw vectors, ungated: canonicalize gates their canonical forms."""
    vectors = {N - j: _tilde_v(N, j) for j in range(N)}
    return WhittakerBasis(pyramid=Pyramid.subregular(N), vectors=vectors)


_ELIMINATION_PASS_BOUND = 64


def eliminate_l_constant(vec: ModuleElement, target: tuple, generators: dict):
    """Clear the l-constant part of vec at every slot tuple but target:
    each pass subtracts right_act(generators[slots], c) for each part c.
    Returns (vec, the (slots, c) subtracted, in order).  Raises
    WhittakerError on a part whose slots have no generator, or on parts
    left after _ELIMINATION_PASS_BOUND passes."""
    subtracted = []
    for _ in range(_ELIMINATION_PASS_BOUND):
        by_slots = l_constant_part(vec, vec.pyramid).by_slots()
        parts = [(slots, c) for slots, c in by_slots.items() if slots != target]
        if not parts:
            return vec, subtracted
        for slots, c in parts:
            gen = generators.get(slots)
            if gen is None:
                raise WhittakerError("no generator clears the l-constant part at %r" % (slots,))
            vec = vec - right_act(gen, c)
            subtracted.append((slots, c))
    raise WhittakerError("l-constant elimination did not stabilize at %r" % (target,))


def is_canonical_vector(vec: ModuleElement, leading: int) -> bool:
    """1 ⊗ v_leading modulo b, with every term that carries a U-letter at a
    slot above leading: the rank-1 form of compute_J's pair equality."""
    if reduce_mod_b_left(vec) != ModuleElement.basis_vector(vec.pyramid, leading):
        return False
    return all(slots[0] > leading for mono, slots, _ in vec.terms if mono)


def canonicalize(basis: WhittakerBasis) -> WhittakerBasis:
    """Remove all l-constant coefficient parts, top slot first, and gate
    each canonical vector on the Lie generators of m."""
    p = basis.pyramid
    out: dict = {}
    for leading in range(p.N, 0, -1):
        vec, _ = eliminate_l_constant(
            basis.vectors[leading], (leading,), {(q,): v for q, v in out.items()}
        )
        if not is_canonical_vector(vec, leading):
            raise WhittakerError(
                "vector with leading slot %d is not in canonical form after "
                "l-constant removal" % leading
            )
        ok, xi, res = is_whittaker(vec, p.m_generators())
        if not ok:
            raise WhittakerError(
                "canonical v_%d over N=%d is not invariant: ad E%r left %r"
                % (leading, p.N, xi, res)
            )
        out[leading] = vec
    return WhittakerBasis(pyramid=p, vectors=out)


def canonical_basis(N: int) -> WhittakerBasis:
    return canonicalize(build_basis(N))
