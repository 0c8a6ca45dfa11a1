"""Reduced representatives for tensor modules over the enveloping algebra.

A rank-t module element represents a class in U ⊗ (C^N)^{⊗t} modulo the
right action of the shifted nilpotent part.  Its terms map
(PBW monomial, slot tuple, hbar-degree d) to a nonzero rational c, the
term c * hbar^d * monomial ⊗ v_slots, in the term format of
algebra.TermMap.  The slot tuple lists basis indices of the t tensor
factors.  An AlgebraElement's terms {(monomial, d): c} are the same
format without the slots, so embed, by_slots and coefficient_at move
terms between the two as they are.  Coefficients cross every edge as
the bare rationals they are stored as: to_json writes them through the
one term formatter (TermMap._json_terms), rendering reads them from
TermMap._grouped, and from_json reads them through
AlgebraElement.from_json.

The generator order is the pyramid's default_order(), never passed in: one
interned pyramid per N, one pair cache, used by every product
(_mono_product), and every product here is a right product by one
generator, algebra's one-generator kernel.

The right action of xi on u ⊗ v is  u*xi ⊗ v - hbar * u ⊗ (xi.v), and in
the quotient a trailing m-factor rewrites as

    (u xi) ⊗ v  ->  psi(xi) u ⊗ v + hbar * sum_a u ⊗ (xi acting on slot a).

With the canonical generator order the m-generators rank last, so any
monomial containing one has one in final position, and peeling it
strictly decreases the m-factor count: the rewrite terminates and the
reduced form carries no m-generators at all.

The contract: reduced means no m-letter, i.e. an element of
U(p) ⊗ (C^N)^{⊗t}, where p, the generators of nonnegative degree, is a
subalgebra.  By PBW with m last, multiplication U(p) ⊗ U(m) -> U is
bijective, so every class has exactly one such representative, and two
elements of U(p) ⊗ V are equal in the quotient exactly when they are
equal.  Under the m-last order a monomial with an m-letter ends in one,
so the trailing-letter test (_require_reduced) is the whole test.
Products within p stay in U(p), so reduce_mod_m_psi runs only where an
m-letter can appear: in ad_action, its one caller.

Left multiplication commutes with the right action, so ad of an
m-generator, the left action less the character (L_xi - psi(xi))/hbar,
is defined on the quotient.  By the rewrite above, on a reduced
element it is

    ad xi (u ⊗ v) = D(u) ⊗ v + u ⊗ (xi.v),   D(u) = (xi·u - u·xi)/hbar,

and ad_action never forms xi·u.  D is a derivation, built by recursion
on the last letter: D(()) = 0 and D(rest·h) = D(rest)·h + rest·[xi, h],
where [xi, h] is the Lie bracket of two generators (no hbar), so every
product is a right product by one generator.  D is memoized per call,
and the memo dies with the call.  Each term of D(u) carries at most one
m-letter, in final position: D(u) is a sum of words, each u with one
letter h replaced by a generator of [xi, h] (in p or in m), and normal
ordering a word either swaps two letters or trades two letters for one
generator of their bracket, so no term gains a second m-letter, and the
m-last order puts the one there is last.  One reduce_mod_m_psi pass
peels it.

The left quotient by the Borel-type subalgebra b (subregular pyramids
only) is monomial deletion: since b-generators rank first, a PBW
monomial lies in b·U exactly when its leftmost factor is in b.

Fusion concatenates two reduced elements: every U-factor of the right
element is transported through the left element's slots generator by
generator (in the right factor's own PBW order, left to right), and the
slot tuples are concatenated.  The result stays reduced: the right
operand is reduced, so each transported generator g lies in p; u·g for
u in U(p) normal-orders inside U(p), since [p, p] ⊂ p; and the slot term
u ⊗ (g.v) leaves u as it is.  Within one
fusion the right words are visited in sorted order, depth first: the
left element right-acted by each prefix of the current word is kept on
a path, and a word starts from the prefix it shares with the word
before.  Sorted words sharing a prefix are adjacent, so no prefix is
transported twice, and only one path is held at a time.  Each step is
right_mul_gen, a right product by one generator, which the pair cache
builds by algebra's one-generator recursion.
"""

from __future__ import annotations

from .algebra import (
    AlgebraElement,
    AlgebraError,
    TermMap,
    _gen_bracket,
    _json_term_list,
    _mono_product,
    _mono_to_word,
    add_term,
    gen_code,
    gen_ij,
)
from .pyramid import Pyramid

REDUCTION_STEP_BUDGET = 10_000_000


class ReductionError(Exception):
    """Non-termination guard tripped or structural misuse."""


class ModuleElement(TermMap):
    """An element of U ⊗ (C^N)^{⊗t} / m^psi in reduced form, with terms
    {(monomial, slots, hbar-degree): nonzero rational}."""

    __slots__ = ("pyramid", "t")

    def __init__(self, pyramid: Pyramid, t: int, terms: dict):
        self.pyramid = pyramid
        self.t = t
        TermMap.__init__(self, terms)

    @property
    def order(self):
        return self.pyramid.default_order()

    # ------------------------------------------------------------------
    @classmethod
    def basis_vector(cls, pyramid: Pyramid, k: int) -> "ModuleElement":
        if not 1 <= k <= pyramid.N:
            raise AlgebraError("slot index %d out of range" % k)
        return cls(pyramid, 1, {((), (k,), 0): 1})

    @classmethod
    def embed(cls, el: AlgebraElement, pyramid: Pyramid, slots=()) -> "ModuleElement":
        """u -> u ⊗ v_slots; u must use the pyramid's order.  The result
        is reduced exactly when u ∈ U(p), i.e. no monomial has an
        m-generator; otherwise reduce_mod_m_psi gives its class."""
        if el.order != pyramid.default_order():
            raise AlgebraError("%r is not the order of %r" % (el.order, pyramid))
        slots = tuple(slots)
        return cls(pyramid, len(slots), {(m, slots, d): c for (m, d), c in el.terms.items()})

    @classmethod
    def zero(cls, pyramid: Pyramid, t: int) -> "ModuleElement":
        return cls(pyramid, t, {})

    # ------------------------------------------------------------------
    @property
    def N(self) -> int:
        return self.pyramid.N

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return (
            self.pyramid == other.pyramid
            and self.t == other.t
            and self.terms == other.terms
        )

    def _check_compatible(self, other: "ModuleElement"):
        if self.pyramid != other.pyramid or self.t != other.t:
            raise AlgebraError("module elements live over different ambient data")

    def _with(self, terms: dict) -> "ModuleElement":
        return ModuleElement(self.pyramid, self.t, terms)

    def coefficient_at(self, slots) -> AlgebraElement:
        """The U-factor multiplying the given slot tuple (a full scan; use
        by_slots to visit every slot tuple)."""
        slots = tuple(slots)
        terms = {(m, d): c for (m, s, d), c in self.terms.items() if s == slots}
        return AlgebraElement(self.order, terms)

    def by_slots(self) -> dict:
        """{slot tuple: U-factor} over the slot support, keys sorted,
        built in one pass over the terms."""
        groups: dict = {}
        for (m, s, d), c in self.terms.items():
            groups.setdefault(s, {})[(m, d)] = c
        return {s: AlgebraElement(self.order, groups[s]) for s in sorted(groups)}

    # ------------------------------------------------------------------
    # serialization: {"N":…, "t":…, "terms":[{"mono":…, "slots":…, "coeff":…}]}
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"N": self.N, "t": self.t, "terms": self._json_terms()}

    @classmethod
    def from_json(cls, data: dict, pyramid: Pyramid) -> "ModuleElement":
        """Read what to_json writes; raise AlgebraError where
        AlgebraElement.from_json does, on a rank t that is not an int >= 0
        and on slots of another length or outside 1..N."""
        json_terms = _json_term_list(data, ("mono", "slots", "coeff"))
        if type(data.get("t")) is not int or data["t"] < 0:
            raise AlgebraError("JSON rank t=%r is not an int >= 0" % (data.get("t"),))
        if data["N"] != pyramid.N:
            raise AlgebraError("JSON element has N=%d, pyramid has N=%d" % (data["N"], pyramid.N))
        by_slots: dict = {}
        for t in json_terms:
            if len(t["slots"]) != data["t"]:
                raise AlgebraError("JSON term has slots %r, rank is %d" % (t["slots"], data["t"]))
            if any(type(k) is not int or not 1 <= k <= pyramid.N for k in t["slots"]):
                raise AlgebraError("JSON term has slots %r outside 1..%d" % (t["slots"], pyramid.N))
            by_slots.setdefault(tuple(t["slots"]), []).append(t)
        terms = {}
        for s, ts in by_slots.items():
            u = AlgebraElement.from_json({"N": pyramid.N, "terms": ts}, pyramid.default_order())
            terms.update(((m, s, d), c) for (m, d), c in u.terms.items())
        return cls(pyramid, data["t"], terms)

    def __repr__(self):
        from .render import render_module

        return "<%s>" % render_module(self)


# ----------------------------------------------------------------------
# reduction modulo the shifted m-action
# ----------------------------------------------------------------------
def reduce_mod_m_psi(raw: ModuleElement) -> ModuleElement:
    """Rewrite to the reduced form with no m-generators in any monomial.

    The most recently produced pending term is peeled next; the rewrite
    is linear and confluent, so the order does not change the result.
    """
    p = raw.pyramid
    psi = p.psi()
    m_codes = p.m_codes()
    N = p.N
    pending = dict(raw.terms)
    done: dict = {}
    steps = 0
    while pending:
        steps += 1
        if steps > REDUCTION_STEP_BUDGET:
            raise ReductionError("reduction step budget exceeded; rewrite engine broken?")
        key, c = pending.popitem()
        mono, slots, d = key
        if not mono or mono[-1][0] not in m_codes:
            if any(g in m_codes for g, _ in mono):
                raise ReductionError(
                    "monomial has an interior m-factor; order is not m-last"
                )
            add_term(done, key, c)
            continue
        g, e = mono[-1]
        u = mono[:-1] + ((g, e - 1),) if e > 1 else mono[:-1]
        i, j = gen_ij(N, g)
        val = psi[(i, j)]
        if val:
            add_term(pending, (u, slots, d), c * val)
        for a, k in enumerate(slots):
            if k == j:
                add_term(pending, (u, slots[:a] + (i,) + slots[a + 1 :], d + 1), c)
    return ModuleElement(p, raw.t, done)


def _require_reduced(caller: str, *elements: ModuleElement) -> None:
    """Raise ReductionError when a monomial of an element ends in an
    m-generator; under the m-last order that is every monomial with an
    m-letter."""
    for m in elements:
        for mono, _, _ in m.terms:
            if mono and mono[-1][0] in m.pyramid.m_codes():
                raise ReductionError("%s needs a reduced element; %r ends in m" % (caller, mono))


def ad_action(xi_ij, m: ModuleElement) -> ModuleElement:
    """ad of an m-generator xi on a reduced element: the derivation
    D(u) = [xi, u]/hbar on each U-factor plus xi on the slots, then one
    reduction (see the module docstring).  D(rest·h) = D(rest)·h +
    rest·[xi, h] is memoized per call; a monomial ending in an
    m-generator raises ReductionError."""
    i, j = xi_ij
    if not m.pyramid.in_m(i, j):
        raise AlgebraError("ad is defined here for m-generators only; E[%d,%d] is not in m" % (i, j))
    _require_reduced("ad_action", m)
    order, xi = m.order, gen_code(m.N, i, j)
    memo: dict = {(): {}}

    def derive(u):
        hit = memo.get(u)
        if hit is None:
            h, e = u[-1]
            rest = u[:-1] + ((h, e - 1),) if e > 1 else u[:-1]
            hit = {}
            for (x, d), c in derive(rest).items():
                for (y, f), q in _mono_product(order, x, ((h, 1),)).items():
                    add_term(hit, (y, d + f), c * q)
            for g, sign in _gen_bracket(m.N, xi, h):
                for key, q in _mono_product(order, rest, ((g, 1),)).items():
                    add_term(hit, key, q if sign == 1 else -q)
            memo[u] = hit
        return hit

    out: dict = {}
    for (u, slots, d), c in m.terms.items():
        for (y, f), q in derive(u).items():
            add_term(out, (y, slots, d + f), c * q)
        for a, k in enumerate(slots):
            if k == j:
                add_term(out, (u, slots[:a] + (i,) + slots[a + 1 :], d), c)
    return reduce_mod_m_psi(ModuleElement(m.pyramid, m.t, out))


def is_whittaker(m: ModuleElement, elements=None):
    """Check invariance under the shifted m-action of each (i, j) in
    elements, by default every element of m_basis(): the full-m oracle.
    whittaker.canonicalize's gate passes the Lie generators of m
    (Pyramid.m_generators), which decides the same thing.

    Returns (True, None, None) or (False, offending (i,j), residue).
    """
    for (i, j) in m.pyramid.m_basis() if elements is None else elements:
        res = ad_action((i, j), m)
        if not res.is_zero():
            return False, (i, j), res
    return True, None, None


# ----------------------------------------------------------------------
# left quotient by the Borel-type subalgebra
# ----------------------------------------------------------------------
def reduce_mod_b_left(m: ModuleElement) -> ModuleElement:
    """Delete every term whose monomial starts with a b-generator.

    Requires the subregular pyramid, whose order ranks the b-generators
    first; surviving monomials then use only the generators of l and of
    the last matrix column.
    """
    p = m.pyramid
    if not p.is_subregular():
        raise ReductionError("left b-quotient is supported for subregular pyramids only")
    b_codes = p.b_codes()
    return m.keep(lambda mono: not (mono and mono[0][0] in b_codes))


# ----------------------------------------------------------------------
# fusion
# ----------------------------------------------------------------------
def right_mul_gen(m: ModuleElement, g: int) -> ModuleElement:
    """The right action of a single generator: u*g ⊗ v - hbar u ⊗ (g.v)."""
    order = m.order
    i, j = gen_ij(m.N, g)
    gm = ((g, 1),)
    out: dict = {}
    for (um, slots, d), c in m.terms.items():
        for (mono, e), q in _mono_product(order, um, gm).items():
            add_term(out, (mono, slots, d + e), q * c)
        for a, k in enumerate(slots):
            if k == j:
                add_term(out, (um, slots[:a] + (i,) + slots[a + 1 :], d + 1), -c)
    return ModuleElement(m.pyramid, m.t, out)


def transport(m: ModuleElement, word) -> ModuleElement:
    """Right-act by a product of generators, left factor first."""
    cur = m
    for g in word:
        cur = right_mul_gen(cur, g)
    return cur


def fuse(a: ModuleElement, b: ModuleElement) -> ModuleElement:
    """The product [x] ⊗ [y] -> [x·y] on reduced representatives.

    The right terms are visited sorted by U-word, depth first: path
    holds a right-acted by each prefix of the current word, so a word
    starts from the prefix it shares with the one before, and only one
    path is held at a time.  Slot tuples concatenate.  Both operands
    must be reduced (ReductionError otherwise), and then so is the
    result, with no reduction pass: see the module docstring.
    """
    if a.pyramid != b.pyramid:
        raise AlgebraError("fuse needs a common pyramid")
    _require_reduced("fuse", a, b)
    out: dict = {}
    path = [a]  # path[k]: a right-acted by word[:k]
    word = ()
    for w, (_, yslots, yd), yc in sorted(
        ((_mono_to_word(key[0]), key, c) for key, c in b.terms.items()), key=lambda t: t[0]
    ):
        n = 0
        while n < len(word) and n < len(w) and word[n] == w[n]:
            n += 1
        del path[n + 1 :]
        for g in w[n:]:
            path.append(right_mul_gen(path[-1], g))
        word = w
        for (um, uslots, ud), uc in path[-1].terms.items():
            add_term(out, (um, uslots + yslots, ud + yd), uc * yc)
    return ModuleElement(a.pyramid, a.t + b.t, out)


def right_act(m: ModuleElement, c: AlgebraElement) -> ModuleElement:
    """Right action of an algebra element: fusion with a rank-zero factor,
    so c must lie in U(p)."""
    return fuse(m, ModuleElement.embed(c, m.pyramid, ()))
