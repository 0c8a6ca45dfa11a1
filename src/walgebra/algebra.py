"""PBW normal form in the asymptotic enveloping algebra of gl_N.

Generators are the matrix units E[i,j], 1 <= i,j <= N, with
[E_ij, E_kl] = delta_jk E_il - delta_li E_kj, and the product relation
x*y - y*x = hbar*[x,y].  An element is a finite rational[hbar]-linear
combination of PBW monomials: products of generators weakly increasing
with respect to a fixed total order on the N^2 generators.  It is stored
as terms {(monomial, hbar-degree d): c}, the term c * hbar^d * monomial.

Normal ordering is bubble-sort style: an adjacent out-of-order pair
E_kl * E_ij (E_kl ranked after E_ij) is replaced by

    E_ij * E_kl + hbar * (delta_li E_kj - delta_jk E_il),

which strictly decreases the inversion count at fixed word length and
spawns strictly shorter words otherwise, so rewriting terminates.  Each
rewrite either swaps two letters or trades two letters for one at one
more power of hbar, so a pending word of length l descending from a word
of length n carries hbar^(n - l): its length alone fixes its degree, and
the worklist holds bare rational coefficients.  Term maps are merged
after every step and zero coefficients are purged, so equality of
elements is equality of dictionaries.

Products of two PBW monomials are cached per order (_mono_product, the
pair cache).  normal_order_word is the general path; a product m·g by
one generator g is instead built from smaller cached products, as in
the multiplication tables of PBW algebra systems (Levandovskyy and
Schönemann, "Plural", ISSAC 2003).  Write m = rest·h with h its last
letter.  If h ranks at or before g, m·g is m with g appended (or h's
exponent raised).  Otherwise

    rest·h·g = (rest·g)·h + hbar * rest·[h, g],

where [h, g] is a signed sum of generators.  The recursion ends: the
leading term of rest·g has every letter ranked at or before h, so its
·h is the append case, and every other call has a left factor shorter
than m.  Its depth is at most the length of m.

Every such merge, here and in the other layers, goes through add_term.
Elements are immutable values once built; all operations are pure
functions.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction

from .hbar import _exact

NORMAL_ORDER_STEP_BUDGET = 10_000_000


class AlgebraError(Exception):
    """Structural misuse: mixed ambient data, bad indices, broken invariants."""


def gen_code(N: int, i: int, j: int) -> int:
    if not (1 <= i <= N and 1 <= j <= N):
        raise AlgebraError("generator E[%d,%d] out of range for N=%d" % (i, j, N))
    return (i - 1) * N + (j - 1)


def gen_ij(N: int, code: int) -> tuple[int, int]:
    return code // N + 1, code % N + 1


class GeneratorOrder:
    """A total order on the N^2 matrix units, given by an explicit rank array.

    The rank array is a bijection gen-code -> 0..N^2-1; PBW monomials are
    sorted by increasing rank.  Orders carry a content fingerprint so that
    serialized artifacts can detect an order change.
    """

    __slots__ = ("N", "ranks", "label", "_fp", "_pair_cache")

    def __init__(self, N: int, ranked_gens, label: str):
        self.N = N
        ranks = [-1] * (N * N)
        for r, (i, j) in enumerate(ranked_gens):
            ranks[gen_code(N, i, j)] = r
        if sorted(ranks) != list(range(N * N)):
            raise AlgebraError("rank array is not a bijection onto 0..N^2-1")
        self.ranks = tuple(ranks)
        self.label = label
        body = ("%d:" % N) + ",".join(map(str, self.ranks))
        self._fp = hashlib.sha256(body.encode()).hexdigest()[:12]
        self._pair_cache = {}

    @classmethod
    def lex(cls, N: int) -> "GeneratorOrder":
        """Row-major lexicographic order on (i, j)."""
        gens = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
        return cls(N, gens, label="lex")

    @property
    def fingerprint(self) -> str:
        return self._fp

    def __eq__(self, other):
        return isinstance(other, GeneratorOrder) and self.N == other.N and self.ranks == other.ranks

    def __hash__(self):
        return hash((self.N, self.ranks))

    def __repr__(self):
        return "GeneratorOrder(N=%d, %s, %s)" % (self.N, self.label, self._fp)


def _gen_bracket(N: int, g1: int, g2: int):
    """[E_g1, E_g2] as a tuple of (gen code, sign) pairs, possibly empty."""
    i, j = g1 // N + 1, g1 % N + 1
    k, l = g2 // N + 1, g2 % N + 1
    out = []
    if j == k:
        out.append(((i - 1) * N + (l - 1), 1))
    if l == i:
        out.append(((k - 1) * N + (j - 1), -1))
    # E_ii paired with E_ii cancels exactly
    if len(out) == 2 and out[0][0] == out[1][0]:
        return ()
    return tuple(out)


def _word_to_mono(word):
    """Compress a sorted generator word into ((code, exp), ...) form."""
    mono = []
    for g in word:
        if mono and mono[-1][0] == g:
            mono[-1] = (g, mono[-1][1] + 1)
        else:
            mono.append((g, 1))
    return tuple(mono)


def add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place, dropping the key when the sum is zero.

    One kernel for every term map of the package: the rationals and the
    element types are falsy exactly at zero.
    """
    acc = terms.get(key)
    s = coeff if acc is None else acc + coeff
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _mono_to_word(mono):
    out = []
    for g, e in mono:
        out.extend([g] * e)
    return tuple(out)


def normal_order_word(order: GeneratorOrder, word) -> dict:
    """Rewrite an arbitrary generator word into PBW form.

    Returns terms {(monomial, d): c}, where d is len(word) minus the
    length of the monomial (see the module docstring).  The worklist keys
    pending words so coefficients of identical intermediates merge as
    early as possible, and a word whose coefficient cancels leaves the
    worklist at once.  More than NORMAL_ORDER_STEP_BUDGET worklist steps
    raise AlgebraError.
    """
    ranks = order.ranks
    N = order.N
    n = len(word)
    pending = {tuple(word): 1}
    done = {}
    steps = 0
    while pending:
        steps += 1
        if steps > NORMAL_ORDER_STEP_BUDGET:
            raise AlgebraError("normal-ordering step budget exceeded; rewrite engine broken?")
        w, c = pending.popitem()
        # locate the first adjacent inversion
        pos = -1
        for p in range(len(w) - 1):
            if ranks[w[p]] > ranks[w[p + 1]]:
                pos = p
                break
        if pos < 0:
            add_term(done, (_word_to_mono(w), n - len(w)), c)
            continue
        add_term(pending, w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2 :], c)
        for g, sign in _gen_bracket(N, w[pos], w[pos + 1]):
            add_term(pending, w[:pos] + (g,) + w[pos + 2 :], c if sign == 1 else -c)
    return done


def _mono_product(order: GeneratorOrder, ma, mb) -> dict:
    """Terms {(monomial, d): c} of the concatenation of two PBW monomials,
    cached.  A miss whose right factor is one generator goes through
    _right_gen_product, any other through normal_order_word."""
    cache = order._pair_cache
    key = (ma, mb)
    hit = cache.get(key)
    if hit is None:
        if ma and len(mb) == 1 and mb[0][1] == 1:
            hit = _right_gen_product(order, ma, mb[0][0])
        else:
            hit = normal_order_word(order, _mono_to_word(ma) + _mono_to_word(mb))
        cache[key] = hit
    return hit


def _right_gen_product(order: GeneratorOrder, ma, g: int) -> dict:
    """ma·g for a nonempty PBW monomial ma = rest·h and one generator g:
    rest·h·g = (rest·g)·h + hbar·rest·[h, g] when h ranks after g (see
    the module docstring), every smaller product from the pair cache."""
    h, e = ma[-1]
    if order.ranks[h] <= order.ranks[g]:
        if h == g:
            return {(ma[:-1] + ((g, e + 1),), 0): 1}
        return {(ma + ((g, 1),), 0): 1}
    rest = ma[:-1] + ((h, e - 1),) if e > 1 else ma[:-1]
    hm = ((h, 1),)
    out: dict = {}
    for (m, d), c in _mono_product(order, rest, ((g, 1),)).items():
        for (m2, d2), c2 in _mono_product(order, m, hm).items():
            add_term(out, (m2, d + d2), c * c2)
    for x, sign in _gen_bracket(order.N, h, g):
        for (m, d), c in _mono_product(order, rest, ((x, 1),)).items():
            add_term(out, (m, d + 1), c if sign == 1 else -c)
    return out


class TermMap:
    """The linear structure shared by the element types: a finite map
    terms = {key: nonzero rational}, the key ending in the hbar-degree d.
    AlgebraElement keys (monomial, d) and ModuleElement keys
    (monomial, slots, d).  A coefficient is an int where it is integral
    and a Fraction otherwise (see hbar._exact), so equal elements have
    equal term maps; any other value raises TypeError.  Scalars are
    rationals, and coefficients cross every edge bare: _json_terms
    writes them as "p/q" strings and the from_json readers read those
    back through _exact; rendering (render.py) reads the {d: c} of each
    key from _grouped, in the order _json_terms writes.  No polynomial
    object (hbar.HbarPoly) is built on any of these paths.

    A subclass supplies _check_compatible(other), which raises on mixed
    ambient data, _with(terms), which builds an element with the same
    ambient data as self, N, and order, the generator order whose ranks
    sort the monomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        types = set(map(type, terms.values()))
        if not types <= {int}:
            bad = types - {int, Fraction}
            if bad:
                raise TypeError("a coefficient must be int or Fraction, not %s" % bad.pop().__name__)
            terms = {k: _exact(c) for k, c in terms.items()}
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._with(out)

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q):
        """Multiply by a rational."""
        if not q:
            return self._with({})
        return self._with({k: c * q for k, c in self.terms.items()})

    def times_hbar(self, power: int = 1):
        """Multiply by hbar^power; a negative power divides exactly, and a
        term it cannot divide raises AlgebraError naming that term."""
        if power < 0:
            for k in self.terms:
                if k[-1] + power < 0:
                    raise AlgebraError("not divisible by hbar^%d at %r" % (-power, k[:-1]))
        return self._with({k[:-1] + (k[-1] + power,): c for k, c in self.terms.items()})

    def keep(self, pred):
        """The terms whose monomial satisfies pred."""
        return self._with({k: c for k, c in self.terms.items() if pred(k[0])})

    def _grouped(self) -> list:
        """[(key, {d: c})], one entry per term key without its degree
        ((monomial,) or (monomial, slots)) with its coefficient at each
        hbar-degree, gathered in one pass: ordered by slots where the
        key has them, then total degree, then the monomial's sequence of
        (rank, exponent) pairs.  That sequence is written as a string of
        code points, which compares the same way in C; each monomial's
        key is computed once."""
        by_key: dict = {}
        for k, c in self.terms.items():
            by_key.setdefault(k[:-1], {})[k[-1]] = c
        ranks = self.order.ranks
        mono_keys = {
            mono: (sum([e for _, e in mono]), "".join([chr(ranks[g]) + chr(e) for g, e in mono]))
            for mono in {key[0] for key in by_key}
        }
        return sorted(by_key.items(), key=lambda item: (item[0][1:], mono_keys[item[0][0]]))

    def _json_terms(self) -> list:
        """The "terms" list of to_json, in the order of _grouped: per key
        its "mono" as [i, j, exponent] triples, its "slots" where the key
        has them, and its "coeff", one "p/q" string per hbar-degree from
        0 to the largest."""
        N = self.N
        out = []
        for key, by_d in self._grouped():
            coeff = ["0/1"] * (max(by_d) + 1)
            for d, c in by_d.items():
                coeff[d] = "%d/1" % c if type(c) is int else "%d/%d" % (c.numerator, c.denominator)
            term = {"mono": [[g // N + 1, g % N + 1, e] for g, e in key[0]], "coeff": coeff}
            if len(key) > 1:
                term["slots"] = list(key[1])
            out.append(term)
        return out


class AlgebraElement(TermMap):
    """An exact element of the asymptotic enveloping algebra of gl_N.

    terms maps (PBW monomial ((gen code, exponent), ...), hbar-degree) to
    a nonzero rational; the empty monomial is the unit.
    """

    __slots__ = ("order",)

    def __init__(self, order: GeneratorOrder, terms: dict):
        self.order = order
        TermMap.__init__(self, terms)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, order) -> "AlgebraElement":
        return cls(order, {})

    @classmethod
    def scalar(cls, order, coeff) -> "AlgebraElement":
        """A rational scalar."""
        return cls(order, {((), 0): coeff} if coeff else {})

    @classmethod
    def generator(cls, order, i: int, j: int) -> "AlgebraElement":
        return cls(order, {(((gen_code(order.N, i, j), 1),), 0): 1})

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def N(self) -> int:
        return self.order.N

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

    def _check_compatible(self, other: "AlgebraElement"):
        if self.order != other.order:
            raise AlgebraError("elements live over different N or generator orders")

    def _with(self, terms: dict) -> "AlgebraElement":
        return AlgebraElement(self.order, terms)

    # ------------------------------------------------------------------
    # multiplication and the asymptotic commutator
    # ------------------------------------------------------------------
    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        order = self.order
        out = {}
        for (ma, da), ca in self.terms.items():
            for (mb, db), cb in other.terms.items():
                c = ca * cb
                d = da + db
                for (m, e), q in _mono_product(order, ma, mb).items():
                    add_term(out, (m, d + e), q * c)
        return AlgebraElement(order, out)

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        """(self*other - other*self) / hbar, exact: a constant hbar-term in
        the difference means the rewrite engine is broken, and raises."""
        return (self * other - other * self).times_hbar(-1)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def divisible_by_hbar(self) -> bool:
        return all(d for _, d in self.terms)

    def monomials(self):
        return {m for m, _ in self.terms}

    def change_order(self, new_order: GeneratorOrder) -> "AlgebraElement":
        """Re-express the element in PBW form for another generator order."""
        if new_order.N != self.N:
            raise AlgebraError("cannot change order across different N")
        out = {}
        forms = {}  # monomial -> its terms in new_order, once per monomial
        for (m, d), c in self.terms.items():
            form = forms.get(m)
            if form is None:
                form = forms[m] = normal_order_word(new_order, _mono_to_word(m))
            for (m2, e), q in form.items():
                add_term(out, (m2, d + e), q * c)
        return AlgebraElement(new_order, out)

    # ------------------------------------------------------------------
    # serialization: {"N":…, "terms":[{"mono":[[i,j,exp]…], "coeff":[…]}]}
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"N": self.N, "terms": self._json_terms()}

    @classmethod
    def from_json(cls, data: dict, order: GeneratorOrder) -> "AlgebraElement":
        """Read what to_json writes; raise AlgebraError on input of another
        shape (_json_term_list), on a monomial entry that is not an int, on a
        monomial not in the order's PBW form (ranks strictly increasing,
        exponents at least 1), on a repeated monomial and on a coefficient
        that is not a "p/q" string with q > 0."""
        json_terms = _json_term_list(data, ("mono", "coeff"))
        if data["N"] != order.N:
            raise AlgebraError("JSON element has N=%d, order has N=%d" % (data["N"], order.N))
        if any(type(v) is not int for t in json_terms for ije in t["mono"] for v in ije):
            raise AlgebraError("JSON monomial entries must be ints")
        monos = [tuple((gen_code(order.N, i, j), e) for i, j, e in t["mono"]) for t in json_terms]
        ranks = order.ranks
        for mono in monos:
            if any(e < 1 for _, e in mono) or any(
                ranks[g] >= ranks[h] for (g, _), (h, _) in zip(mono, mono[1:])
            ):
                raise AlgebraError("JSON monomial %r is not in PBW form" % (mono,))
        if len(set(monos)) != len(monos):
            raise AlgebraError("JSON element lists a monomial twice")
        terms = {}
        for mono, t in zip(monos, json_terms):
            for d, s in enumerate(t["coeff"]):
                if type(s) is not str or not re.fullmatch("-?[0-9]+/0*[1-9][0-9]*", s):
                    raise AlgebraError("JSON coefficient %r is not a \"p/q\" string" % (s,))
                c = _exact(s)
                if c:
                    terms[(mono, d)] = c
        return cls(order, terms)

    def __repr__(self):
        from .render import render_algebra

        return "<%s>" % render_algebra(self)


def _json_term_list(data, keys) -> list:
    """data["terms"], or AlgebraError unless data has an int N and a list of
    term dicts holding a list at each of keys, each mono entry [i, j, e]."""
    if type(data) is not dict or type(data.get("N")) is not int or type(data.get("terms")) is not list:
        raise AlgebraError("JSON element needs an int N and a list of terms")
    for t in data["terms"]:
        if type(t) is not dict or any(type(t.get(k)) is not list for k in keys):
            raise AlgebraError("JSON term %r needs a list under each of %s" % (t, ", ".join(keys)))
        if any(type(ije) is not list or len(ije) != 3 for ije in t["mono"]):
            raise AlgebraError("JSON monomial %r is not a list of [i, j, e] entries" % (t["mono"],))
    return data["terms"]
