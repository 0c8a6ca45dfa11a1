"""The tensor-structure matrix J on pairs of vector representations.

Fusing two canonical invariant vectors v_i, v_j gives an invariant
rank-2 element whose coefficients are almost in canonical form; the
obstruction is the l-constant part (l = span(E_21, E_11)) of the
coefficient of 1 ⊗ v_a ⊗ v_l.  Subtracting right translates of the
already-canonical pair generators, processed in decreasing second slot,
removes the obstructions and defines

    J(v_i ⊗ v_j ⊗ 1) = v_i ⊗ v_j ⊗ 1 + sum_{a,l} v_a ⊗ v_l ⊗ c_ij^al,

with entries c_ij^al in U_hbar(l).  Every entry is divisible by hbar;
the first hbar-order, with PBW monomials E_21^p E_11^q read as commuting
monomials x21^p x11^q, is the semi-classical tensor j.  Its constant
part must reproduce the wonderbolic tensor j_c, and the dynamical part
is compared entry by entry against candidate closed forms.

J is computed in the left b-quotient.  Let B_t = b·U ⊗ V^{⊗t}, the span
of the terms whose monomial starts with a b-generator, and pi the
deletion of those terms (modules.reduce_mod_b_left).  B_t is stable
under right_mul_gen, since b·U is a right ideal and the b-generators
rank first, and under reduce_mod_m_psi, since b ∩ m = ∅ and peeling a
trailing m-factor keeps the leading b-factor.  So fuse(a, y) mod B
depends only on a mod B; the right operand y must stay full.  A
canonical v_i is 1 ⊗ v_i mod B_1 and the canonical pair generator g_ij
is 1 ⊗ v_i ⊗ v_j mod B_2, while the l-constant obstructions never lie in
B.  The Gaussian loop therefore starts from pi(fuse(pi(v_i), v_j)),
subtracts right_act(1 ⊗ v_a ⊗ v_l, c), and must end at exactly
1 ⊗ v_i ⊗ v_j; that one equality replaces the checks "unit leading term"
and "residual in b·U" of the construction on full representatives,
which the tests keep as an oracle.  This is the Whittaker analogue of
reading the fusion matrix off expectation values (Etingof–Varchenko,
exchange dynamical quantum groups); the reduction is Gan–Ginzburg's.

Sign convention: the engine uses psi = Tr(e .) on the plain generators
E_ij.  Conjugation by t = diag(t_k), t_k = (-1)^(col(k) - 1), is an
automorphism that fixes m, p, l and the rho-shifts and sends psi to
-psi; it multiplies the entry at ((a, l), (i, j)) by t_a t_l t_i t_j,
which turns E_ai ⊗ E_lj into the modified generators
Etilde_ai ⊗ Etilde_lj = (-1)^(col i - col a + col j - col l) E_ai ⊗ E_lj.
It maps j_c to -j_c and the printed 'statement' dynamical families onto
the 'positive' ones.  The computed limit is j_c plus the 'positive'
families: the printed constant part in plain E_ij, the printed dynamical
part read on Etilde.  The comparison reports the literal variants as data.

An independent recomputation of the first order uses only the
hbar-constant linear and l-linear parts of the coefficients of the
canonical vectors: one transport step of a single generator y past the
first slot contributes -hbar delta_{col(y),i} (l-tail) at the slot
row(y), and everything else is higher order.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, add_term, gen_ij
from .geometry import jc_closed_form
from .modules import ModuleElement, fuse, reduce_mod_b_left, right_act
from .pyramid import Pyramid
from .whittaker import WhittakerBasis, asymptotic_parts, canonical_basis, in_l

_GAUSS_PASS_BOUND = 64


class TensorJError(Exception):
    pass


def _check_rank(N: int, got: int):
    if got != N:
        raise TensorJError("input is over N=%d, expected N=%d" % (got, N))


class JMatrix:
    """Entries c_ij^al of J - id, plus the canonical pair generators
    modulo b: pair_generators[(i, j)] is pi(g_ij), which equals
    1 ⊗ v_i ⊗ v_j (see the module docstring)."""

    def __init__(self, pyramid: Pyramid, entries: dict, pair_generators: dict,
                 basis: WhittakerBasis):
        self.pyramid = pyramid
        self.entries = entries  # ((a, l), (i, j)) -> AlgebraElement in U(l)
        # (i, j) -> pi(g_ij) = 1 ⊗ v_i ⊗ v_j, a rank-2 ModuleElement
        self.pair_generators = pair_generators
        self.basis = basis

    @property
    def N(self) -> int:
        return self.pyramid.N

    def entry(self, row, col) -> AlgebraElement:
        key = (tuple(row), tuple(col))
        hit = self.entries.get(key)
        if hit is not None:
            return hit
        return AlgebraElement.zero(self.pyramid.default_order())

    def sorted_entries(self):
        return sorted(self.entries.items())

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "entries": [
                {"row": list(r), "col": list(c), "value": v.to_json()}
                for (r, c), v in self.sorted_entries()
            ],
        }


def compute_J(N: int, basis: WhittakerBasis | None = None) -> JMatrix:
    """Gaussian construction of J in the left b-quotient (see the module
    docstring): F starts as pi(fuse(pi(v_i), v_j)) and ends as
    1 ⊗ v_i ⊗ v_j exactly.  A right translate right_act(1 ⊗ v_a ⊗ v_l, c)
    is not reduced by pi: its U-parts are the monomials of c in U(l), and
    l meets neither b nor m, so it has no term in B_2."""
    basis = basis or canonical_basis(N)
    _check_rank(N, basis.N)
    if not basis.canonical:
        raise TensorJError("compute_J needs the canonical basis")
    p = basis.pyramid
    l_only = in_l(p)
    left = {i: reduce_mod_b_left(basis.vector(i)) for i in range(1, N + 1)}
    pair_gens: dict = {}
    entries: dict = {}
    for j in range(N, 0, -1):
        for i in range(N, 0, -1):
            F = reduce_mod_b_left(fuse(left[i], basis.vector(j)))
            acc: dict = {}
            for _ in range(_GAUSS_PASS_BOUND):
                obstructions = [
                    (slots, c)
                    for slots, c in F.keep(l_only).by_slots().items()
                    if slots != (i, j)
                ]
                if not obstructions:
                    break
                for (a, l), c in obstructions:
                    if l <= j:
                        raise TensorJError(
                            "obstruction at %r for pair %r is not upper-triangular"
                            % ((a, l), (i, j))
                        )
                    F = F - right_act(pair_gens[(a, l)], c)
                    add_term(acc, (a, l), c)
            else:
                raise TensorJError("Gaussian pass bound exceeded at pair %r" % ((i, j),))
            if F != ModuleElement(p, 2, {((), (i, j), 0): 1}):
                raise TensorJError(
                    "pair %r is not 1 ⊗ v_i ⊗ v_j modulo b after the Gaussian passes" % ((i, j),)
                )
            pair_gens[(i, j)] = F
            for key, c in acc.items():
                entries[(key, (i, j))] = c
    return JMatrix(pyramid=p, entries=entries, pair_generators=pair_gens, basis=basis)


def j_structure_report(J: JMatrix) -> dict:
    """The structural facts about J - id, checked exactly."""
    p = J.pyramid
    l_codes = set(p.l_codes())
    support_ok = True
    hbar_ok = True
    in_l_ok = True
    bad = []
    for ((a, l), (i, j)), c in J.sorted_entries():
        if not (a <= i and l > j):
            support_ok = False
            bad.append({"row": [a, l], "col": [i, j], "why": "support"})
        if not c.divisible_by_hbar():
            hbar_ok = False
            bad.append({"row": [a, l], "col": [i, j], "why": "hbar"})
        if not all(g in l_codes for m in c.monomials() for g, _ in m):
            in_l_ok = False
            bad.append({"row": [a, l], "col": [i, j], "why": "not-in-l"})
    pairs_ok = all(
        J.pair_generators[(i, j)].coefficient_at((i, j))
        == AlgebraElement.one(p.default_order())
        for i in range(1, J.N + 1)
        for j in range(1, J.N + 1)
    )
    return {
        "N": J.N,
        "support_upper_triangular": support_ok,
        "entries_divisible_by_hbar": hbar_ok,
        "entries_in_l": in_l_ok,
        "unipotent_diagonal": pairs_ok,
        "violations": bad,
        "ok": support_ok and hbar_ok and in_l_ok and pairs_ok,
    }


# ----------------------------------------------------------------------
# the first hbar-order
# ----------------------------------------------------------------------
class SemiclassicalJ:
    """Entries as commuting polynomials in (x21, x11): {(p, q): coeff}."""

    def __init__(self, N: int, entries: dict | None = None):
        self.N = N
        self.entries = {} if entries is None else entries

    def add(self, row, col, x21_exp: int, x11_exp: int, coeff):
        coeff = Fraction(coeff)
        if not coeff:
            return
        key = (tuple(row), tuple(col))
        poly = self.entries.setdefault(key, {})
        add_term(poly, (x21_exp, x11_exp), coeff)
        if not poly:
            del self.entries[key]

    def constant_part(self) -> "SemiclassicalJ":
        out = SemiclassicalJ(self.N)
        for (row, col), poly in self.entries.items():
            c = poly.get((0, 0))
            if c:
                out.add(row, col, 0, 0, c)
        return out

    def max_x_degree(self) -> int:
        deg = 0
        for poly in self.entries.values():
            for (pq, c) in poly.items():
                if c:
                    deg = max(deg, pq[0] + pq[1])
        return deg

    def __eq__(self, other):
        return isinstance(other, SemiclassicalJ) and self.N == other.N and self.entries == other.entries

    def diff(self, other: "SemiclassicalJ"):
        """Entry-level differences: (row, col, mine, theirs)."""
        out = []
        keys = set(self.entries) | set(other.entries)
        for key in sorted(keys):
            a = self.entries.get(key, {})
            b = other.entries.get(key, {})
            if a != b:
                out.append((key[0], key[1], dict(a), dict(b)))
        return out

    def sorted_entries(self):
        return sorted(
            ((row, col), dict(sorted(poly.items())))
            for (row, col), poly in self.entries.items()
        )

    @staticmethod
    def render_poly(poly: dict) -> str:
        if not poly:
            return "0"
        parts = []
        for (pq, c) in sorted(poly.items()):
            mono = []
            if pq[0]:
                mono.append("x21" + ("^%d" % pq[0] if pq[0] > 1 else ""))
            if pq[1]:
                mono.append("x11" + ("^%d" % pq[1] if pq[1] > 1 else ""))
            ms = "·".join(mono) if mono else "1"
            if c == 1 and mono:
                parts.append(ms)
            elif c == -1 and mono:
                parts.append("-" + ms)
            elif not mono:
                parts.append(str(c))
            else:
                parts.append("%s·%s" % (c, ms))
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "entries": [
                {
                    "row": list(row),
                    "col": list(col),
                    "poly": [
                        {"x21": pq[0], "x11": pq[1], "coeff": "%d/%d" % (c.numerator, c.denominator)}
                        for pq, c in sorted(poly.items())
                    ],
                }
                for (row, col), poly in self.sorted_entries()
            ],
        }


def semiclassical_limit(J: JMatrix) -> SemiclassicalJ:
    """(J - id)/hbar at hbar = 0, with E_21^p E_11^q read as x21^p x11^q."""
    p = J.pyramid
    N = J.N
    e21, e11 = p.l_codes()
    out = SemiclassicalJ(N)
    for ((a, l), (i, j)), c in J.entries.items():
        if not c.divisible_by_hbar():
            raise TensorJError("entry %r is not divisible by hbar" % (((a, l), (i, j)),))
        for (mono, d), q in c.terms.items():
            if d != 1:
                continue
            exps = {e21: 0, e11: 0}
            for g, e in mono:
                if g not in exps:
                    raise TensorJError("entry monomial leaves U(l): %r" % (mono,))
                exps[g] = e
            out.add((a, l), (i, j), exps[e21], exps[e11], q)
    return out


def _jc_as_matrix(N: int) -> SemiclassicalJ:
    """The constant tensor j_c as a matrix on pairs: a term y ⊗ z acts on
    v_i ⊗ v_j through row indices (row(y), row(z)) at column (col(y), col(z))."""
    out = SemiclassicalJ(N)
    for ((y1, y2), (z1, z2)), c in jc_closed_form(N).terms.items():
        out.add((y1, z1), (y2, z2), 0, 0, c)
    return out


def semiclassical_closed_form(N: int, second_family: str = "statement") -> SemiclassicalJ:
    """Candidate closed form: j_c plus the two dynamical families.

    second_family selects the printed variant of the E_{i,1} family:
    'statement'  sum_{i=4}^N sum_{r=2}^{i-2} (-1)^(i-r) x11^(i-r-1) E_1r ⊗ E_i1
    'proof'      sum_{i=4}^N sum_{r=2}^{i-1} (-1)^(i-r) x11^(i-r)   E_1r ⊗ E_i1
    'positive'   the statement's monomials with every dynamical sign +1:
                 the image of the statement families under the column
                 twist t (see the module docstring), i.e. the printed
                 Etilde signs rewritten on plain E_ij.
    """
    if N < 3:
        raise TensorJError("need N >= 3")
    out = _jc_as_matrix(N)
    positive = second_family == "positive"
    for j in range(2, N - 1):
        for i in range(j + 2, N + 1):
            for r in range(2, i - j + 1):
                sign = 1 if positive else (-1) ** (i - j - r)
                out.add((1, i), (r, j), 1, i - j - r, sign)
    if second_family in ("statement", "positive"):
        for i in range(4, N + 1):
            for r in range(2, i - 1):
                sign = 1 if positive else (-1) ** (i - r)
                out.add((1, i), (r, 1), 0, i - r - 1, sign)
    elif second_family == "proof":
        for i in range(4, N + 1):
            for r in range(2, i):
                out.add((1, i), (r, 1), 0, i - r, (-1) ** (i - r))
    else:
        raise ValueError("unknown second_family %r" % second_family)
    return out


def semiclassical_from_asymptotics(N: int, basis: WhittakerBasis | None = None) -> SemiclassicalJ:
    """First hbar-order recomputed from the hbar-constant linear and
    l-linear coefficient parts alone: a single transport step of the
    leading generator of each such part past the first slot."""
    basis = basis or canonical_basis(N)
    _check_rank(N, basis.N)
    p = basis.pyramid
    e21, e11 = p.l_codes()
    out = SemiclassicalJ(N)
    for j in range(1, N + 1):
        vec = basis.vector(j)
        for slots, x in vec.by_slots().items():
            l = slots[0]
            if l == j:
                continue
            lin, llin = asymptotic_parts(x, p)
            for i in range(1, N + 1):
                for (((g, _e),), _d), c in lin.terms.items():
                    a, col = gen_ij(N, g)
                    if col == i:
                        out.add((a, l), (i, j), 0, 0, -c)
                for (mono, _d), c in llin.terms.items():
                    g, _ = mono[0]
                    a, col = gen_ij(N, g)
                    if col != i:
                        continue
                    exps = {e21: 0, e11: 0}
                    for gg, ee in mono[1:]:
                        exps[gg] = ee
                    out.add((a, l), (i, j), exps[e21], exps[e11], -c)
    return out


def compare_semiclassical(N: int, J: JMatrix | None = None) -> dict:
    """Exact comparison of the computed limit against the candidate closed
    forms; mismatches are reported as data."""
    J = J or compute_J(N)
    _check_rank(N, J.N)
    computed = semiclassical_limit(J)
    report: dict = {"N": N}
    jc = _jc_as_matrix(N)
    report["constant_part_equals_jc"] = computed.constant_part() == jc
    report["max_x_degree"] = computed.max_x_degree()
    report["x_degree_bound_ok"] = computed.max_x_degree() <= max(N - 3, 0)
    matches = {}
    diffs = {}
    for variant in ("statement", "proof", "positive"):
        cand = semiclassical_closed_form(N, second_family=variant)
        d = computed.diff(cand)
        matches[variant] = not d
        diffs[variant] = [
            {
                "row": list(row),
                "col": list(col),
                "computed": SemiclassicalJ.render_poly(mine),
                "closed_form": SemiclassicalJ.render_poly(theirs),
            }
            for row, col, mine, theirs in d
        ]
    report["matches"] = matches
    # prefer reporting a printed convention when one fits
    report["matched_convention"] = next(
        (k for k in ("statement", "proof", "positive") if matches[k]), None
    )
    report["diffs"] = diffs
    report["computed"] = computed.to_json()
    return report


def fuse_power_J(N: int, samples: int = 10, seed: int = 0) -> dict:
    """Associativity of fusion on canonical triples (t = 3 factors): the
    computational shadow of the module-category compatibility axiom."""
    import random

    basis = canonical_basis(N)
    rng = random.Random(seed)
    triples = [(1, 2, 3)] if N >= 3 else []
    while len(triples) < samples:
        triples.append((rng.randint(1, N), rng.randint(1, N), rng.randint(1, N)))
    results = []
    ok = True
    for (a, b, c) in triples:
        va, vb, vc = basis.vector(a), basis.vector(b), basis.vector(c)
        left = fuse(fuse(va, vb), vc)
        right = fuse(va, fuse(vb, vc))
        good = left == right
        ok = ok and good
        results.append({"triple": [a, b, c], "associative": good})
    return {"N": N, "t": 3, "ok": ok, "cases": results}
