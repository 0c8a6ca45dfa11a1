"""The tensor-structure matrix J on pairs of vector representations.

Fusing two canonical invariant vectors v_i, v_j gives an invariant
rank-2 element whose coefficients are almost in canonical form; the
obstruction is the l-constant part (l = span(E_21, E_11)) of the
coefficient of 1 ⊗ v_a ⊗ v_l.  Subtracting right translates of the
already-canonical pair generators, processed in decreasing second slot,
removes the obstructions and defines

    J(v_i ⊗ v_j ⊗ 1) = v_i ⊗ v_j ⊗ 1 + sum_{a,l} v_a ⊗ v_l ⊗ c_ij^al,

with entries c_ij^al in U_hbar(l).  As a value, J is the term map
{((a, l), (i, j)): c_ij^al} of its nonzero entries, built with add_term;
it carries no N, so the functions that read it take (N, J).  Its
diagonal is the identity exactly when no entry has row == col.

Every entry is divisible by hbar; the first hbar-order, with PBW
monomials E_21^p E_11^q read as commuting monomials x21^p x11^q, is
the semi-classical tensor j.  It is a plain term map {(row, col, p, q):
c} for c·x21^p·x11^q at the entry (row, col), also built with add_term.
Its constant part must reproduce the wonderbolic tensor j_c, and the
dynamical part is compared entry by entry against candidate closed
forms.

J is computed in the left b-quotient.  Let B_t = b·U ⊗ V^{⊗t}, the span
of the terms whose monomial starts with a b-generator, and pi the
deletion of those terms (modules.reduce_mod_b_left).  B_t is stable
under right_mul_gen, since b·U is a right ideal and the b-generators
rank first, and under reduce_mod_m_psi, since b ∩ m = ∅ and peeling a
trailing m-factor keeps the leading b-factor.  So fuse(a, y) mod B
depends only on a mod B; the right operand y must stay full.  A
canonical v_i is 1 ⊗ v_i mod B_1 and the canonical pair generator g_ij
is 1 ⊗ v_i ⊗ v_j mod B_2, while the l-constant obstructions never lie in
B.  So the elimination generators are the unit pairs 1 ⊗ v_a ⊗ v_l, and
the Gaussian loop (whittaker.eliminate_l_constant, as in
canonicalization) starts from pi(fuse(pi(v_i), v_j)), subtracts
right_act(1 ⊗ v_a ⊗ v_l, c), and must end at exactly
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

from .algebra import add_term, gen_ij
from .geometry import jc_closed_form
from .modules import ModuleElement, fuse, reduce_mod_b_left
from .pyramid import Pyramid
from .render import signed_sum, term
from .whittaker import (
    WhittakerBasis,
    asymptotic_parts,
    canonical_basis,
    eliminate_l_constant,
    in_l,
)


class TensorJError(Exception):
    pass


def compute_J(basis: WhittakerBasis) -> dict:
    """The entries {((a, l), (i, j)): c_ij^al} of J - id, by the Gaussian
    construction in the left b-quotient (see the module docstring): F
    starts as pi(fuse(pi(v_i), v_j)) and ends as 1 ⊗ v_i ⊗ v_j exactly.
    The elimination generators are the unit pairs 1 ⊗ v_a ⊗ v_l of the
    higher columns l > j, so an obstruction that is not upper-triangular
    raises WhittakerError.  A right translate right_act(1 ⊗ v_a ⊗ v_l, c)
    is not reduced by pi: its U-parts are the monomials of c in U(l), and
    l meets neither b nor m, so it has no term in B_2."""
    if not basis.canonical:
        raise TensorJError("compute_J needs the canonical basis")
    p = basis.pyramid
    N = basis.N
    left = {i: reduce_mod_b_left(basis.vector(i)) for i in range(1, N + 1)}
    units = {
        (i, j): ModuleElement(p, 2, {((), (i, j), 0): 1})
        for i in range(1, N + 1)
        for j in range(1, N + 1)
    }
    J: dict = {}
    for j in range(N, 0, -1):
        higher = {k: g for k, g in units.items() if k[1] > j}
        for i in range(N, 0, -1):
            F, subtracted = eliminate_l_constant(
                reduce_mod_b_left(fuse(left[i], basis.vector(j))), (i, j), higher
            )
            if F != units[(i, j)]:
                raise TensorJError(
                    "pair %r is not 1 ⊗ v_i ⊗ v_j modulo b after the Gaussian passes" % ((i, j),)
                )
            for slots, c in subtracted:
                add_term(J, (slots, (i, j)), c)
    return J


def j_to_json(N: int, J: dict) -> dict:
    """J as JSON: N and the entries in sorted order."""
    return {
        "N": N,
        "entries": [
            {"row": list(r), "col": list(c), "value": v.to_json()}
            for (r, c), v in sorted(J.items())
        ],
    }


def j_structure_report(N: int, J: dict) -> dict:
    """The structural facts about J - id, checked exactly; the diagonal
    is the identity when J has no entry with row == col."""
    l_mono = in_l(Pyramid.subregular(N))
    bad = []
    for ((a, l), (i, j)), c in sorted(J.items()):
        for why, ok in (
            ("support", a <= i and l > j),
            ("hbar", c.divisible_by_hbar()),
            ("not-in-l", all(l_mono(m) for m in c.monomials())),
        ):
            if not ok:
                bad.append({"row": [a, l], "col": [i, j], "why": why})
    whys = {v["why"] for v in bad}
    diagonal_ok = all(row != col for row, col in J)
    return {
        "N": N,
        "support_upper_triangular": "support" not in whys,
        "entries_divisible_by_hbar": "hbar" not in whys,
        "entries_in_l": "not-in-l" not in whys,
        "unipotent_diagonal": diagonal_ok,
        "violations": bad,
        "ok": not bad and diagonal_ok,
    }


# ----------------------------------------------------------------------
# the first hbar-order
# ----------------------------------------------------------------------
def constant_part(s: dict) -> dict:
    """The terms of degree zero in (x21, x11)."""
    return {k: c for k, c in s.items() if k[2:] == (0, 0)}


def _by_entry(s: dict) -> dict:
    """{(row, col): {(p, q): c}}, entries and terms in sorted order."""
    out: dict = {}
    for (row, col, p, q), c in sorted(s.items()):
        out.setdefault((row, col), {})[(p, q)] = c
    return out


def render_poly(poly: dict) -> str:
    """{(p, q): c} as text in x21 and x11."""
    parts = []
    for pq, c in sorted(poly.items()):
        mono = [x + ("^%d" % e if e > 1 else "") for x, e in zip(("x21", "x11"), pq) if e]
        parts.append(term(str(c), "·".join(mono)))
    return signed_sum(parts)


def _l_exponents(mono, l_codes) -> tuple:
    """(p, q) of the monomial E_21^p E_11^q of U(l); l_codes is
    Pyramid.l_codes(), the codes of (E_21, E_11)."""
    exps = dict.fromkeys(l_codes, 0)
    for g, e in mono:
        if g not in exps:
            raise TensorJError("entry monomial leaves U(l): %r" % (mono,))
        exps[g] = e
    return tuple(exps.values())


def semiclassical_limit(N: int, J: dict) -> dict:
    """(J - id)/hbar at hbar = 0, with E_21^p E_11^q read as x21^p x11^q."""
    l_codes = Pyramid.subregular(N).l_codes()
    out: dict = {}
    for key, c in J.items():
        if not c.divisible_by_hbar():
            raise TensorJError("entry %r is not divisible by hbar" % (key,))
        for (mono, d), q in c.terms.items():
            if d == 1:
                add_term(out, (*key, *_l_exponents(mono, l_codes)), q)
    return out


def _jc_as_matrix(N: int) -> dict:
    """The constant tensor j_c as a matrix on pairs: a term y ⊗ z acts on
    v_i ⊗ v_j through row indices (row(y), row(z)) at column (col(y), col(z))."""
    return {
        ((y1, z1), (y2, z2), 0, 0): c for ((y1, y2), (z1, z2)), c in jc_closed_form(N).items()
    }


def semiclassical_closed_form(N: int, second_family: str) -> dict:
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
                add_term(out, ((1, i), (r, j), 1, i - j - r), sign)
    if second_family in ("statement", "positive"):
        for i in range(4, N + 1):
            for r in range(2, i - 1):
                sign = 1 if positive else (-1) ** (i - r)
                add_term(out, ((1, i), (r, 1), 0, i - r - 1), sign)
    elif second_family == "proof":
        for i in range(4, N + 1):
            for r in range(2, i):
                add_term(out, ((1, i), (r, 1), 0, i - r), (-1) ** (i - r))
    else:
        raise ValueError("unknown second_family %r" % second_family)
    return out


def semiclassical_from_asymptotics(basis: WhittakerBasis) -> dict:
    """First hbar-order recomputed from the hbar-constant linear and
    l-linear coefficient parts alone: a single transport step of the
    leading generator of each such part past the first slot."""
    p = basis.pyramid
    N = basis.N
    l_codes = p.l_codes()
    out: dict = {}
    for j in range(1, N + 1):
        for slots, x in basis.vector(j).by_slots().items():
            l = slots[0]
            if l == j:
                continue
            # a term (E_ai)·(l-monomial) lands in column i of the matrix
            for part in asymptotic_parts(x, p):
                for (mono, _d), c in part.terms.items():
                    a, i = gen_ij(N, mono[0][0])
                    add_term(out, ((a, l), (i, j), *_l_exponents(mono[1:], l_codes)), -c)
    return out


def compare_semiclassical(N: int, J: dict) -> dict:
    """Exact comparison of the computed limit against the candidate closed
    forms; mismatches are reported as data."""
    computed = semiclassical_limit(N, J)
    mine = _by_entry(computed)
    report: dict = {"N": N}
    report["constant_part_equals_jc"] = constant_part(computed) == _jc_as_matrix(N)
    degree = max((p + q for _, _, p, q in computed), default=0)
    report["max_x_degree"] = degree
    report["x_degree_bound_ok"] = degree <= max(N - 3, 0)
    matches = {}
    diffs = {}
    for variant in ("statement", "proof", "positive"):
        theirs = _by_entry(semiclassical_closed_form(N, second_family=variant))
        d = [
            {
                "row": list(key[0]),
                "col": list(key[1]),
                "computed": render_poly(mine.get(key, {})),
                "closed_form": render_poly(theirs.get(key, {})),
            }
            for key in sorted(mine.keys() | theirs.keys())
            if mine.get(key) != theirs.get(key)
        ]
        matches[variant] = not d
        diffs[variant] = d
    report["matches"] = matches
    # prefer reporting a printed convention when one fits
    report["matched_convention"] = next(
        (k for k in ("statement", "proof", "positive") if matches[k]), None
    )
    report["diffs"] = diffs
    report["computed"] = {
        "N": N,
        "entries": [
            {
                "row": list(row),
                "col": list(col),
                "poly": [
                    {"x21": p, "x11": q, "coeff": "%d/%d" % (c.numerator, c.denominator)}
                    for (p, q), c in poly.items()
                ],
            }
            for (row, col), poly in mine.items()
        ],
    }
    return report


def fuse_power_J(N: int, samples: int, seed: int) -> dict:
    """Associativity of fusion on canonical triples (t = 3 factors): the
    computational shadow of the module-category compatibility axiom.
    Each case records the seconds its triple took."""
    import random
    import time

    basis = canonical_basis(N)
    rng = random.Random(seed)
    triples = [(1, 2, 3)] if N >= 3 else []
    while len(triples) < samples:
        triples.append((rng.randint(1, N), rng.randint(1, N), rng.randint(1, N)))
    results = []
    ok = True
    for (a, b, c) in triples:
        start = time.monotonic()
        va, vb, vc = basis.vector(a), basis.vector(b), basis.vector(c)
        left = fuse(fuse(va, vb), vc)
        right = fuse(va, fuse(vb, vc))
        good = left == right
        ok = ok and good
        results.append(
            {
                "triple": [a, b, c],
                "associative": good,
                "seconds": round(time.monotonic() - start, 6),
            }
        )
    return {"N": N, "t": 3, "ok": ok, "cases": results}
