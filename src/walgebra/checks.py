"""Verification pipelines: each returns a list of structured check records.

A record is {"name", "status" ("pass"/"fail"), "witness", "seconds"};
the CLI assembles them into reports, and the acceptance suite asserts on
them.  All pipelines are deterministic for fixed inputs (randomized
batteries take an explicit seed).
"""

from __future__ import annotations

import random
import time

from .algebra import AlgebraElement, GeneratorOrder, _word_to_mono, add_term
from .bk import t1_closed_form, t_element, truncated_t
from .geometry import verify_inverse
from .modules import (
    ModuleElement,
    ad_action,
    reduce_mod_b_left,
    reduce_mod_m_psi,
)
from .pyramid import Pyramid
from .render import render_module
from .tensorj import (
    compare_semiclassical,
    compute_J,
    fuse_power_J,
    j_structure_report,
    semiclassical_from_asymptotics,
    semiclassical_limit,
)
from .whittaker import build_basis, canonicalize


def _run_checks(jobs):
    """jobs: list of (name, thunk) -> list of records, in job order."""
    results = []
    for name, thunk in jobs:
        start = time.monotonic()
        try:
            ok, witness = thunk()
        except Exception as exc:  # verification gates raise on failure
            ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
        results.append(
            {
                "name": name,
                "status": "pass" if ok else "fail",
                "witness": witness,
                "seconds": round(time.monotonic() - start, 6),
            }
        )
    return results


# ----------------------------------------------------------------------
# engine health battery
# ----------------------------------------------------------------------
def _random_element(order: GeneratorOrder, rng: random.Random) -> AlgebraElement:
    N = order.N
    terms = {}
    for _ in range(rng.randint(1, 2)):
        length = rng.randint(0, 2)
        word = sorted(
            (rng.randrange(N * N) for _ in range(length)), key=lambda g: order.ranks[g]
        )
        mono = _word_to_mono(word)
        c0, c1 = rng.randint(-3, 3), rng.randint(-1, 1)
        if not (c0 or c1):
            c0 = 1
        add_term(terms, (mono, 0), c0)
        add_term(terms, (mono, 1), c1)
    return AlgebraElement(order, terms)


def engine_health(N: int = 4, cases: int = 1000, seed: int = 2024) -> list:
    order = GeneratorOrder.lex(N)
    rev = GeneratorOrder(
        N, [(i, j) for i in range(N, 0, -1) for j in range(N, 0, -1)], label="revlex"
    )

    def associativity():
        rng = random.Random(seed)
        for k in range(cases):
            a, b, c = (_random_element(order, rng) for _ in range(3))
            if (a * b) * c != a * (b * c):
                return False, "case %d" % k
        return True, "%d cases" % cases

    def jacobi():
        rng = random.Random(seed + 1)
        for k in range(cases):
            gens = [
                AlgebraElement.generator(order, rng.randint(1, N), rng.randint(1, N))
                for _ in range(3)
            ]
            a, b, c = gens
            s = (
                a.commutator(b.commutator(c))
                + b.commutator(c.commutator(a))
                + c.commutator(a.commutator(b))
            )
            if not s.is_zero():
                return False, "case %d" % k
        return True, "%d cases" % cases

    def hbar_divisibility():
        rng = random.Random(seed + 2)
        for k in range(cases):
            a, b = _random_element(order, rng), _random_element(order, rng)
            if not (a * b - b * a).divisible_by_hbar():
                return False, "case %d" % k
        return True, "%d cases" % cases

    def order_change():
        rng = random.Random(seed + 3)
        for k in range(cases):
            a, b = _random_element(order, rng), _random_element(order, rng)
            lhs = (a * b).change_order(rev)
            rhs = a.change_order(rev) * b.change_order(rev)
            if lhs != rhs:
                return False, "case %d" % k
        return True, "%d cases" % cases

    return _run_checks(
        [
            ("pbw-associativity", associativity),
            ("jacobi", jacobi),
            ("commutator-hbar-divisibility", hbar_divisibility),
            ("order-change-consistency", order_change),
        ]
    )


# ----------------------------------------------------------------------
# degree-one oracle and fixture identities
# ----------------------------------------------------------------------
def generator_identity_suite(N: int) -> list:
    p = Pyramid.subregular(N)
    order = p.default_order()

    def r1_closed_form():
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                for x in range(0, p.n + 1):
                    if t_element(p, i, j, x, 1).value != t1_closed_form(p, i, j, x):
                        return False, "(i,j,x)=(%d,%d,%d)" % (i, j, x)
        q = Pyramid((1, 3, 2, 1))
        for i in range(1, q.n + 1):
            for j in range(1, q.n + 1):
                for x in range(0, q.n + 1):
                    if t_element(q, i, j, x, 1).value != t1_closed_form(q, i, j, x):
                        return False, "pyramid 1,3,2,1 (i,j,x)=(%d,%d,%d)" % (i, j, x)
        return True, "all (i,j,x) on subreg:%d and 1,3,2,1" % N

    def fixture_t11():
        expected = AlgebraElement.generator(order, 1, 1) + AlgebraElement.scalar(
            order, -(N - 2)
        ).times_hbar()
        ok = t_element(p, 1, 1, 0, 1).value == expected
        return ok, "T(1,1;0)^(1) == E11 - (N-2)hbar"

    def fixture_t21():
        ok = t_element(p, 2, 1, 1, 1).value == AlgebraElement.generator(order, 2, 1).scale(-1)
        return ok, "T(2,1;1)^(1) == -E21"

    return _run_checks(
        [
            ("degree-one-closed-form", r1_closed_form),
            ("fixture-T11", fixture_t11),
            ("fixture-T21", fixture_t21),
        ]
    )


# ----------------------------------------------------------------------
# the truncation recursion and the lowering identity, in the quotient
# ----------------------------------------------------------------------
def _as_q(p: Pyramid, el: AlgebraElement) -> ModuleElement:
    return reduce_mod_m_psi(ModuleElement.embed(el, p, ()))


def recursion_suite(N: int) -> list:
    """For i = 1,2 and r <= N-1, in the quotient:
    [k=1]T^(r)_[i2;1] = [k=2]T^(r) + [k=2]T^(r-1)·Etilde_{N-1,N-1}
                        + [[k=2]T^(r-1), Etilde_{N-2,N-1}],
    and the lowering identity ad(E_{N,N-1}) [k=1]T^(r) = [k=2]T^(r-1)."""
    if N < 4:
        raise ValueError("the recursion needs N >= 4")
    p = Pyramid.subregular(N)
    e_next = p.modified_gen(N - 1, N - 1)
    e_hop = p.modified_gen(N - 2, N - 1)
    jobs = []
    for i in (1, 2):
        for r in range(1, N):
            def one(i=i, r=r):
                t1 = truncated_t(p, 1, i, 2, 1, r).value
                t2 = truncated_t(p, 2, i, 2, 1, r).value
                t2m = truncated_t(p, 2, i, 2, 1, r - 1).value
                rhs = t2 + t2m * e_next + t2m.commutator(e_hop)
                lhs_q = _as_q(p, t1)
                rhs_q = _as_q(p, rhs)
                if lhs_q != rhs_q:
                    return False, render_module(lhs_q - rhs_q)
                return True, "exact in the quotient"

            jobs.append(("recursion-i%d-r%d" % (i, r), one))

            def lower(i=i, r=r):
                t1 = truncated_t(p, 1, i, 2, 1, r).value
                t2m = truncated_t(p, 2, i, 2, 1, r - 1).value
                lhs = ad_action((N, N - 1), _as_q(p, t1))
                rhs = _as_q(p, t2m)
                if lhs != rhs:
                    return False, render_module(lhs - rhs)
                return True, "exact in the quotient"

            jobs.append(("lowering-i%d-r%d" % (i, r), lower))
    return _run_checks(jobs)


# ----------------------------------------------------------------------
# Whittaker vector verification
# ----------------------------------------------------------------------
def whittaker_suite(N: int, canonical: bool = False) -> tuple[list, dict]:
    """Build the basis (canonicalizing when asked) and check every vector
    against every element of m_basis(), not only the Lie generators the
    build gates use: one record per (vector, m-element) pair.
    Returns (records, metadata)."""
    basis = build_basis(N)
    if canonical:
        basis = canonicalize(basis)
    p = basis.pyramid
    m_basis = p.m_basis()
    prefix = "canonical-v%d" if canonical else "tilde-v%d"
    jobs = []
    for lead in range(N, 0, -1):
        vec = basis.vector(lead)
        for xi in m_basis:

            def one(vec=vec, lead=lead, xi=xi):
                res = ad_action(xi, vec)
                if not res.is_zero():
                    return False, "residue %s" % render_module(res)
                return True, None

            jobs.append(((prefix % lead) + "-adE%d%d" % xi, one))
        if canonical:

            def breduce(vec=vec, lead=lead):
                ok = reduce_mod_b_left(vec) == ModuleElement.basis_vector(p, lead)
                return ok, "b-reduction is the leading term"

            jobs.append(((prefix % lead) + "-b-reduction", breduce))
    meta = {
        "N": N,
        "canonical": canonical,
        "conventions": dict(basis.conventions),
        "vectors": {
            str(i): render_module(basis.vector(i)) for i in range(1, N + 1)
        },
    }
    return _run_checks(jobs), meta


# ----------------------------------------------------------------------
# omega / j_c and the tensor matrix
# ----------------------------------------------------------------------
def omega_suite(N: int) -> tuple[list, dict]:
    rep = verify_inverse(N)

    def flag(key):
        def thunk():
            return bool(rep["checks"][key]), rep["checks"][key]

        return thunk

    names = [
        "isotropic_b",
        "isotropic_m",
        "nondegenerate",
        "recursive_equals_closed_form",
        "antisymmetric",
        "inverse_on_w",
        "e_outside_w",
    ]
    return _run_checks([(n, flag(n)) for n in names]), rep


def j_suite(N: int, compare: bool = True) -> tuple[list, dict]:
    J = compute_J(N)
    struct = j_structure_report(J)
    jobs = [
        ("support-upper-triangular", lambda: (struct["support_upper_triangular"], None)),
        ("entries-divisible-by-hbar", lambda: (struct["entries_divisible_by_hbar"], None)),
        ("entries-in-l", lambda: (struct["entries_in_l"], None)),
        ("unipotent-diagonal", lambda: (struct["unipotent_diagonal"], None)),
    ]
    meta = {"N": N, "structure": struct, "J": J.to_json()}
    if compare:
        cmp = compare_semiclassical(N, J)
        meta["semiclassical"] = cmp

        def const_check():
            return cmp["constant_part_equals_jc"], None

        def asym_check():
            same = semiclassical_from_asymptotics(N, J.basis) == semiclassical_limit(J)
            return same, None

        jobs.append(("constant-part-equals-jc", const_check))
        jobs.append(("asymptotic-recomputation-agrees", asym_check))
    return _run_checks(jobs), meta


def fusion_suite(N: int, samples: int = 10, seed: int = 0) -> tuple[list, dict]:
    rep = fuse_power_J(N, samples=samples, seed=seed)

    def one(case):
        return lambda: (case["associative"], case["triple"])

    jobs = [
        ("fuse-assoc-%s" % "".join(map(str, case["triple"])), one(case))
        for case in rep["cases"]
    ]
    return _run_checks(jobs), rep
