"""Verification pipelines: each returns a list of structured check records.

A record is {"name", "status" ("pass"/"fail"), "witness", "seconds"};
the CLI assembles them into reports, and the acceptance suite asserts on
them.  All pipelines are deterministic for fixed inputs (randomized
batteries draw from fixed seeds).

start_engine_health runs the engine battery in one forked worker, so
that selftest overlaps it with the suites on the subregular pyramid: the
battery builds its own lex and revlex orders and reads nothing they
build, and a process, unlike a thread, does not wait for the parent's
GIL.  Those suites share the pyramid's pair cache and canonical basis,
so they stay in the parent; one moves out only when a benchmark shows
it winning.
"""

from __future__ import annotations

import json
import os
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
    j_to_json,
    semiclassical_from_asymptotics,
    semiclassical_limit,
)
from .whittaker import build_basis, canonical_basis, canonicalize


def _record(name, ok, witness, seconds) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "witness": witness, "seconds": seconds}


def _run_checks(jobs):
    """jobs: list of (name, thunk) -> list of records, in job order."""
    results = []
    for name, thunk in jobs:
        start = time.monotonic()
        try:
            ok, witness = thunk()
        except Exception as exc:  # verification gates raise on failure
            ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
        results.append(_record(name, ok, witness, round(time.monotonic() - start, 6)))
    return results


def start_engine_health(N: int, cases: int):
    """Start engine_health(N, cases) in one forked worker; return join(),
    which reaps the worker and returns the battery's records.

    The worker sends the JSON of [True, records] or, if the battery
    raised, [False, the exception's text] down a pipe.  It leaves through
    os._exit on every path, so it never returns into its caller's frames
    (their finally blocks) and never flushes the stdio buffers it
    inherited.  join() raises RuntimeError with the worker's exception
    text, or when the worker exited without a result.  walg starts no
    threads, so the fork copies a consistent interpreter.  Where os.fork
    does not exist the battery runs here, inline.
    """
    if not hasattr(os, "fork"):
        records = engine_health(N, cases)
        return lambda: records
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                message = [True, engine_health(N, cases)]
            except Exception as exc:
                message = [False, str(exc)]
            with open(write_fd, "w", encoding="utf-8") as fh:
                json.dump(message, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)

    def join():
        try:
            with open(read_fd, encoding="utf-8") as fh:
                data = fh.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError("engine battery worker exited with status %d" % code)
        ok, value = json.loads(data)
        if not ok:
            raise RuntimeError(value)
        return value

    return join


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


def engine_health(N: int, cases: int) -> list:
    """Randomized PBW identities; check k draws its cases from seed 2024 + k."""
    order = GeneratorOrder.lex(N)
    rev = GeneratorOrder(
        N, [(i, j) for i in range(N, 0, -1) for j in range(N, 0, -1)], label="revlex"
    )

    def associativity(rng):
        a, b, c = (_random_element(order, rng) for _ in range(3))
        return (a * b) * c == a * (b * c)

    def jacobi(rng):
        a, b, c = (
            AlgebraElement.generator(order, rng.randint(1, N), rng.randint(1, N))
            for _ in range(3)
        )
        s = (
            a.commutator(b.commutator(c))
            + b.commutator(c.commutator(a))
            + c.commutator(a.commutator(b))
        )
        return s.is_zero()

    def hbar_divisibility(rng):
        a, b = _random_element(order, rng), _random_element(order, rng)
        return (a * b - b * a).divisible_by_hbar()

    def order_change(rng):
        a, b = _random_element(order, rng), _random_element(order, rng)
        return (a * b).change_order(rev) == a.change_order(rev) * b.change_order(rev)

    def seeded(k, case):
        def thunk():
            rng = random.Random(2024 + k)
            for n in range(cases):
                if not case(rng):
                    return False, "case %d" % n
            return True, "%d cases" % cases

        return thunk

    identities = [
        ("pbw-associativity", associativity),
        ("jacobi", jacobi),
        ("commutator-hbar-divisibility", hbar_divisibility),
        ("order-change-consistency", order_change),
    ]
    return _run_checks([(name, seeded(k, case)) for k, (name, case) in enumerate(identities)])


# ----------------------------------------------------------------------
# degree-one oracle and fixture identities
# ----------------------------------------------------------------------
def generator_identity_suite(N: int) -> list:
    p = Pyramid.subregular(N)
    order = p.default_order()

    def r1_closed_form():
        for q, where in ((p, ""), (Pyramid((1, 3, 2, 1)), "pyramid 1,3,2,1 ")):
            for i in range(1, q.n + 1):
                for j in range(1, q.n + 1):
                    for x in range(0, q.n + 1):
                        if t_element(q, i, j, x, 1) != t1_closed_form(q, i, j, x):
                            return False, where + "(i,j,x)=(%d,%d,%d)" % (i, j, x)
        return True, "all (i,j,x) on subreg:%d and 1,3,2,1" % N

    def fixture_t11():
        expected = AlgebraElement.generator(order, 1, 1) + AlgebraElement.scalar(
            order, -(N - 2)
        ).times_hbar()
        ok = t_element(p, 1, 1, 0, 1) == expected
        return ok, "T(1,1;0)^(1) == E11 - (N-2)hbar"

    def fixture_t21():
        ok = t_element(p, 2, 1, 1, 1) == AlgebraElement.generator(order, 2, 1).scale(-1)
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
                t1 = truncated_t(p, 1, i, 2, 1, r)
                t2 = truncated_t(p, 2, i, 2, 1, r)
                t2m = truncated_t(p, 2, i, 2, 1, r - 1)
                rhs = t2 + t2m * e_next + t2m.commutator(e_hop)
                lhs_q = _as_q(p, t1)
                rhs_q = _as_q(p, rhs)
                if lhs_q != rhs_q:
                    return False, render_module(lhs_q - rhs_q)
                return True, "exact in the quotient"

            jobs.append(("recursion-i%d-r%d" % (i, r), one))

            def lower(i=i, r=r):
                t1 = truncated_t(p, 1, i, 2, 1, r)
                t2m = truncated_t(p, 2, i, 2, 1, r - 1)
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
def whittaker_suite(N: int, canonical: bool) -> tuple[list, dict]:
    """Build the basis (canonicalizing when asked) and check every vector
    against every element of m_basis(), not only the Lie generators the
    canonicalize gate uses: one record per (vector, m-element) pair.
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
        # the [12;1] superscript of vtilde_1 (whittaker docstring)
        "conventions": {"v1_exponent": "N-i-2"},
        "vectors": {
            str(i): render_module(basis.vector(i)) for i in range(1, N + 1)
        },
    }
    return _run_checks(jobs), meta


# ----------------------------------------------------------------------
# omega / j_c and the tensor matrix
# ----------------------------------------------------------------------
def omega_suite(N: int) -> tuple[list, dict]:
    """One record per boolean fact of verify_inverse's report, in its order."""
    rep = verify_inverse(N)
    jobs = [
        (name, lambda fact=fact: (fact, fact))
        for name, fact in rep["checks"].items()
        if isinstance(fact, bool)
    ]
    return _run_checks(jobs), rep


# j_structure_report's facts, "_" spelt "-"; compute-J exits 1 if one fails
J_STRUCTURE_CHECKS = (
    "support-upper-triangular",
    "entries-divisible-by-hbar",
    "entries-in-l",
    "unipotent-diagonal",
)


def j_suite(N: int, compare: bool) -> tuple[list, dict]:
    basis = canonical_basis(N)
    J = compute_J(basis)
    struct = j_structure_report(N, J)
    jobs = [
        (name, lambda key=name.replace("-", "_"): (struct[key], None))
        for name in J_STRUCTURE_CHECKS
    ]
    meta = {"N": N, "structure": struct, "J": j_to_json(N, J)}
    if compare:
        cmp = compare_semiclassical(N, J)
        meta["semiclassical"] = cmp

        def const_check():
            return cmp["constant_part_equals_jc"], None

        def asym_check():
            same = semiclassical_from_asymptotics(basis) == semiclassical_limit(N, J)
            return same, None

        jobs.append(("constant-part-equals-jc", const_check))
        jobs.append(("asymptotic-recomputation-agrees", asym_check))
    return _run_checks(jobs), meta


def fusion_suite(N: int) -> list:
    """Associativity of fusion on 4 canonical triples (fuse_power_J, seed 0),
    each record timed by its own triple."""
    rep = fuse_power_J(N, samples=4, seed=0)
    return [
        _record(
            "fuse-assoc-%s" % "".join(map(str, case["triple"])),
            case["associative"],
            case["triple"],
            case["seconds"],
        )
        for case in rep["cases"]
    ]
