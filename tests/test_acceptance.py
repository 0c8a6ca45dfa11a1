"""Acceptance suite: one test per criterion, one printed line per criterion.

Every comparison is exact (tolerance zero); run with -s to see the lines.
Criterion 8 compares the semi-classical limit with the printed statement
in one sign convention.  The engine uses psi = Tr(e .) on plain E_ij,
which fixes the constant part to the printed all-plus j_c; the printed
dynamical signs are those of the modified generators
Etilde_ab = (-1)^(col b - col a) E_ab.  Conjugation by
t = diag((-1)^(col k - 1)) converts one reading into the other, so the
test applies t to the printed dynamical families before comparing.
"""

import time

import pytest

from walgebra.algebra import AlgebraElement
from walgebra.bk import t1_closed_form, t_element, truncated_t
from walgebra.checks import engine_health
from walgebra.geometry import verify_inverse
from walgebra.modules import ad_action, is_whittaker
from walgebra.pyramid import Pyramid
from walgebra.tensorj import (
    SemiclassicalJ,
    compare_semiclassical,
    compute_J,
    fuse_power_J,
    j_structure_report,
    semiclassical_closed_form,
    semiclassical_limit,
)
from walgebra.whittaker import (
    asymptotic_parts,
    build_basis,
    l_constant_part,
    linear_part_closed_form,
    t12_l_linear_closed_form,
    t22_l_linear_closed_form,
)


def _report(num, name, ok, detail=""):
    tail = (" -- " + detail) if detail else ""
    print("ACCEPTANCE %02d %-28s %s%s" % (num, name, "PASS" if ok else "FAIL", tail))
    return ok


def _coefficient_instances(N):
    """Every truncated T of the [22;1] and [12;1] families that the vector
    construction and the recursion checks consume."""
    p = Pyramid.subregular(N)
    out = []
    for k in range(0, N - 1):
        blocks = N - k
        if blocks < 2:
            continue
        for r in range(1, N):
            for fam in ((2, 2), (1, 2)):
                out.append(truncated_t(p, k, fam[0], fam[1], 1, r))
    return p, out


def test_criterion_01_whittaker_vectors():
    start = time.monotonic()
    failures = []
    for N in range(2, 7):
        basis = build_basis(N)
        p = basis.pyramid
        for lead in range(1, N + 1):
            for xi in p.m_basis():
                if not ad_action(xi, basis.vector(lead)).is_zero():
                    failures.append((N, lead, xi))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 600
    assert _report(
        1,
        "whittaker-vectors N=2..6",
        ok,
        "all vectors invariant in %.1fs" % elapsed if ok else str(failures[:3]),
    )


def test_criterion_02_generator_identities():
    bad = []
    for N in range(2, 7):
        p = Pyramid.subregular(N)
        o = p.default_order()
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                for x in range(0, p.n + 1):
                    if t_element(p, i, j, x, 1).value != t1_closed_form(p, i, j, x):
                        bad.append(("subreg", N, i, j, x))
        if t_element(p, 1, 1, 0, 1).value != AlgebraElement.generator(o, 1, 1) + AlgebraElement.scalar(
            o, -(N - 2)
        ).times_hbar():
            bad.append(("T11", N))
        if t_element(p, 2, 1, 1, 1).value != AlgebraElement.generator(o, 2, 1).scale(-1):
            bad.append(("T21", N))
    q = Pyramid((1, 3, 2, 1))
    for i in range(1, 4):
        for j in range(1, 4):
            for x in range(0, 4):
                if t_element(q, i, j, x, 1).value != t1_closed_form(q, i, j, x):
                    bad.append(("1321", i, j, x))
    assert _report(2, "generator-identities", not bad, str(bad[:3]) if bad else "r=1 oracle + fixtures")


def test_criterion_03_recursion_suite():
    from walgebra.checks import recursion_suite

    bad = []
    for N in (4, 5, 6):
        for rec in recursion_suite(N):
            if rec["status"] != "pass":
                bad.append((N, rec["name"]))
    assert _report(3, "truncation-recursion N=4..6", not bad, str(bad[:3]) if bad else "exact in the quotient")


def test_criterion_04_l_constant_divisibility():
    bad = []
    for N in range(2, 7):
        p, instances = _coefficient_instances(N)
        for t in instances:
            if not l_constant_part(t.value, p).divisible_by_hbar():
                bad.append((N, t.label()))
    assert _report(4, "l-constant divisibility", not bad, str(bad[:3]) if bad else "all coefficient T's")


def test_criterion_05_asymptotic_parts():
    lin_bad = []
    for N in range(3, 7):
        p = Pyramid.subregular(N)
        for r in range(1, N):
            for fam in ((2, 2), (1, 2)):
                t = t_element(p, fam[0], fam[1], 1, r)
                lin, _ = asymptotic_parts(t.value, p)
                if lin != linear_part_closed_form(p, fam[0], fam[1], 1, r):
                    lin_bad.append((N, fam, r))

    def resolve(closed_form, modes, fam):
        matching = set(modes)
        for N in range(3, 7):
            p = Pyramid.subregular(N)
            for k in range(0, N - 2):
                top = N - k - 1
                for rho in range(2, min(N, top + 1)):
                    t = truncated_t(p, k, fam[0], fam[1], 1, rho)
                    _, llin = asymptotic_parts(t.value, p)
                    matching = {
                        m for m in matching if llin == closed_form(p, rho, m)
                    }
        return matching

    t22_modes = resolve(t22_l_linear_closed_form, ("alternating", "constant"), (2, 2))
    t12_modes = resolve(
        t12_l_linear_closed_form,
        ("displayed", "shifted-alternating", "shifted-constant"),
        (1, 2),
    )
    ok = not lin_bad and len(t22_modes) == 1 and len(t12_modes) == 1
    detail = "linear exact; l-linear conventions: t22=%s t12=%s" % (
        sorted(t22_modes),
        sorted(t12_modes),
    )
    assert _report(5, "asymptotic closed forms", ok, detail if not lin_bad else str(lin_bad[:3]))
    # freeze the resolved conventions so drifts are loud
    assert t22_modes == {"constant"}
    assert t12_modes == {"shifted-constant"}


def test_criterion_06_wonderbolic_inversion():
    start = time.monotonic()
    bad = []
    for N in range(3, 9):
        rep = verify_inverse(N)
        if not rep["ok"] or not rep["checks"]["recursive_equals_closed_form"]:
            bad.append((N, rep["checks"]))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    assert _report(6, "wonderbolic inversion N=3..8", ok, "%.3fs" % elapsed if ok else str(bad[:2]))


def test_criterion_07_j_structure():
    bad = []
    for N in (3, 4, 5):
        rep = j_structure_report(compute_J(N))
        if not rep["ok"]:
            bad.append((N, rep["violations"][:2]))
    assert _report(7, "J structure N=3..5", not bad, str(bad[:2]) if bad else "unipotent, hbar-divisible, U(l)-valued")


def _remap(s, coeff):
    """A copy of s with each coefficient c of x21^p x11^q at (row, col)
    replaced by coeff(row, col, (p, q), c)."""
    out = SemiclassicalJ(s.N)
    for (row, col), poly in s.entries.items():
        for pq, c in poly.items():
            out.add(row, col, pq[0], pq[1], coeff(row, col, pq, c))
    return out


def _negated(s):
    return _remap(s, lambda row, col, pq, c: -c)


def _dynamical_part(s):
    """The terms of positive degree in (x21, x11)."""
    return _remap(s, lambda row, col, pq, c: c if pq != (0, 0) else 0)


def _column_twist(s):
    """Conjugation by t = diag(t_k), t_k = (-1)^(col(k) - 1), on the
    subregular pyramid.  It fixes m, p, l and the rho-shifts, sends psi to
    -psi, and multiplies the entry at ((a, l), (i, j)) by t_a t_l t_i t_j:
    the sign that turns E_ai ⊗ E_lj into Etilde_ai ⊗ Etilde_lj."""
    p = Pyramid.subregular(s.N)
    t = {k: (-1) ** (p.col(k) - 1) for k in range(1, s.N + 1)}
    return _remap(s, lambda row, col, pq, c: t[row[0]] * t[row[1]] * t[col[0]] * t[col[1]] * c)


def test_criterion_08_semiclassical_limit():
    start = time.monotonic()
    cmp3 = compare_semiclassical(3)
    n3_ok = cmp3["constant_part_equals_jc"] and cmp3["max_x_degree"] == 0
    results = {}
    for N in (4, 5):
        J = compute_J(N)
        cmp = compare_semiclassical(N, J)
        printed = semiclassical_closed_form(N, "statement")
        jc = printed.constant_part()
        results[N] = {
            "constant": cmp["constant_part_equals_jc"],
            "matched": cmp["matched_convention"],
            # the printed dynamical families, read on plain E_ij
            "twisted_match": _dynamical_part(semiclassical_limit(J))
            == _column_twist(_dynamical_part(printed)),
            # why the literal printed formula cannot hold in either convention
            "jc_flips": _column_twist(jc) == _negated(jc),
            "diff_vs_statement": cmp["diffs"]["statement"],
        }
    elapsed = time.monotonic() - start
    constant_ok = n3_ok and all(r["constant"] for r in results.values())
    printed_ok = all(r["twisted_match"] and r["jc_flips"] for r in results.values())
    ok = constant_ok and printed_ok and elapsed < 300
    detail = "N3==jc:%s; N4,N5 dynamical == t(printed): %s (literal N4:%s N5:%s; %.1fs)" % (
        n3_ok,
        printed_ok,
        results[4]["matched"],
        results[5]["matched"],
        elapsed,
    )
    assert _report(8, "semi-classical limit", ok, detail), (
        "constant parts equal j_c: %s; dynamical part vs the t-twisted statement: "
        "N=4 -> %s, N=5 -> %s; t maps j_c to -j_c: N=4 -> %s, N=5 -> %s; "
        "literal entry diffs vs statement at N=5: %s"
        % (
            constant_ok,
            results[4]["twisted_match"],
            results[5]["twisted_match"],
            results[4]["jc_flips"],
            results[5]["jc_flips"],
            results[5]["diff_vs_statement"],
        )
    )


def test_criterion_09_fusion_associativity():
    bad = []
    for N in (3, 4):
        rep = fuse_power_J(N, samples=10, seed=42)
        if not rep["ok"]:
            bad.append((N, [c for c in rep["cases"] if not c["associative"]]))
    assert _report(9, "fusion associativity N=3,4", not bad, str(bad[:1]) if bad else "10 triples each")


def test_criterion_10_engine_health():
    recs = engine_health(4, cases=1000, seed=2024)
    bad = [r for r in recs if r["status"] != "pass"]
    assert _report(
        10,
        "engine health 1000x4 at N=4",
        not bad,
        str(bad) if bad else "assoc, jacobi, hbar-div, order-change",
    )
