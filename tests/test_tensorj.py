import hashlib
import json
from fractions import Fraction

import pytest

from walgebra.algebra import AlgebraElement, add_term
from walgebra.hbar import HbarPoly
from walgebra.modules import (
    ModuleElement,
    fuse,
    is_whittaker,
    reduce_mod_b_left,
    right_act,
)
from walgebra.pyramid import Pyramid
from walgebra.tensorj import (
    TensorJError,
    _by_entry,
    compare_semiclassical,
    compute_J,
    constant_part,
    fuse_power_J,
    j_structure_report,
    j_to_json,
    render_poly,
    semiclassical_closed_form,
    semiclassical_from_asymptotics,
    semiclassical_limit,
)
from walgebra import whittaker
from walgebra.whittaker import (
    _ELIMINATION_PASS_BOUND,
    WhittakerBasis,
    WhittakerError,
    build_basis,
    canonical_basis,
    eliminate_l_constant,
    in_l,
)

from fusion_triples import draw_triples, non_associative
from hbar_terms import from_terms
from twist import column_twist, dynamical_part, negated


def _unit(p, i, j):
    """The unit pair 1 ⊗ v_i ⊗ v_j."""
    return ModuleElement(p, 2, {((), (i, j), 0): 1})


def _canonical_pair_generators(N, basis):
    """Oracle: the Gaussian construction on full representatives.

    Returns (entries, pair generators): the entries of J - id and the full
    canonical pair generators g_ij = 1 ⊗ v_i ⊗ v_j + (terms in b·U at
    other slots), which reduce to the unit pairs compute_J eliminates with."""
    p = basis.pyramid
    one = AlgebraElement.scalar(p.default_order(), 1)
    l_only = in_l(p)
    pair_gens = {}
    entries = {}
    for j in range(N, 0, -1):
        for i in range(N, 0, -1):
            F = fuse(basis.vector(i), basis.vector(j))
            acc = {}
            for _ in range(_ELIMINATION_PASS_BOUND):
                obstructions = [
                    (slots, c)
                    for slots, c in F.keep(l_only).by_slots().items()
                    if slots != (i, j)
                ]
                if not obstructions:
                    break
                for (a, l), c in obstructions:
                    assert l > j, ("not upper-triangular", (a, l), (i, j))
                    F = F - right_act(pair_gens[(a, l)], c)
                    add_term(acc, (a, l), c)
            else:
                raise AssertionError("Gaussian pass bound exceeded at pair %r" % ((i, j),))
            coeffs = F.by_slots()
            assert coeffs.get((i, j)) == one, ("unit leading term lost", (i, j))
            for slots, x in coeffs.items():
                if slots != (i, j):
                    in_b_u = all(mono and mono[0][0] in p.b_codes() for mono in x.monomials())
                    assert in_b_u, ("residual not in b·U", slots, (i, j))
            pair_gens[(i, j)] = F
            for key, c in acc.items():
                entries[(key, (i, j))] = c
    return entries, pair_gens


class _Bases(dict):
    """N -> canonical_basis(N), built on first use."""

    def __missing__(self, N):
        basis = self[N] = canonical_basis(N)
        return basis


@pytest.fixture(scope="module")
def bases():
    return _Bases()


@pytest.fixture(scope="module")
def J3(bases):
    return compute_J(bases[3])


@pytest.fixture(scope="module")
def J4(bases):
    return compute_J(bases[4])


@pytest.fixture(scope="module")
def J5(bases):
    return compute_J(bases[5])


@pytest.fixture(scope="module")
def J6(bases):
    return compute_J(bases[6])


@pytest.fixture(scope="module")
def J7(bases):
    return compute_J(bases[7])


@pytest.fixture(scope="module")
def J8(bases):
    return compute_J(bases[8])


@pytest.fixture(scope="module")
def J9(bases):
    return compute_J(bases[9])


@pytest.fixture(scope="module")
def J10(bases):
    return compute_J(bases[10])


@pytest.fixture(scope="module")
def oracle(bases):
    """{N: (entries, full pair generators)} of the oracle, on the bases of
    the J fixtures."""
    return {N: _canonical_pair_generators(N, bases[N]) for N in (3, 4, 5, 6)}


def test_j3_hand_values(J3):
    # exactly two off-identity entries, both equal to hbar
    o = Pyramid.subregular(3).default_order()
    hbar = AlgebraElement.scalar(o, 1).times_hbar()
    assert J3 == {
        ((1, 3), (2, 1)): hbar,
        ((2, 3), (2, 2)): hbar,
    }


def test_j_structure(J3, J4):
    for N, J in ((3, J3), (4, J4)):
        rep = j_structure_report(N, J)
        assert rep["ok"], rep["violations"]


def test_pair_generators_are_whittaker(oracle):
    for N in (3, 4):
        for (i, j), vec in oracle[N][1].items():
            ok, xi, _ = is_whittaker(vec)
            assert ok, ((i, j), xi)


def test_oracle_entries_equal_quotient_entries(J3, J4, J5, J6, oracle):
    for N, J in ((3, J3), (4, J4), (5, J5), (6, J6)):
        assert oracle[N][0] == J


def test_oracle_pair_generators_reduce_to_unit_pairs(oracle):
    # pi(g_ij) = 1 ⊗ v_i ⊗ v_j, the unit pair compute_J eliminates with
    for N in (3, 4, 5, 6):
        p = Pyramid.subregular(N)
        gens = oracle[N][1]
        assert set(gens) == {(i, j) for i in range(1, N + 1) for j in range(1, N + 1)}
        for (i, j), g in gens.items():
            assert reduce_mod_b_left(g) == _unit(p, i, j), (N, (i, j))


def test_compute_j_needs_the_canonical_basis():
    with pytest.raises(TensorJError, match="canonical basis: v_2 "):
        compute_J(build_basis(3))


@pytest.mark.parametrize(
    "gen, slot",
    [((1, 2), 1), ((1, 2), 2), ((2, 1), 3), ((1, 4), 3)],
    ids=["b-below", "b-at", "l-above", "last-column-above"],
)
def test_compute_j_rejects_a_doctored_basis_up_front(bases, gen, slot):
    # one stray term on v_2 of the N = 4 canonical basis: a b-letter below
    # or at the leading slot, an l-letter or a last-column letter above it;
    # compute_J names the vector before any fusion or elimination
    basis = bases[4]
    p = basis.pyramid
    stray = ModuleElement.embed(AlgebraElement.generator(p.default_order(), *gen), p, (slot,))
    vectors = {**basis.vectors, 2: basis.vector(2) + stray}
    with pytest.raises(TensorJError, match="needs the canonical basis: v_2 "):
        compute_J(WhittakerBasis(p, vectors))


def _pair_21_before_elimination(basis):
    # J(3) has the entry at ((1, 3), (2, 1)), so the pair (2, 1) starts
    # with an l-constant part at slots (1, 3)
    return reduce_mod_b_left(fuse(reduce_mod_b_left(basis.vector(2)), basis.vector(1)))


def test_elimination_raises_on_part_without_generator(bases):
    with pytest.raises(WhittakerError, match="no generator"):
        eliminate_l_constant(_pair_21_before_elimination(bases[3]), (2, 1), {})


def test_elimination_raises_past_pass_bound(bases, monkeypatch):
    p = bases[3].pyramid
    F = _pair_21_before_elimination(bases[3])
    higher = {(a, l): _unit(p, a, l) for a in (1, 2, 3) for l in (2, 3)}
    done, subtracted = eliminate_l_constant(F, (2, 1), higher)
    assert done == _unit(p, 2, 1) and subtracted
    monkeypatch.setattr(whittaker, "_ELIMINATION_PASS_BOUND", 0)
    with pytest.raises(WhittakerError, match="did not stabilize"):
        eliminate_l_constant(F, (2, 1), higher)


def test_fuse_with_plain_top_vector_is_slot_append():
    # a right factor with trivial U-part transports trivially
    for N in (3, 4):
        basis = canonical_basis(N)
        p = basis.pyramid
        vN = ModuleElement.basis_vector(p, N)
        for i in (1, N - 1):
            vec = basis.vector(i)
            out = fuse(vec, vN)
            expected = ModuleElement(
                p,
                2,
                {(m, s + (N,), d): c for (m, s, d), c in vec.terms.items()},
            )
            assert out == expected


def test_fusions_are_whittaker():
    # invariance survives fusion before any Gaussian correction
    for N in (3, 4, 5):
        basis = canonical_basis(N)
        p = basis.pyramid
        for i in (1, 2, N):
            for j in (1, N - 1):
                out = fuse(basis.vector(i), basis.vector(j))
                ok, xi, _ = is_whittaker(out)
                assert ok, (N, i, j, xi)


def test_semiclassical_n3_is_jc(J3):
    limit = semiclassical_limit(3, J3)
    assert limit == semiclassical_closed_form(3, "statement")
    # the dynamical ranges are empty at N=3, so all variants coincide
    assert limit == semiclassical_closed_form(3, "proof")
    assert constant_part(limit) == limit


def test_semiclassical_n4_matches_statement(J4):
    limit = semiclassical_limit(4, J4)
    assert limit == semiclassical_closed_form(4, "statement")
    assert limit != semiclassical_closed_form(4, "proof")
    assert all(x21 + x11 <= 1 for _, _, x21, x11 in limit)
    entries = _by_entry(limit)
    # the x11-dynamical entry at first leg E_12, second leg E_41
    assert entries[((1, 4), (2, 1))] == {(0, 1): 1}
    # and the x21 entry at first leg E_12, second leg E_42
    assert entries[((1, 4), (2, 2))] == {(1, 0): 1}


def test_compare_report_n4(J4):
    rep = compare_semiclassical(4, J4)
    assert rep["constant_part_equals_jc"]
    assert rep["matches"]["statement"] and not rep["matches"]["proof"]
    assert rep["matched_convention"] == "statement"
    assert rep["x_degree_bound_ok"]


def test_compare_report_n5(bases, J5):
    # at N=5 the computed dynamical part is uniformly positive; both printed
    # sign patterns fail literally, and the diff is confined to odd-exponent
    # entries (the column twist accounts for it, see the twist tests below)
    rep = compare_semiclassical(5, J5)
    assert rep["constant_part_equals_jc"]
    assert not rep["matches"]["statement"] and not rep["matches"]["proof"]
    assert rep["matches"]["positive"]
    assert rep["matched_convention"] == "positive"
    rows = {(tuple(d["row"]), tuple(d["col"])) for d in rep["diffs"]["statement"]}
    assert rows == {((1, 5), (2, 1)), ((1, 5), (2, 2))}
    assert semiclassical_from_asymptotics(bases[5]) == semiclassical_limit(5, J5)
    assert j_structure_report(5, J5)["ok"]


def test_column_twist_relates_closed_form_conventions():
    # conjugation by t = diag((-1)^(col k - 1)) sends psi to -psi: it negates
    # j_c and exchanges the printed dynamical families with the 'positive' ones
    for N in range(3, 10):
        statement = semiclassical_closed_form(N, "statement")
        positive = semiclassical_closed_form(N, "positive")
        jc = constant_part(statement)
        assert constant_part(positive) == jc
        assert column_twist(N, jc) == negated(jc)
        assert column_twist(N, dynamical_part(positive)) == dynamical_part(statement)
        assert column_twist(N, dynamical_part(statement)) == dynamical_part(positive)


def test_semiclassical_n6_is_jc_plus_twisted_statement(bases, J6):
    limit = semiclassical_limit(6, J6)
    printed = semiclassical_closed_form(6, "statement")
    assert constant_part(limit) == constant_part(printed)
    assert dynamical_part(limit) == column_twist(6, dynamical_part(printed))
    assert limit != printed
    assert limit == semiclassical_from_asymptotics(bases[6])


def test_semiclassical_n7_n8_is_jc_plus_positive(bases, J7, J8):
    # criterion-8 evidence beyond the criterion's own N range
    for N, J in ((7, J7), (8, J8)):
        limit = semiclassical_limit(N, J)
        assert constant_part(limit) == constant_part(semiclassical_closed_form(N, "statement"))
        assert limit == semiclassical_from_asymptotics(bases[N])
        assert limit == semiclassical_closed_form(N, "positive")


def test_semiclassical_n9_is_jc_plus_positive(bases, J9):
    limit = semiclassical_limit(9, J9)
    assert constant_part(limit) == constant_part(semiclassical_closed_form(9, "statement"))
    assert limit == semiclassical_closed_form(9, "positive")
    assert limit == semiclassical_from_asymptotics(bases[9])


def test_semiclassical_n10_is_jc_plus_twisted_statement(bases, J10):
    limit = semiclassical_limit(10, J10)
    printed = semiclassical_closed_form(10, "statement")
    assert constant_part(limit) == constant_part(printed)
    assert dynamical_part(limit) == column_twist(10, dynamical_part(printed))
    assert limit == semiclassical_from_asymptotics(bases[10])


def test_asymptotic_recomputation_agrees(bases, J3, J4):
    for N, J in ((3, J3), (4, J4)):
        assert semiclassical_from_asymptotics(bases[N]) == semiclassical_limit(N, J)


@pytest.mark.parametrize(
    "doctored, message",
    [
        # hbar·E_12: divisible by hbar, but its monomial leaves U(l)
        (lambda o: AlgebraElement.generator(o, 1, 2).times_hbar(), r"leaves U\(l\)"),
        # the unit: in U(l), but not divisible by hbar
        (lambda o: AlgebraElement.scalar(o, 1), "not divisible by hbar"),
    ],
    ids=["outside-U(l)", "not-hbar-divisible"],
)
def test_semiclassical_limit_rejects_doctored_entry(J3, doctored, message):
    J = dict(J3)
    J[min(J)] = doctored(Pyramid.subregular(3).default_order())
    with pytest.raises(TensorJError, match=message):
        semiclassical_limit(3, J)


def test_j_structure_report_lists_each_violation(J3):
    # one record per failed fact, entries in sorted order and, within an
    # entry, the facts in the order support, hbar, not-in-l
    o = Pyramid.subregular(3).default_order()
    J = dict(J3)
    # in U(l) but not divisible by hbar, below the diagonal
    J[((2, 1), (2, 2))] = AlgebraElement.scalar(o, 1)
    # neither divisible by hbar nor in U(l)
    J[((1, 3), (2, 1))] = AlgebraElement.generator(o, 1, 2)
    rep = j_structure_report(3, J)
    assert rep["violations"] == [
        {"row": [1, 3], "col": [2, 1], "why": "hbar"},
        {"row": [1, 3], "col": [2, 1], "why": "not-in-l"},
        {"row": [2, 1], "col": [2, 2], "why": "support"},
        {"row": [2, 1], "col": [2, 2], "why": "hbar"},
    ]
    assert not rep["support_upper_triangular"]
    assert not rep["entries_divisible_by_hbar"]
    assert not rep["entries_in_l"]
    assert rep["unipotent_diagonal"] and not rep["ok"]
    # hbar·E_12 fails the U(l) fact alone
    J = dict(J3)
    J[((1, 3), (2, 1))] = AlgebraElement.generator(o, 1, 2).times_hbar()
    rep = j_structure_report(3, J)
    assert rep["violations"] == [{"row": [1, 3], "col": [2, 1], "why": "not-in-l"}]
    assert rep["support_upper_triangular"] and rep["entries_divisible_by_hbar"]
    assert not rep["entries_in_l"] and not rep["ok"]


def test_j_structure_report_reads_the_diagonal_off_j(J3):
    # J's diagonal is the identity exactly when J has no entry with
    # row == col; such an entry is also off the upper-triangular support
    o = Pyramid.subregular(3).default_order()
    J = dict(J3)
    J[((2, 2), (2, 2))] = AlgebraElement.scalar(o, 1).times_hbar()
    rep = j_structure_report(3, J)
    assert not rep["unipotent_diagonal"] and not rep["ok"]
    assert rep["violations"] == [{"row": [2, 2], "col": [2, 2], "why": "support"}]
    assert j_structure_report(3, J3)["unipotent_diagonal"]


def test_fuse_associativity():
    cases = fuse_power_J(4)
    assert [tuple(c["triple"]) for c in cases] == draw_triples(4, 4, 0)
    assert all(c["associative"] for c in cases)
    assert non_associative(3, draw_triples(3, 4, 1)) == []
    triples = draw_triples(4, 10, 2)
    assert len(triples) == 10
    assert non_associative(4, triples) == []


def test_semiclassical_poly_render():
    assert render_poly({(1, 2): 1, (0, 0): -2}) == "-2 + x21·x11^2"
    assert render_poly({(2, 0): -1, (0, 0): 2}) == "2 - x21^2"
    assert render_poly({(0, 1): 3}) == "3·x11"
    assert render_poly({}) == "0"
    # every branch of the term rule: a bare -1, a rational coefficient, a
    # -1 written as a sign, a coefficient 1 left out, a leading negative
    mixed = {(1, 0): -1, (0, 1): Fraction(1, 2), (0, 0): -1, (2, 1): 1}
    assert render_poly(mixed) == "-1 + 1/2·x11 - x21 + x21^2·x11"
    assert render_poly({(1, 0): -1}) == "-x21"
    assert render_poly({(0, 0): -1}) == "-1"
    assert render_poly({(2, 1): 1, (0, 1): Fraction(-1, 2)}) == "-1/2·x11 + x21^2·x11"


def test_n5_printed_signs_refuted_by_gaussian_residual(bases, J5):
    # third independent route to the N=5 sign finding: correcting the raw
    # fusion of v_2 with itself by the *printed* (statement-signed) first
    # order leaves an l-constant obstruction at first order, while the
    # computed first order clears it
    from walgebra.whittaker import l_constant_part

    basis = bases[5]
    p, o = basis.pyramid, basis.pyramid.default_order()
    e21, e11 = p.l_codes()
    F0 = fuse(basis.vector(2), basis.vector(2))

    def poly_to_element(poly):
        terms = {}
        for (p21, p11), q in poly.items():
            mono = []
            if p21:
                mono.append((e21, p21))
            if p11:
                mono.append((e11, p11))
            terms[tuple(mono)] = HbarPoly((0, q))
        return from_terms(o, terms)

    def residual_first_order(semi):
        out = F0
        for ((a, l), col), poly in _by_entry(semi).items():
            if col != (2, 2):
                continue
            c = poly_to_element(poly)
            if not c.is_zero():
                out = out - right_act(_unit(p, a, l), c)
        remaining = {}
        for slots, u in out.by_slots().items():
            if slots == (2, 2):
                continue
            c = l_constant_part(u, p)
            assert c.divisible_by_hbar(), slots
            # the first hbar-order of c, read off its degree-one terms
            c1 = AlgebraElement(o, {(m, 0): q for (m, d), q in c.terms.items() if d == 1})
            if not c1.is_zero():
                remaining[slots] = c1
        return remaining

    computed = semiclassical_limit(5, J5)
    assert residual_first_order(computed) == {}
    printed = semiclassical_closed_form(5, "statement")
    leftover = residual_first_order(printed)
    # exactly the sign-flipped entry, at twice the computed value
    assert set(leftover) == {(1, 5)}


def test_jmatrix_json_deterministic(J3):
    a = json.dumps(j_to_json(3, J3), sort_keys=True)
    b = json.dumps(j_to_json(3, compute_J(canonical_basis(3))), sort_keys=True)
    assert a == b


def _digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_j5_golden_digests(J5, oracle):
    # recorded at commit 2dd3fda, when every coefficient was a Fraction
    assert _digest(j_to_json(5, J5)) == (
        "d6f7e64d989220ffb2789d26dc0abd30fa657601ad762efb6bf7a648d3c578a1"
    )
    pairs = {"%d,%d" % k: v.to_json() for k, v in sorted(oracle[5][1].items())}
    assert _digest(pairs) == (
        "af2554248a31925f3aa6611e8b9893985432da0b90a14766cbfa280e350615c8"
    )


def test_j6_golden_digests(J6, oracle):
    # recorded at commit 66d3734, before module terms were keyed by hbar-degree
    assert _digest(j_to_json(6, J6)) == (
        "b2ee239f019badf1491ea095e3d71160d946014b2bfd7806ae47d9d3421a279e"
    )
    pairs = {"%d,%d" % k: v.to_json() for k, v in sorted(oracle[6][1].items())}
    assert _digest(pairs) == (
        "fd64b00458f237583a9e64ddaa43583d5bf9860190921864be78d07cd119904e"
    )


def test_j7_j8_golden_digests(J7, J8):
    # confirmed at commit 97ceb49 on full pair generators, before J was
    # computed in the left b-quotient
    assert _digest(j_to_json(7, J7)) == (
        "5dd1d359d413e0f74c664f3a446759eb980060ec2889022638bea39aa756361a"
    )
    assert _digest(j_to_json(8, J8)) == (
        "e92cade8cbeafc8e9dacd8293fba862e638b8cceba864ad36a2dcbf563d892a8"
    )


def test_j9_golden_digest(J9):
    # recorded at commit 2b9a342, with the basis gates checking all of m
    assert _digest(j_to_json(9, J9)) == (
        "266e4c70f9b0c1a018b08d2c519975e8655abf8f74c625e7a8583cc824858dd8"
    )


def test_j10_golden_digest(J10):
    # recorded at commit d0a1ba4, before the T-elements and j_c were
    # returned as plain values
    assert _digest(j_to_json(10, J10)) == (
        "c9d4be5cbf33a1791ebeb8ecc5413d044435eaaf85423aa7a697ace31efaf626"
    )


def test_j5_coefficients_are_ints(J5, oracle):
    # nothing in the construction of J divides
    pair_gens = oracle[5][1]
    assert J5 and pair_gens
    for x in J5.values():
        for key, c in x.terms.items():
            assert type(c) is int, (key, c)
    for vec in pair_gens.values():
        for key, c in vec.terms.items():
            assert type(c) is int, (key, c)
