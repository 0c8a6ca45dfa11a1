import hashlib
import json

import pytest

from walgebra.algebra import AlgebraElement, add_term
from walgebra.hbar import HbarPoly
from walgebra.modules import (
    ModuleElement,
    b_reduction_is_zero,
    fuse,
    is_whittaker,
    reduce_mod_b_left,
    right_act,
)
from walgebra.pyramid import Pyramid
from walgebra.tensorj import (
    _GAUSS_PASS_BOUND,
    JMatrix,
    SemiclassicalJ,
    TensorJError,
    compare_semiclassical,
    compute_J,
    fuse_power_J,
    j_structure_report,
    semiclassical_closed_form,
    semiclassical_from_asymptotics,
    semiclassical_limit,
)
from walgebra.whittaker import canonical_basis, in_l


def _canonical_pair_generators(N, basis):
    """Oracle: the Gaussian construction on full representatives.

    Returns (entries, pair generators): the entries of J - id and the full
    canonical pair generators g_ij = 1 ⊗ v_i ⊗ v_j + (terms in b·U at
    other slots), which compute_J holds only modulo b."""
    p = basis.pyramid
    one = AlgebraElement.one(p.default_order())
    l_only = in_l(p)
    pair_gens = {}
    entries = {}
    for j in range(N, 0, -1):
        for i in range(N, 0, -1):
            F = fuse(basis.vector(i), basis.vector(j))
            acc = {}
            for _ in range(_GAUSS_PASS_BOUND):
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
                    assert b_reduction_is_zero(x, p), ("residual not in b·U", slots, (i, j))
            pair_gens[(i, j)] = F
            for key, c in acc.items():
                entries[(key, (i, j))] = c
    return entries, pair_gens


@pytest.fixture(scope="module")
def J3():
    return compute_J(3)


@pytest.fixture(scope="module")
def J4():
    return compute_J(4)


@pytest.fixture(scope="module")
def J5():
    return compute_J(5)


@pytest.fixture(scope="module")
def J6():
    return compute_J(6)


@pytest.fixture(scope="module")
def J7():
    return compute_J(7)


@pytest.fixture(scope="module")
def J8():
    return compute_J(8)


@pytest.fixture(scope="module")
def J9():
    return compute_J(9)


@pytest.fixture(scope="module")
def oracle(J3, J4, J5, J6):
    """{N: (entries, full pair generators)} of the oracle, on the bases of
    the J fixtures."""
    return {J.N: _canonical_pair_generators(J.N, J.basis) for J in (J3, J4, J5, J6)}


def test_j3_hand_values(J3):
    # exactly two off-identity entries, both equal to hbar
    p = Pyramid.subregular(3)
    o = p.default_order()
    hbar = AlgebraElement.one(o).times_hbar()
    assert dict(J3.sorted_entries()) == {
        ((1, 3), (2, 1)): hbar,
        ((2, 3), (2, 2)): hbar,
    }


def test_j_structure(J3, J4):
    for J in (J3, J4):
        rep = j_structure_report(J)
        assert rep["ok"], rep["violations"]


def test_pair_generators_are_whittaker(J3, J4, oracle):
    for J in (J3, J4):
        p = J.pyramid
        for (i, j), vec in oracle[J.N][1].items():
            ok, xi, _ = is_whittaker(vec)
            assert ok, ((i, j), xi)


def test_oracle_entries_equal_quotient_entries(J3, J4, J5, J6, oracle):
    for J in (J3, J4, J5, J6):
        assert oracle[J.N][0] == J.entries


def test_oracle_pair_generators_reduce_to_unit_pairs(J3, J4, J5, J6, oracle):
    # pi(g_ij) = 1 ⊗ v_i ⊗ v_j, which is what compute_J holds
    for J in (J3, J4, J5, J6):
        p = J.pyramid
        gens = oracle[J.N][1]
        assert set(gens) == set(J.pair_generators)
        for (i, j), g in gens.items():
            unit = ModuleElement(p, 2, {((), (i, j), 0): 1})
            assert reduce_mod_b_left(g) == unit, (J.N, (i, j))
            assert J.pair_generators[(i, j)] == unit, (J.N, (i, j))


def test_wrong_rank_input_is_rejected(J3):
    basis4 = canonical_basis(4)
    with pytest.raises(TensorJError):
        compute_J(3, basis4)
    with pytest.raises(TensorJError):
        semiclassical_from_asymptotics(3, basis4)
    with pytest.raises(TensorJError):
        compare_semiclassical(4, J3)


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
    limit = semiclassical_limit(J3)
    assert limit == semiclassical_closed_form(3, "statement")
    # the dynamical ranges are empty at N=3, so all variants coincide
    assert limit == semiclassical_closed_form(3, "proof")
    assert limit.max_x_degree() == 0


def test_semiclassical_n4_matches_statement(J4):
    from fractions import Fraction

    limit = semiclassical_limit(J4)
    assert limit == semiclassical_closed_form(4, "statement")
    assert limit != semiclassical_closed_form(4, "proof")
    assert limit.max_x_degree() <= 1
    # the x11-dynamical entry at first leg E_12, second leg E_41
    assert limit.entries[((1, 4), (2, 1))] == {(0, 1): Fraction(1)}
    # and the x21 entry at first leg E_12, second leg E_42
    assert limit.entries[((1, 4), (2, 2))] == {(1, 0): Fraction(1)}


def test_compare_report_n4(J4):
    rep = compare_semiclassical(4, J4)
    assert rep["constant_part_equals_jc"]
    assert rep["matches"]["statement"] and not rep["matches"]["proof"]
    assert rep["matched_convention"] == "statement"
    assert rep["x_degree_bound_ok"]


def test_compare_report_n5():
    # at N=5 the computed dynamical part is uniformly positive; both printed
    # sign patterns fail literally, and the diff is confined to odd-exponent
    # entries (the column twist accounts for it, see the twist tests below)
    J5 = compute_J(5)
    rep = compare_semiclassical(5, J5)
    assert rep["constant_part_equals_jc"]
    assert not rep["matches"]["statement"] and not rep["matches"]["proof"]
    assert rep["matches"]["positive"]
    assert rep["matched_convention"] == "positive"
    rows = {(tuple(d["row"]), tuple(d["col"])) for d in rep["diffs"]["statement"]}
    assert rows == {((1, 5), (2, 1)), ((1, 5), (2, 2))}
    assert semiclassical_from_asymptotics(5, J5.basis) == semiclassical_limit(J5)
    assert j_structure_report(J5)["ok"]


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


def test_column_twist_relates_closed_form_conventions():
    # conjugation by t = diag((-1)^(col k - 1)) sends psi to -psi: it negates
    # j_c and exchanges the printed dynamical families with the 'positive' ones
    for N in range(3, 10):
        statement = semiclassical_closed_form(N, "statement")
        positive = semiclassical_closed_form(N, "positive")
        jc = statement.constant_part()
        assert positive.constant_part() == jc
        assert _column_twist(jc) == _negated(jc)
        assert _column_twist(_dynamical_part(positive)) == _dynamical_part(statement)
        assert _column_twist(_dynamical_part(statement)) == _dynamical_part(positive)


def test_semiclassical_n6_is_jc_plus_twisted_statement(J6):
    limit = semiclassical_limit(J6)
    printed = semiclassical_closed_form(6, "statement")
    assert limit.constant_part() == printed.constant_part()
    assert _dynamical_part(limit) == _column_twist(_dynamical_part(printed))
    assert limit != printed
    assert limit == semiclassical_from_asymptotics(6, J6.basis)


def test_semiclassical_n7_n8_is_jc_plus_positive(J7, J8):
    # criterion-8 evidence beyond the criterion's own N range
    for J in (J7, J8):
        limit = semiclassical_limit(J)
        assert limit.constant_part() == semiclassical_closed_form(J.N, "statement").constant_part()
        assert limit == semiclassical_from_asymptotics(J.N, J.basis)
        assert limit == semiclassical_closed_form(J.N, "positive")


def test_semiclassical_n9_is_jc_plus_positive(J9):
    limit = semiclassical_limit(J9)
    assert limit.constant_part() == semiclassical_closed_form(9, "statement").constant_part()
    assert limit == semiclassical_closed_form(9, "positive")
    assert limit == semiclassical_from_asymptotics(9, J9.basis)


def test_asymptotic_recomputation_agrees(J3, J4):
    for J in (J3, J4):
        assert semiclassical_from_asymptotics(J.N, J.basis) == semiclassical_limit(J)


def test_fuse_associativity():
    rep3 = fuse_power_J(3, samples=4, seed=1)
    assert rep3["ok"]
    rep4 = fuse_power_J(4, samples=10, seed=2)
    assert rep4["ok"]
    assert len(rep4["cases"]) == 10


def test_semiclassical_poly_render():
    s = SemiclassicalJ(4)
    s.add((1, 4), (2, 1), 1, 2, 1)
    s.add((1, 4), (2, 1), 0, 0, -2)
    poly = s.entries[((1, 4), (2, 1))]
    assert SemiclassicalJ.render_poly(poly) == "-2 + x21·x11^2"


def test_semiclassical_value_equality():
    def limit(N, c):
        s = SemiclassicalJ(N)
        s.add((1, 4), (2, 1), 1, 2, c)
        return s

    assert limit(4, 1) == limit(4, 1)
    assert limit(4, 1) != limit(5, 1)
    assert limit(4, 1) != limit(4, 2)
    assert SemiclassicalJ(4) == SemiclassicalJ(4, {})
    assert SemiclassicalJ(4).entries is not SemiclassicalJ(4).entries


def test_n5_printed_signs_refuted_by_gaussian_residual():
    # third independent route to the N=5 sign finding: correcting the raw
    # fusion of v_2 with itself by the *printed* (statement-signed) first
    # order leaves an l-constant obstruction at first order, while the
    # computed first order clears it
    from walgebra.whittaker import l_constant_part

    J = compute_J(5)
    p, o = J.pyramid, J.pyramid.default_order()
    e21, e11 = p.l_codes()
    F0 = fuse(J.basis.vector(2), J.basis.vector(2))

    def poly_to_element(poly):
        terms = {}
        for (p21, p11), q in poly.items():
            mono = []
            if p21:
                mono.append((e21, p21))
            if p11:
                mono.append((e11, p11))
            terms[tuple(mono)] = HbarPoly((0, q))
        return AlgebraElement.from_terms(o, terms)

    def residual_first_order(semi):
        out = F0
        for ((a, l), col), poly in semi.entries.items():
            if col != (2, 2):
                continue
            c = poly_to_element(poly)
            if not c.is_zero():
                out = out - right_act(J.pair_generators[(a, l)], c)
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

    computed = semiclassical_limit(J)
    assert residual_first_order(computed) == {}
    printed = semiclassical_closed_form(5, "statement")
    leftover = residual_first_order(printed)
    # exactly the sign-flipped entry, at twice the computed value
    assert set(leftover) == {(1, 5)}


def test_jmatrix_json_deterministic(J3):
    a = json.dumps(J3.to_json(), sort_keys=True)
    b = json.dumps(compute_J(3).to_json(), sort_keys=True)
    assert a == b


def _digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_j5_golden_digests(J5, oracle):
    # recorded at commit 2dd3fda, when every coefficient was a Fraction
    assert _digest(J5.to_json()) == (
        "d6f7e64d989220ffb2789d26dc0abd30fa657601ad762efb6bf7a648d3c578a1"
    )
    pairs = {"%d,%d" % k: v.to_json() for k, v in sorted(oracle[5][1].items())}
    assert _digest(pairs) == (
        "af2554248a31925f3aa6611e8b9893985432da0b90a14766cbfa280e350615c8"
    )


def test_j6_golden_digests(J6, oracle):
    # recorded at commit 66d3734, before module terms were keyed by hbar-degree
    assert _digest(J6.to_json()) == (
        "b2ee239f019badf1491ea095e3d71160d946014b2bfd7806ae47d9d3421a279e"
    )
    pairs = {"%d,%d" % k: v.to_json() for k, v in sorted(oracle[6][1].items())}
    assert _digest(pairs) == (
        "fd64b00458f237583a9e64ddaa43583d5bf9860190921864be78d07cd119904e"
    )


def test_j7_j8_golden_digests(J7, J8):
    # confirmed at commit 97ceb49 on full pair generators, before J was
    # computed in the left b-quotient
    assert _digest(J7.to_json()) == (
        "5dd1d359d413e0f74c664f3a446759eb980060ec2889022638bea39aa756361a"
    )
    assert _digest(J8.to_json()) == (
        "e92cade8cbeafc8e9dacd8293fba862e638b8cceba864ad36a2dcbf563d892a8"
    )


def test_j9_golden_digest(J9):
    # recorded at commit 2b9a342, with the basis gates checking all of m
    assert _digest(J9.to_json()) == (
        "266e4c70f9b0c1a018b08d2c519975e8655abf8f74c625e7a8583cc824858dd8"
    )


def test_j5_coefficients_are_ints(J5, oracle):
    # nothing in the construction of J divides
    pair_gens = oracle[5][1]
    assert J5.entries and pair_gens
    for x in J5.entries.values():
        for key, c in x.terms.items():
            assert type(c) is int, (key, c)
    for vec in pair_gens.values():
        for key, c in vec.terms.items():
            assert type(c) is int, (key, c)
