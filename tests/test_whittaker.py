import random
from fractions import Fraction

import pytest

from walgebra.algebra import AlgebraElement, GeneratorOrder, gen_code, gen_ij
from walgebra.bk import t_element, truncated_t
from walgebra.modules import (
    ModuleElement,
    is_whittaker,
    reduce_mod_b_left,
    reduce_mod_m_psi,
    right_act,
)
from walgebra.pyramid import Pyramid
from walgebra.whittaker import (
    WhittakerError,
    _tilde_v,
    asymptotic_parts,
    build_basis,
    canonical_basis,
    canonicalize,
    eliminate_l_constant,
    is_canonical_vector,
    l_constant_part,
)

from closed_forms import (
    linear_part_closed_form,
    t12_l_linear_closed_form,
    t22_l_linear_closed_form,
)
from w_generators import subregular_w_generators


def E(order, i, j):
    return AlgebraElement.generator(order, i, j)


def H(order, power=1, c=1):
    return AlgebraElement.scalar(order, c).times_hbar(power)


def _v1_superscript_one_higher(N):
    """vtilde_1 with the other printed [12;1] superscript, N-i-1 instead
    of N-i-2, and the same signs."""
    p = Pyramid.subregular(N)
    vec = ModuleElement.basis_vector(p, 1)
    for i in range(N - 2):
        t = truncated_t(p, i + 1, 1, 2, 1, N - i - 1)
        sign = -1 if (N - i - 2) % 2 else 1
        vec = vec + ModuleElement.embed(t, p, (N - i,)).scale(sign)
    return reduce_mod_m_psi(vec)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_raw_vectors_are_reduced(N):
    # every T-element lies in U(p), so _tilde_v needs no reduction pass
    for v in build_basis(N).vectors.values():
        assert reduce_mod_m_psi(v) == v


def test_tilde_v_j0_is_basis_vector():
    for N in (2, 3, 4):
        assert _tilde_v(N, 0) == ModuleElement.basis_vector(Pyramid.subregular(N), N)


def test_tilde_v2_n3_hand_value():
    # vtilde_2 = 1 ⊗ v2 - (E22 - hbar) ⊗ v3
    p = Pyramid.subregular(3)
    o = p.default_order()
    vec = _tilde_v(3, 1)
    expected = ModuleElement.basis_vector(p, 2) - reduce_mod_m_psi(
        ModuleElement.embed(E(o, 2, 2) - H(o), p, (3,))
    )
    assert vec == expected


def test_tilde_v1_n3_hand_value_and_convention():
    # vtilde_1 = 1 ⊗ v1 - E12 ⊗ v3: the superscript N-i-2, not N-i-1
    p = Pyramid.subregular(3)
    o = p.default_order()
    vec = _tilde_v(3, 2)
    expected = ModuleElement.basis_vector(p, 1) - reduce_mod_m_psi(
        ModuleElement.embed(E(o, 1, 2), p, (3,))
    )
    assert vec == expected
    assert vec != _v1_superscript_one_higher(3)


def test_tilde_v1_other_exponent_fails():
    assert not is_whittaker(_v1_superscript_one_higher(3))[0]


def test_t22_closed_form_unknown_mode_rejected():
    with pytest.raises(ValueError, match="bogus"):
        t22_l_linear_closed_form(Pyramid.subregular(5), 3, "bogus")


def test_canonical_basis_shares_one_order():
    basis = canonical_basis(5)
    p = basis.pyramid
    assert p is Pyramid.subregular(5)
    assert {id(basis.vector(i).order) for i in range(1, 6)} == {id(p.default_order())}
    assert truncated_t(p, 1, 2, 2, 1, 3).order is p.default_order()


def test_canonical_form_is_read_off_the_vectors():
    # a basis carries no flag: whether it is canonical is a property of
    # its vectors, checked where it is used
    raw, canon = build_basis(3), canonical_basis(3)
    assert not hasattr(canon, "canonical")
    assert [is_canonical_vector(raw.vector(i), i) for i in (1, 2, 3)] == [True, False, True]
    assert all(is_canonical_vector(canon.vector(i), i) for i in (1, 2, 3))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_all_tilde_vectors_invariant(N):
    basis = build_basis(N)
    p = basis.pyramid
    for i in range(1, N + 1):
        ok, xi, res = is_whittaker(basis.vector(i))
        assert ok, (i, xi)


def test_w_generators_are_whittaker_in_Q():
    for N in (3, 4, 5):
        p = Pyramid.subregular(N)
        for n, g in enumerate(subregular_w_generators(N)):
            m = reduce_mod_m_psi(ModuleElement.embed(g, p, ()))
            ok, xi, res = is_whittaker(m)
            assert ok, (N, n, xi)


def test_b_quotient_images_of_generators():
    # exact left-quotient images; the leading generators map onto their
    # own E-part, and the hand-computed degree-two image is frozen
    p = Pyramid.subregular(3)
    o = p.default_order()

    def b_image(value):
        return reduce_mod_b_left(reduce_mod_m_psi(ModuleElement.embed(value, p, ())))

    img_t11 = b_image(t_element(p, 1, 1, 0, 1))
    assert img_t11 == reduce_mod_m_psi(
        ModuleElement.embed(E(o, 1, 1) + H(o, 1, -1), p, ())
    )
    img_t21 = b_image(t_element(p, 2, 1, 1, 1))
    assert img_t21 == reduce_mod_m_psi(ModuleElement.embed(E(o, 2, 1).scale(-1), p, ()))
    # b\T(2,2;1)^(2) = -E23 + hbar E11 - hbar E33 - hbar^2 (hand value)
    img_t22 = b_image(t_element(p, 2, 2, 1, 2))
    expected = reduce_mod_m_psi(
        ModuleElement.embed(
            E(o, 2, 3).scale(-1) + H(o) * E(o, 1, 1) - H(o) * E(o, 3, 3) - H(o, 2, 1),
            p,
            (),
        )
    )
    assert img_t22 == expected
    # surviving generators sit in l or the last matrix column
    allowed = set(p.l_codes()) | {(i - 1) * 3 + 2 for i in range(1, 4)}
    for (mono, _, _), _c in img_t22.terms.items():
        assert all(g in allowed for g, _ in mono)


def test_l_constant_part():
    p = Pyramid.subregular(3)
    o = p.default_order()
    x = E(o, 2, 1) * E(o, 1, 1) + E(o, 1, 2)
    assert l_constant_part(x, p) == E(o, 2, 1) * E(o, 1, 1)
    assert l_constant_part(H(o), p) == H(o)
    assert l_constant_part(E(o, 1, 3), p).is_zero()


def test_l_constant_of_coefficient_families_divisible_by_hbar():
    # the [22;1] and [12;1] families feeding the vector construction;
    # T^(1)_[11;0] and T^(1)_[21;1] themselves lie inside U(l) and are
    # honest counterexamples to a blanket version of this statement
    from walgebra.bk import truncated_t

    for N in (3, 4, 5):
        p = Pyramid.subregular(N)
        for k in range(0, N - 1):
            for r in range(1, N):
                for fam in ((2, 2), (1, 2)):
                    t = truncated_t(p, k, fam[0], fam[1], 1, r)
                    lc = l_constant_part(t, p)
                    assert lc.divisible_by_hbar(), (N, k, fam, r)


def test_asymptotic_parts_drop_hbar():
    p = Pyramid.subregular(3)
    o = p.default_order()
    lin, llin = asymptotic_parts(H(o) * E(o, 1, 2), p)
    assert lin.is_zero() and llin.is_zero()


def test_asymptotic_parts_of_t22():
    # T^(2)_[22;1] over N=3: linear part -E23, l-linear part -E12*E21
    p = Pyramid.subregular(3)
    o = p.default_order()
    t = t_element(p, 2, 2, 1, 2)
    lin, llin = asymptotic_parts(t, p)
    assert lin == E(o, 2, 3).scale(-1)
    assert llin == (E(o, 1, 2) * E(o, 2, 1)).scale(-1)


def test_linear_part_closed_form_matches():
    # includes the row-sign-minus families (j = 1 at x = 1), where the
    # closed form carries the pinned sigma(j) factor
    for N in (3, 4, 5):
        p = Pyramid.subregular(N)
        for (i, j) in ((2, 2), (1, 2), (2, 1), (1, 1)):
            for r in range(1, N):
                t = t_element(p, i, j, 1, r)
                lin, _ = asymptotic_parts(t, p)
                assert lin == linear_part_closed_form(p, i, j, 1, r), (N, i, j, r)


def test_l_linear_closed_form_constant_mode_matches():
    for N in (3, 4, 5):
        p = Pyramid.subregular(N)
        for rho in range(2, N):
            t = t_element(p, 2, 2, 1, rho)
            _, llin = asymptotic_parts(t, p)
            assert llin == t22_l_linear_closed_form(p, rho, "constant")
            t12 = t_element(p, 1, 2, 1, rho)
            _, llin12 = asymptotic_parts(t12, p)
            assert llin12 == t12_l_linear_closed_form(p, rho, "shifted-constant")


def test_canonicalize_n3_hand_values():
    p = Pyramid.subregular(3)
    o = p.default_order()
    basis = canonical_basis(3)
    assert all(is_canonical_vector(basis.vector(i), i) for i in (1, 2, 3))
    v3 = ModuleElement.basis_vector(p, 3)
    v2 = ModuleElement.basis_vector(p, 2) - reduce_mod_m_psi(
        ModuleElement.embed(E(o, 2, 2), p, (3,))
    )
    v1 = ModuleElement.basis_vector(p, 1) - reduce_mod_m_psi(
        ModuleElement.embed(E(o, 1, 2), p, (3,))
    )
    assert basis.vector(3) == v3
    assert basis.vector(2) == v2
    assert basis.vector(1) == v1


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_canonical_basis_properties(N):
    basis = canonical_basis(N)
    p = basis.pyramid
    for i in range(1, N + 1):
        vec = basis.vector(i)
        assert is_canonical_vector(vec, i)
        ok, xi, _ = is_whittaker(vec)
        assert ok
        # b-reduction keeps exactly the leading term
        assert reduce_mod_b_left(vec) == ModuleElement.basis_vector(p, i)


def _same_verdict(vec):
    """The generator gate and the full-m check agree; returns the verdict."""
    ok, xi, res = is_whittaker(vec)
    gate_ok, gate_xi, gate_res = is_whittaker(vec, vec.pyramid.m_generators())
    assert gate_ok == ok
    if not gate_ok:
        assert gate_xi in vec.pyramid.m_generators()
        assert not gate_res.is_zero()
    return ok


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_generator_gate_agrees_with_full_check(N):
    p = Pyramid.subregular(N)
    o = p.default_order()
    rng = random.Random(300 + N)
    basis = canonical_basis(N)
    rejected = 0
    for i in range(1, N + 1):
        vec = basis.vector(i)
        assert _same_verdict(vec)
        for _ in range(3):
            x = H(o, rng.randint(0, 1), rng.choice((1, -1, 2)))
            for _ in range(rng.randint(0, 2)):
                x = x * E(o, rng.randint(1, N), rng.randint(1, N))
            bump = reduce_mod_m_psi(ModuleElement.embed(x, p, (rng.randint(1, N),)))
            rejected += not _same_verdict(vec + bump)
    assert rejected >= N
    # the other printed [12;1] superscript, which the gate rejects
    assert not _same_verdict(_v1_superscript_one_higher(N))


@pytest.mark.parametrize("N", [3, 4, 5])
def test_negated_psi_rejects_printed_vectors(N, monkeypatch):
    # with psi negated the printed vectors are not invariant (README, sign
    # convention of criterion 8); only 1 ⊗ v_N does not see psi
    psi = Pyramid.subregular(N).psi()
    for key, val in list(psi.items()):
        monkeypatch.setitem(psi, key, -val)
    assert _same_verdict(_tilde_v(N, 0))
    for j in range(1, N):
        assert not _same_verdict(_tilde_v(N, j)), j
    assert not _same_verdict(_v1_superscript_one_higher(N))
    # the one gate, at the canonical form, names N, the slot and the generator
    match = r"canonical v_%d over N=%d is not invariant: ad E\(%d, %d\)" % (N - 1, N, N, N - 1)
    with pytest.raises(WhittakerError, match=match):
        canonicalize(build_basis(N))


def _gate(vec):
    return is_whittaker(vec, vec.pyramid.m_generators())[0]


@pytest.mark.parametrize("N", [3, 4, 5])
def test_right_translates_of_canonical_vectors_are_invariant(N):
    # the right U-action commutes with the left shifted m-action: the
    # reason one gate, at the canonical form, decides each raw vector too
    basis = canonical_basis(N)
    o = basis.pyramid.default_order()
    for e21, e11 in ((1, 0), (0, 1), (1, 1), (2, 1), (0, 2)):
        c = AlgebraElement.scalar(o, 1)
        for _ in range(e21):
            c = c * E(o, 2, 1)
        for _ in range(e11):
            c = c * E(o, 1, 1)
        for q in range(1, N + 1):
            ok, xi, _ = is_whittaker(right_act(basis.vector(q), c))
            assert ok, (q, e21, e11, xi)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_gate_verdict_survives_elimination(N):
    # a perturbed raw vector and its eliminated form differ by right
    # translates of canonical vectors, so the gate agrees on the two
    p = Pyramid.subregular(N)
    o = p.default_order()
    rng = random.Random(400 + N)
    raw, canon = build_basis(N), canonical_basis(N)
    l_monos = [AlgebraElement.scalar(o, 1), E(o, 2, 1), E(o, 1, 1), E(o, 2, 1) * E(o, 1, 1)]
    verdicts = []
    for leading in range(N - 1, 0, -1):
        higher = {(q,): canon.vector(q) for q in range(leading + 1, N + 1)}
        for _ in range(4):
            x = H(o, rng.randint(0, 1), rng.choice((1, -1, 2))) * rng.choice(l_monos)
            if rng.random() < 0.5:
                x = x * E(o, rng.randint(1, N), rng.randint(1, N))
            q = rng.randint(leading + 1, N)
            vec = raw.vector(leading) + reduce_mod_m_psi(ModuleElement.embed(x, p, (q,)))
            eliminated, _ = eliminate_l_constant(vec, (leading,), higher)
            verdicts.append(_gate(vec))
            assert _gate(eliminated) == verdicts[-1], (leading, q, x)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_one_gate_per_canonical_vector(N, monkeypatch):
    calls = []

    def counting(vec, elements=None):
        calls.append(elements)
        return is_whittaker(vec, elements)

    monkeypatch.setattr("walgebra.whittaker.is_whittaker", counting)
    build_basis(N)
    assert calls == []
    canonical_basis(N)
    assert calls == [Pyramid.subregular(N).m_generators()] * N


def test_canonicalize_idempotent():
    basis = canonical_basis(4)
    assert canonicalize(basis).vectors == basis.vectors


def test_triangularity_of_change_log():
    # the (slots, c) pairs the elimination subtracts on each built vector,
    # given the higher canonical vectors as generators
    built, canon = build_basis(4), canonical_basis(4)
    p = built.pyramid
    subtracted = 0
    for leading in range(4, 0, -1):
        higher = {(q,): canon.vector(q) for q in range(leading + 1, 5)}
        vec, log = eliminate_l_constant(built.vector(leading), (leading,), higher)
        assert vec == canon.vector(leading)
        for (q,), c in log:
            assert q > leading
            assert l_constant_part(c, p) == c  # corrections live in U(l)
        subtracted += len(log)
    assert subtracted


def test_perturbation_breaks_canonical_form():
    p = Pyramid.subregular(3)
    o = p.default_order()
    basis = canonical_basis(3)
    vec = basis.vector(2) + ModuleElement.embed(E(o, 1, 1), p, (3,))
    assert not is_canonical_vector(vec, 2)


def _slot_by_slot_canonical(vec, leading, p):
    """Oracle: the coefficient of v_leading is exactly 1, no slot lies
    below leading, and every coefficient above it lies in b·U, i.e. each
    of its monomials is nonempty and starts with a b-generator."""
    coeffs = vec.by_slots()
    if coeffs.get((leading,)) != AlgebraElement.scalar(vec.order, 1):
        return False
    b_codes = p.b_codes()
    for slots, x in coeffs.items():
        q = slots[0]
        if q < leading:
            return False
        if q > leading and not all(mono and mono[0][0] in b_codes for mono in x.monomials()):
            return False
    return True


def test_canonical_vector_b_membership_cases():
    # a coefficient above the leading slot must lie in b·U: E12·E21 does,
    # E21 and the unit do not
    p = Pyramid.subregular(3)
    o = p.default_order()
    v1 = ModuleElement.basis_vector(p, 1)
    for x, ok in (
        (E(o, 1, 2) * E(o, 2, 1), True),
        (E(o, 2, 1), False),
        (AlgebraElement.scalar(o, 1), False),
    ):
        vec = v1 + ModuleElement.embed(x, p, (3,))
        assert is_canonical_vector(vec, 1) is ok is _slot_by_slot_canonical(vec, 1, p), x


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_canonical_predicate_matches_slot_by_slot_oracle(N):
    # every canonical vector, then 180 seeded perturbations of them: a
    # random element of U(p) (a scalar, possibly times hbar, times up to
    # two generators of p) added at a slot below, at or above the leading
    # slot of a random vector
    p = Pyramid.subregular(N)
    o = p.default_order()
    canon = canonical_basis(N)
    for i in range(1, N + 1):
        assert is_canonical_vector(canon.vector(i), i)
        assert _slot_by_slot_canonical(canon.vector(i), i, p)
    p_gens = [gen_ij(N, g) for g in range(N * N) if g not in p.m_codes()]
    rng = random.Random(800 + N)
    seen = set()
    for _ in range(180):
        lead, q = rng.randint(1, N), rng.randint(1, N)
        x = H(o, rng.randint(0, 1), rng.choice((1, -1, 2, Fraction(1, 2))))
        for _ in range(rng.choice((0, 1, 1, 2))):
            x = x * E(o, *rng.choice(p_gens))
        vec = canon.vector(lead) + ModuleElement.embed(x, p, (q,))
        verdict = is_canonical_vector(vec, lead)
        assert verdict == _slot_by_slot_canonical(vec, lead, p), (lead, q, x)
        seen.add((("lower", "leading", "higher")[(q > lead) - (q < lead) + 1], verdict))
    assert {where for where, _ in seen} == {"lower", "leading", "higher"}
    assert {verdict for _, verdict in seen} == {True, False}


def in_head_product(x, head, p):
    """True when x lies in span(head)·U, tested in an adapted PBW order."""
    if x.is_zero():
        return True
    N = p.N
    head_codes = [gen_code(N, i, j) for (i, j) in sorted(head)]
    if not head_codes:
        return False
    rest = [c for c in range(N * N) if c not in set(head_codes)]
    rest.sort(key=lambda c: p.default_order().ranks[c])
    ranked = [gen_ij(N, c) for c in head_codes + rest]
    adapted = GeneratorOrder(N, ranked, label="head-first")
    y = x.change_order(adapted)
    head_set = set(head_codes)
    return all(m and m[0][0] in head_set for m in y.monomials())


def test_refined_borel_support():
    # coefficient of v_j involves only the Borel block on indices < j
    for N in (3, 4, 5):
        basis = canonical_basis(N)
        p = basis.pyramid
        for i in range(1, N + 1):
            vec = basis.vector(i)
            for slots, u in vec.by_slots().items():
                q = slots[0]
                if q == i:
                    continue
                head = Pyramid.subregular(q).subregular_roles()[0]
                assert in_head_product(u, head, p), (N, i, q)


def test_asymptotic_l_linear_stable_under_canonicalization():
    # the hbar-constant l-linear content of each coefficient is unchanged
    for N in (3, 4, 5):
        tilde = build_basis(N)
        canon = canonicalize(tilde)
        p = tilde.pyramid
        for i in range(1, N + 1):
            for slots, u in tilde.vector(i).by_slots().items():
                if slots[0] == i:
                    continue
                _, before = asymptotic_parts(u, p)
                _, after = asymptotic_parts(canon.vector(i).coefficient_at(slots), p)
                assert before == after, (N, i, slots)
