import random

import pytest

from walgebra.algebra import AlgebraElement
from walgebra.bk import subregular_w_generators, t_element, truncated_t
from walgebra.modules import (
    ModuleElement,
    b_reduction_is_zero,
    is_whittaker,
    reduce_mod_b_left,
    reduce_mod_m_psi,
)
from walgebra.pyramid import Pyramid
from walgebra.whittaker import (
    V1_EXPONENT_CANDIDATES,
    WhittakerBasis,
    WhittakerError,
    _invariant_on_generators,
    _tilde_v_candidate,
    asymptotic_parts,
    build_basis,
    build_tilde_v,
    canonical_basis,
    canonicalize,
    in_head_product,
    is_canonical_vector,
    l_constant_part,
    linear_part_closed_form,
    t12_l_linear_closed_form,
    t22_l_linear_closed_form,
    truncated_borel,
)


def E(order, i, j):
    return AlgebraElement.generator(order, i, j)


def H(order, power=1, c=1):
    return AlgebraElement.scalar(order, c).times_hbar(power)


def test_tilde_v_j0_is_basis_vector():
    for N in (2, 3, 4):
        vec, conv = build_tilde_v(N, 0)
        assert vec == ModuleElement.basis_vector(Pyramid.subregular(N), N)
        assert conv is None


def test_tilde_v2_n3_hand_value():
    # vtilde_2 = 1 ⊗ v2 - (E22 - hbar) ⊗ v3
    p = Pyramid.subregular(3)
    o = p.default_order()
    vec, _ = build_tilde_v(3, 1)
    expected = ModuleElement.basis_vector(p, 2) - reduce_mod_m_psi(
        ModuleElement.embed(E(o, 2, 2) - H(o), p, (3,))
    )
    assert vec == expected


def test_tilde_v1_n3_hand_value_and_convention():
    # vtilde_1 = 1 ⊗ v1 - E12 ⊗ v3, and the shorter exponent wins
    p = Pyramid.subregular(3)
    o = p.default_order()
    vec, conv = build_tilde_v(3, 2)
    expected = ModuleElement.basis_vector(p, 1) - reduce_mod_m_psi(
        ModuleElement.embed(E(o, 1, 2), p, (3,))
    )
    assert vec == expected
    assert conv == "N-i-2"


def test_tilde_v1_other_exponent_fails():
    with pytest.raises(WhittakerError):
        build_tilde_v(3, 2, v1_exponent="N-i-1")


def test_tilde_v_unknown_exponent_rejected():
    for j in (0, 2):
        with pytest.raises(ValueError, match="bogus"):
            build_tilde_v(3, j, v1_exponent="bogus")


def test_t22_closed_form_unknown_mode_rejected():
    with pytest.raises(ValueError, match="bogus"):
        t22_l_linear_closed_form(Pyramid.subregular(5), 3, "bogus")


def test_canonical_basis_shares_one_order():
    basis = canonical_basis(5)
    p = basis.pyramid
    assert p is Pyramid.subregular(5)
    assert {id(basis.vector(i).order) for i in range(1, 6)} == {id(p.default_order())}
    assert truncated_t(p, 1, 2, 2, 1, 3).value.order is p.default_order()


def test_basis_defaults_are_fresh_per_instance():
    p = Pyramid.subregular(3)
    a = WhittakerBasis(p, {})
    b = WhittakerBasis(p, {})
    assert a.canonical is False
    assert a.conventions == {} and a.change_log == []
    assert a.conventions is not b.conventions
    assert a.change_log is not b.change_log


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
        for g in subregular_w_generators(N):
            m = reduce_mod_m_psi(ModuleElement.embed(g.value, p, ()))
            ok, xi, res = is_whittaker(m)
            assert ok, (g.label(), xi)


def test_b_quotient_images_of_generators():
    # exact left-quotient images; the leading generators map onto their
    # own E-part, and the hand-computed degree-two image is frozen
    p = Pyramid.subregular(3)
    o = p.default_order()

    def b_image(value):
        return reduce_mod_b_left(reduce_mod_m_psi(ModuleElement.embed(value, p, ())))

    gens = {g.label(): g for g in subregular_w_generators(3)}
    img_t11 = b_image(gens["T(1,1;0)^(1)"].value)
    assert img_t11 == reduce_mod_m_psi(
        ModuleElement.embed(E(o, 1, 1) + H(o, 1, -1), p, ())
    )
    img_t21 = b_image(gens["T(2,1;1)^(1)"].value)
    assert img_t21 == reduce_mod_m_psi(ModuleElement.embed(E(o, 2, 1).scale(-1), p, ()))
    # b\T(2,2;1)^(2) = -E23 + hbar E11 - hbar E33 - hbar^2 (hand value)
    img_t22 = b_image(gens["T(2,2;1)^(2)"].value)
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
                    lc = l_constant_part(t.value, p)
                    assert lc.divisible_by_hbar(), t.label()


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
    lin, llin = asymptotic_parts(t.value, p)
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
                lin, _ = asymptotic_parts(t.value, p)
                assert lin == linear_part_closed_form(p, i, j, 1, r), (N, i, j, r)


def test_l_linear_closed_form_constant_mode_matches():
    for N in (3, 4, 5):
        p = Pyramid.subregular(N)
        for rho in range(2, N):
            t = t_element(p, 2, 2, 1, rho)
            _, llin = asymptotic_parts(t.value, p)
            assert llin == t22_l_linear_closed_form(p, rho, "constant")
            t12 = t_element(p, 1, 2, 1, rho)
            _, llin12 = asymptotic_parts(t12.value, p)
            assert llin12 == t12_l_linear_closed_form(p, rho, "shifted-constant")


def test_canonicalize_n3_hand_values():
    p = Pyramid.subregular(3)
    o = p.default_order()
    basis = canonical_basis(3)
    assert basis.canonical
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
        assert is_canonical_vector(vec, i, p)
        ok, xi, _ = is_whittaker(vec)
        assert ok
        # b-reduction keeps exactly the leading term
        assert reduce_mod_b_left(vec) == ModuleElement.basis_vector(p, i)


def _same_verdict(vec):
    """The generator gate and the full-m check agree; returns the verdict."""
    ok, xi, res = is_whittaker(vec)
    gate_ok, gate_xi, gate_res = _invariant_on_generators(vec)
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
    assert basis.conventions == {"v1_exponent": "N-i-2"}
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
    # the v1 exponent convention the gate rejects
    other, = (c for c in V1_EXPONENT_CANDIDATES if c != "N-i-2")
    assert not _same_verdict(_tilde_v_candidate(N, N - 1, other))
    with pytest.raises(WhittakerError):
        build_tilde_v(N, N - 1, v1_exponent=other)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_negated_psi_rejects_printed_vectors(N, monkeypatch):
    # with psi negated the printed vectors are not invariant (README, sign
    # convention of criterion 8); only 1 ⊗ v_N does not see psi
    psi = Pyramid.subregular(N).psi()
    for key, val in psi.values.items():
        monkeypatch.setitem(psi.values, key, -val)
    assert _same_verdict(_tilde_v_candidate(N, 0, "N-i-2"))
    for j in range(1, N):
        for conv in V1_EXPONENT_CANDIDATES if j == N - 1 else ("N-i-2",):
            assert not _same_verdict(_tilde_v_candidate(N, j, conv)), (j, conv)
        with pytest.raises(WhittakerError):
            build_tilde_v(N, j)


def test_canonicalize_idempotent():
    basis = canonical_basis(4)
    again = canonicalize(basis)
    assert again is basis


def test_triangularity_of_change_log():
    basis = canonical_basis(4)
    p = basis.pyramid
    for leading, q, c in basis.change_log:
        assert q > leading
        assert l_constant_part(c, p) == c  # corrections live in U(l)


def test_perturbation_breaks_canonical_form():
    p = Pyramid.subregular(3)
    o = p.default_order()
    basis = canonical_basis(3)
    vec = basis.vector(2) + ModuleElement.embed(E(o, 1, 1), p, (3,))
    assert not is_canonical_vector(vec, 2, p)


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
                head = truncated_borel(p, q)
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
