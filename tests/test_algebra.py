import random
from fractions import Fraction

import pytest

from walgebra import algebra
from walgebra.algebra import (
    AlgebraElement,
    AlgebraError,
    GeneratorOrder,
    gen_code,
    gen_ij,
    normal_order_word,
)
from walgebra.hbar import HbarPoly
from walgebra.pyramid import Pyramid

from hbar_terms import from_terms


def E(order, i, j):
    return AlgebraElement.generator(order, i, j)


@pytest.fixture
def lex4():
    return GeneratorOrder.lex(4)


def random_element(order, rng, n_terms=2, max_len=2, max_exp=2):
    terms = {}
    N = order.N
    for _ in range(rng.randint(1, n_terms)):
        length = rng.randint(0, max_len)
        word = sorted(
            (rng.randrange(N * N) for _ in range(length)), key=lambda g: order.ranks[g]
        )
        mono = []
        for g in word:
            if mono and mono[-1][0] == g:
                mono[-1] = (g, mono[-1][1] + 1)
            else:
                mono.append((g, 1))
        coeff = HbarPoly((rng.randint(-3, 3), rng.randint(-2, 2)))
        if not coeff:
            coeff = HbarPoly((1,))
        mono = tuple(mono)
        terms[mono] = terms.get(mono, HbarPoly()) + coeff
    return from_terms(order, terms)


def test_gen_codes_round_trip():
    for i in range(1, 5):
        for j in range(1, 5):
            assert gen_ij(4, gen_code(4, i, j)) == (i, j)
    with pytest.raises(AlgebraError):
        gen_code(4, 0, 1)
    with pytest.raises(AlgebraError):
        gen_code(4, 1, 5)


def test_sorted_product_is_fixed(lex4):
    # E12 * E21 is already ordered under lex (E12 ranked before E21)
    prod = E(lex4, 1, 2) * E(lex4, 2, 1)
    assert prod.terms == {(((gen_code(4, 1, 2), 1), (gen_code(4, 2, 1), 1)), 0): 1}


def test_single_rewrite(lex4):
    # E21 * E12 = E12*E21 + hbar*(E22 - E11)
    prod = E(lex4, 2, 1) * E(lex4, 1, 2)
    expected = (
        E(lex4, 1, 2) * E(lex4, 2, 1)
        + E(lex4, 2, 2).times_hbar()
        - E(lex4, 1, 1).times_hbar()
    )
    assert prod == expected


def test_unit_law_random(lex4):
    rng = random.Random(7)
    one = AlgebraElement.one(lex4)
    for _ in range(20):
        a = random_element(lex4, rng)
        assert one * a == a
        assert a * one == a


def test_powers_collapse(lex4):
    sq = E(lex4, 1, 2) * E(lex4, 1, 2)
    assert sq.terms == {(((gen_code(4, 1, 2), 2),), 0): 1}


def test_commutator_structure_constants(lex4):
    assert E(lex4, 1, 2).commutator(E(lex4, 2, 1)) == E(lex4, 1, 1) - E(lex4, 2, 2)
    assert E(lex4, 1, 1).commutator(E(lex4, 2, 3)).is_zero()


def test_commutator_antisymmetry_random(lex4):
    rng = random.Random(11)
    for _ in range(10):
        a = random_element(lex4, rng)
        assert a.commutator(a).is_zero()


def test_associativity_random(lex4):
    rng = random.Random(13)
    for _ in range(40):
        a = random_element(lex4, rng)
        b = random_element(lex4, rng)
        c = random_element(lex4, rng)
        assert (a * b) * c == a * (b * c)


def test_jacobi_on_generators(lex4):
    rng = random.Random(17)
    for _ in range(60):
        a = E(lex4, rng.randint(1, 4), rng.randint(1, 4))
        b = E(lex4, rng.randint(1, 4), rng.randint(1, 4))
        c = E(lex4, rng.randint(1, 4), rng.randint(1, 4))
        total = (
            a.commutator(b.commutator(c))
            + b.commutator(c.commutator(a))
            + c.commutator(a.commutator(b))
        )
        assert total.is_zero()


def test_hbar_divisibility_random(lex4):
    rng = random.Random(19)
    for _ in range(30):
        a = random_element(lex4, rng)
        b = random_element(lex4, rng)
        assert (a * b - b * a).divisible_by_hbar()


def test_order_change_consistency(lex4):
    rng = random.Random(23)
    rev = GeneratorOrder(
        4, [(i, j) for i in range(4, 0, -1) for j in range(4, 0, -1)], label="revlex"
    )
    for _ in range(25):
        a = random_element(lex4, rng)
        b = random_element(lex4, rng)
        lhs = (a * b).change_order(rev)
        rhs = a.change_order(rev) * b.change_order(rev)
        assert lhs == rhs
        assert lhs.change_order(lex4) == a * b


def test_mixed_orders_rejected(lex4):
    other = GeneratorOrder.lex(3)
    with pytest.raises(AlgebraError):
        E(lex4, 1, 2) + E(other, 1, 2)


def test_kazhdan_degree_examples():
    p = Pyramid((1, 3, 2, 1))
    order = p.default_order()
    # same-column generator has degree 1
    assert E(order, 2, 3).kazhdan_degree(p) == 1
    # hbar alone has degree 1
    assert AlgebraElement.one(order).times_hbar().kazhdan_degree(p) == 1
    # col(4)=2, col(1)=1
    assert E(order, 1, 4).kazhdan_degree(p) == 2
    assert AlgebraElement.zero(order).kazhdan_degree(p) == float("-inf")


def test_kazhdan_filtration_multiplicative():
    p = Pyramid.subregular(4)
    order = p.default_order()
    rng = random.Random(29)
    for _ in range(40):
        a = random_element(order, rng)
        b = random_element(order, rng)
        ab = a * b
        if ab.is_zero() or a.is_zero() or b.is_zero():
            continue
        assert ab.kazhdan_degree(p) <= a.kazhdan_degree(p) + b.kazhdan_degree(p)
    # equality on monomial pairs whose leading terms do not cancel
    for _ in range(40):
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        a, b = E(order, i, j), E(order, k, l)
        ab = a * b
        assert ab.kazhdan_degree(p) == a.kazhdan_degree(p) + b.kazhdan_degree(p)


def test_json_round_trip(lex4):
    rng = random.Random(31)
    for _ in range(10):
        a = random_element(lex4, rng, n_terms=3, max_len=3)
        data = a.to_json()
        back = AlgebraElement.from_json(data, lex4)
        assert back == a


def test_scale_and_purge(lex4):
    a = E(lex4, 1, 2)
    assert a.scale(0).is_zero()
    assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == a
    assert (a - a).is_zero()
    # coefficients are bare rationals, an int exactly where integral
    key = (((gen_code(4, 1, 2), 1),), 0)
    half = a.scale(Fraction(1, 2))
    assert half.terms == {key: Fraction(1, 2)}
    assert type(half.terms[key]) is Fraction
    for whole in (half + half, half.scale(2)):
        assert whole == a
        assert type(whole.terms[key]) is int
    # cancelling terms drop their key, one hbar-degree at a time
    one_plus_hbar = from_terms(lex4, {(): HbarPoly((1, 1))})
    assert (one_plus_hbar * a - a).terms == {(((gen_code(4, 1, 2), 1),), 1): 1}


@pytest.mark.parametrize("coeff", [0.1, "1/3", HbarPoly((1, 1))], ids=["float", "str", "HbarPoly"])
def test_non_rational_coefficients_are_rejected(lex4, coeff):
    with pytest.raises(TypeError, match="not %s" % type(coeff).__name__):
        AlgebraElement.scalar(lex4, coeff)
    with pytest.raises(TypeError):
        E(lex4, 1, 2).scale(coeff)
    # ints and Fractions are the coefficients, stored exactly
    assert AlgebraElement.scalar(lex4, 3).terms == {((), 0): 3}
    assert AlgebraElement.scalar(lex4, Fraction(1, 3)).terms == {((), 0): Fraction(1, 3)}
    assert type(AlgebraElement.scalar(lex4, Fraction(4, 2)).terms[((), 0)]) is int


def test_normal_order_step_budget(monkeypatch):
    order = GeneratorOrder.lex(3)
    word = tuple(reversed(range(9)))
    pbw = normal_order_word(order, word)
    product = AlgebraElement.one(order)
    for g in word:
        product = product * AlgebraElement.generator(order, *gen_ij(3, g))
    assert pbw == product.terms
    monkeypatch.setattr(algebra, "NORMAL_ORDER_STEP_BUDGET", 50)
    with pytest.raises(AlgebraError, match="step budget"):
        normal_order_word(order, word)


def _ranked_monomial(order, rng, length, pool):
    """A PBW monomial of the given length over generators drawn from pool."""
    word = sorted((rng.choice(pool) for _ in range(length)), key=lambda g: order.ranks[g])
    return algebra._word_to_mono(word)


@pytest.mark.parametrize(
    "N, kind", [(3, "lex"), (4, "lex"), (5, "subregular"), (6, "subregular")]
)
def test_right_generator_kernel_matches_normal_ordering(N, kind):
    # every pair-cache miss m·g with one generator g goes through
    # _right_gen_product; the bubble sort of the whole word is the oracle
    ranked = GeneratorOrder.lex(N) if kind == "lex" else Pyramid.subregular(N).default_order()
    # same ranks, empty pair cache: the recursion runs instead of cache hits
    order = GeneratorOrder(
        N, [gen_ij(N, c) for c in sorted(range(N * N), key=ranked.ranks.__getitem__)], kind
    )
    rng = random.Random(300 + N)
    gens = range(N * N)
    monomials = [_ranked_monomial(order, rng, rng.randint(1, 8), gens) for _ in range(8)]
    # few distinct letters, so exponents repeat
    monomials += [_ranked_monomial(order, rng, 6, rng.sample(gens, 2)) for _ in range(2)]
    monomials += [_ranked_monomial(order, rng, length, gens) for length in (30, 32)]
    assert max(e for m in monomials for _, e in m) >= 3
    for m in monomials:
        for g in gens:
            got = algebra._mono_product(order, m, ((g, 1),))
            assert got == normal_order_word(order, algebra._mono_to_word(m) + (g,)), (m, g)
            assert order._pair_cache[(m, ((g, 1),))] is got
