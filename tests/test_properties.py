"""Property-based checks of the algebraic identities on randomized data."""

from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from walgebra.algebra import normal_order_word
from walgebra.hbar import HbarPoly
from walgebra.modules import ModuleElement, fuse, reduce_mod_m_psi
from walgebra.pyramid import Pyramid

from hbar_terms import from_terms

ORDER3 = Pyramid.subregular(3).default_order()

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)

hbar_polys = st.lists(rationals, min_size=0, max_size=3).map(HbarPoly)


@st.composite
def algebra_elements(draw, order=ORDER3, max_terms=2, max_len=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        length = draw(st.integers(0, max_len))
        word = sorted(
            (draw(st.integers(0, order.N * order.N - 1)) for _ in range(length)),
            key=lambda g: order.ranks[g],
        )
        mono = []
        for g in word:
            if mono and mono[-1][0] == g:
                mono[-1] = (g, mono[-1][1] + 1)
            else:
                mono.append((g, 1))
        coeff = draw(hbar_polys)
        mono = tuple(mono)
        terms[mono] = terms.get(mono, HbarPoly()) + coeff
    return from_terms(order, terms)


@given(hbar_polys, hbar_polys, hbar_polys)
def test_hbar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@seed(20240603)
@settings(max_examples=100, deadline=None)
@given(hbar_polys, hbar_polys, rationals, st.integers(0, 3))
def test_hbar_coefficient_is_int_exactly_when_integral(a, b, q, k):
    results = (
        a + b,
        a * b,
        a.scale(q),
        a.shift(k),
    )
    for p in results:
        for c in p.coeffs:
            assert (type(c) is int) == (c.denominator == 1), p


@settings(max_examples=60, deadline=None)
@given(algebra_elements(), algebra_elements(), algebra_elements())
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(algebra_elements(), algebra_elements())
def test_commutator_difference_divisible(a, b):
    assert (a * b - b * a).divisible_by_hbar()


@settings(max_examples=40, deadline=None)
@given(algebra_elements(), algebra_elements(), algebra_elements())
def test_commutator_is_derivation(a, b, c):
    # [a, bc] = [a,b] c + b [a,c]
    lhs = a.commutator(b * c)
    rhs = a.commutator(b) * c + b * a.commutator(c)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(algebra_elements(), st.integers(1, 3), st.integers(1, 3))
def test_fuse_bilinear_on_simple_slots(x, k, l):
    p = Pyramid.subregular(3)
    a = reduce_mod_m_psi(ModuleElement.embed(x, p, (k,)))
    vb = ModuleElement.basis_vector(p, l)
    lhs = fuse(a + a, vb)
    rhs = fuse(a, vb) + fuse(a, vb)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(algebra_elements())
def test_reduction_idempotent(x):
    p = Pyramid.subregular(3)
    m = reduce_mod_m_psi(ModuleElement.embed(x, p, (1,)))
    assert reduce_mod_m_psi(m) == m


# ----------------------------------------------------------------------
# matrix representations: an oracle that shares no code with the rewriter
# ----------------------------------------------------------------------
# E_ij -> hbar*e_ij is a representation of U_hbar(gl_N), since
# [hbar e_ij, hbar e_kl] = hbar * (hbar [e_ij, e_kl]); so is its coproduct
# image hbar*(e_ij (x) 1 + 1 (x) e_ij) on C^N (x) C^N.
HBAR_VALUES = (Fraction(1), Fraction(2), Fraction(-1, 3))


def _zero(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _identity(n):
    m = _zero(n)
    for k in range(n):
        m[k][k] = Fraction(1)
    return m


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def rho_vector(N, code, h):
    i, j = divmod(code, N)
    m = _zero(N)
    m[i][j] = h
    return m


def rho_tensor(N, code, h):
    i, j = divmod(code, N)
    m = _zero(N * N)
    for b in range(N):
        m[i * N + b][j * N + b] += h
        m[b * N + i][b * N + j] += h
    return m


def _word_matrix(rho, N, word, h):
    out = _identity(len(rho(N, 0, h)))
    for g in word:
        out = _mat_mul(out, rho(N, g, h))
    return out


def _terms_matrix(rho, N, terms, h):
    """sum over the PBW terms of c * h^d * rho(m)."""
    n = len(rho(N, 0, h))
    total = _zero(n)
    for (mono, d), c in terms.items():
        word = [g for g, e in mono for _ in range(e)]
        m = _word_matrix(rho, N, word, h)
        ch = c * h**d
        total = [[t + ch * x for t, x in zip(rt, rm)] for rt, rm in zip(total, m)]
    return total


@seed(20240601)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 8), max_size=5))
def test_normal_order_word_matches_matrix_representations(word):
    pbw = normal_order_word(ORDER3, word)
    # each rewrite that shortens the word by one letter costs one hbar
    for mono, d in pbw:
        assert d == len(word) - sum(e for _, e in mono)
    for rho in (rho_vector, rho_tensor):
        for h in HBAR_VALUES:
            assert _terms_matrix(rho, 3, pbw, h) == _word_matrix(rho, 3, word, h)


@seed(20240602)
@settings(max_examples=30, deadline=None)
@given(algebra_elements(), algebra_elements())
def test_product_matches_matrix_representations(a, b):
    ab = a * b
    for rho in (rho_vector, rho_tensor):
        for h in HBAR_VALUES:
            lhs = _terms_matrix(rho, 3, ab.terms, h)
            rhs = _mat_mul(_terms_matrix(rho, 3, a.terms, h), _terms_matrix(rho, 3, b.terms, h))
            assert lhs == rhs
