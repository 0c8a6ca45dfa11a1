from fractions import Fraction

import pytest

from walgebra.algebra import AlgebraElement
from walgebra.pyramid import CharacterPsi, Pyramid, PyramidError


def E(order, i, j):
    return AlgebraElement.generator(order, i, j)


def test_block_numbering_1321_fixture():
    # the (1,3,2,1) picture: 1 | 2,3,4 | 5,6 | 7, columns left to right,
    # top to bottom within a column, rows counted from the top
    p = Pyramid((1, 3, 2, 1))
    assert p.N == 7 and p.n == 3
    expected = {
        1: (3, 1),
        2: (1, 2),
        3: (2, 2),
        4: (3, 2),
        5: (2, 3),
        6: (3, 3),
        7: (3, 4),
    }
    for b, (r, c) in expected.items():
        assert (p.row(b), p.col(b)) == (r, c)
    assert p.col(3) == 2 and p.row(3) == 2


def test_subregular_numbering():
    p = Pyramid.subregular(5)
    assert p.heights == (2, 1, 1, 1)
    assert (p.row(1), p.col(1)) == (1, 1)
    for i in range(2, 6):
        assert p.row(i) == 2
        assert p.col(i) == i - 1


def test_single_block():
    p = Pyramid((1,))
    assert (p.row(1), p.col(1)) == (1, 1)
    assert p.e_pairs() == ()
    assert p.m_basis() == ()
    assert CharacterPsi(p).values == {}


def test_invalid_heights():
    with pytest.raises(PyramidError):
        Pyramid((1, 2, 1, 2))
    with pytest.raises(PyramidError):
        Pyramid((0, 1))
    with pytest.raises(PyramidError):
        Pyramid(())
    # a non-integer height is refused, not truncated or parsed
    with pytest.raises(PyramidError):
        Pyramid((2.5, 1))
    with pytest.raises(PyramidError):
        Pyramid(("2", 1))


def test_nilpotent_e_1321():
    # e = E_35 + E_14 + E_46 + E_67
    assert Pyramid((1, 3, 2, 1)).e_pairs() == ((1, 4), (3, 5), (4, 6), (6, 7))


def test_nilpotent_e_subregular():
    for N in (3, 4, 6):
        assert Pyramid.subregular(N).e_pairs() == tuple((i, i + 1) for i in range(2, N))


def test_e_in_degree_one():
    for p in (Pyramid((1, 3, 2, 1)), Pyramid.subregular(5), Pyramid((2, 3, 2))):
        for i, j in p.e_pairs():
            assert p.degree(i, j) == 1


def test_subalgebras_partition():
    p = Pyramid((1, 3, 2, 1))
    assert len(p.m_basis()) + len(p.p_basis()) == 49
    sub = Pyramid.subregular(5)
    m = set(sub.m_basis())
    assert m == {(i, j) for i in range(3, 6) for j in range(1, i)}
    p_set = set(sub.p_basis())
    for j in range(1, 6):
        assert (1, j) in p_set and (2, j) in p_set


def test_psi_subregular():
    p = Pyramid.subregular(3)
    psi = p.psi()
    assert psi(3, 2) == 1
    assert psi(3, 1) == 0
    with pytest.raises(PyramidError):
        psi(1, 2)
    for N in range(3, 7):
        assert sum(1 for v in Pyramid.subregular(N).psi().values.values() if v) == N - 2


def test_psi_vanishes_on_m_brackets():
    # psi([x,y]) = 0 whenever [x,y] lands back in m: psi is a character,
    # which lets the whittaker gates check only the Lie generators of m
    for N in range(3, 13):
        p = Pyramid.subregular(N)
        psi = p.psi()
        m = p.m_basis()
        for (i, j) in m:
            for (k, l) in m:
                # [E_ij, E_kl] = d_jk E_il - d_li E_kj
                val = Fraction(0)
                if j == k:
                    val += psi(i, l) if p.in_m(i, l) else Fraction(0)
                if l == i:
                    val -= psi(k, j) if p.in_m(k, j) else Fraction(0)
                assert val == 0


def _m_bracket(p, x, y):
    """[E_ij, E_kl] = d_jk E_il - d_li E_kj for x, y in m: the one matrix
    unit that survives (up to sign), or None when the bracket is 0."""
    (i, j), (k, l) = x, y
    if j == k:
        assert l != i and p.in_m(i, l)
        return (i, l)
    if l == i:
        assert p.in_m(k, j)
        return (k, j)
    return None


@pytest.mark.parametrize("N", range(3, 13))
def test_m_generators_generate_m(N):
    # index arithmetic only: the gate set is N - 1 matrix units outside
    # [m, m], and its Lie closure is all of m
    p = Pyramid.subregular(N)
    m = p.m_basis()
    gens = p.m_generators()
    assert len(gens) == N - 1
    assert set(gens) == {(3, 1), (3, 2)} | {(k + 1, k) for k in range(3, N)}
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for x in frontier:
            for y in gens:
                for a, b in ((x, y), (y, x)):
                    br = _m_bracket(p, a, b)
                    if br and br not in closure:
                        new.add(br)
        closure |= new
        frontier = new
    assert closure == set(m)
    brackets = {_m_bracket(p, x, y) for x in m for y in m} - {None}
    assert brackets == set(m) - set(gens)


def test_m_generators_of_general_pyramid():
    # outside [m, m] means one column step down: the degree -1 part of m
    p = Pyramid((1, 3, 2, 1))
    assert p.m_generators() == tuple(x for x in p.m_basis() if p.degree(*x) == -1)


def test_modified_gen():
    N = 5
    p = Pyramid.subregular(N)
    order = p.default_order()
    # Etilde_11 = E_11 - (N-2) hbar
    assert p.modified_gen(1, 1) == E(order, 1, 1) + AlgebraElement.scalar(
        order, -(N - 2)
    ).times_hbar()
    # Etilde_NN = E_NN + hbar
    assert p.modified_gen(N, N) == E(order, N, N) + AlgebraElement.scalar(order, 1).times_hbar()
    # same column, i != j: no sign, no shift
    assert p.modified_gen(2, 1) == E(order, 2, 1)
    # adjacent column: sign flips
    assert p.modified_gen(2, 3) == E(order, 2, 3).scale(-1)


def test_truncate():
    p = Pyramid((1, 3, 2, 1))
    t = p.truncate(1)
    assert t.heights == (1, 3, 2) and t.N == 6
    assert p.truncate(0) is p
    with pytest.raises(PyramidError):
        p.truncate(4)
    assert Pyramid.subregular(5).truncate(1) == Pyramid.subregular(4)
    # truncation preserves the numbering of surviving blocks
    for b in range(1, 7):
        assert (t.row(b), t.col(b)) == (p.row(b), p.col(b))


def test_subregular_is_interned():
    # one pyramid per N, hence one generator order and one pair cache
    for N in range(2, 8):
        p = Pyramid.subregular(N)
        assert Pyramid.subregular(N) is p
        assert Pyramid.parse("subreg:%d" % N) is p
        assert Pyramid.subregular(N).default_order() is p.default_order()
    assert Pyramid.subregular(5) is not Pyramid.subregular(6)
    # a keyword call would key a second cache entry, so it is refused
    with pytest.raises(TypeError):
        Pyramid.subregular(N=5)


def test_subregular_truncation_is_interned():
    assert Pyramid.subregular(7).truncate(2) is Pyramid.subregular(5)
    assert Pyramid((2, 1, 1, 1)).truncate(1) is Pyramid.subregular(4)
    # non-subregular truncations are built as before
    assert Pyramid((2, 2, 1)).truncate(1).heights == (2, 2)


def test_psi_built_once():
    p = Pyramid.subregular(5)
    assert p.psi() is p.psi()
    q = Pyramid((1, 3, 2, 1))
    assert q.psi() is q.psi()


def test_truncate_composes():
    p = Pyramid((1, 3, 2, 1))
    assert p.truncate(1).truncate(2) == p.truncate(3)


def test_parse_spec():
    assert Pyramid.parse("1,3,2,1").heights == (1, 3, 2, 1)
    assert Pyramid.parse("subreg:6") == Pyramid.subregular(6)
    assert Pyramid.parse("subreg:6").spec() == "subreg:6"
    assert Pyramid.parse("1,3,2,1").spec() == "1,3,2,1"


def test_subregular_roles_partition():
    for N in range(3, 13):
        p = Pyramid.subregular(N)
        b, ell, col_last, m = p.subregular_roles()
        union = set(b) | set(ell) | set(col_last) | set(m)
        assert len(b) + len(ell) + len(col_last) + len(m) == N * N
        assert union == {(i, j) for i in range(1, N + 1) for j in range(1, N + 1)}
        # b + l + col_N is exactly the parabolic part, of dimension (N^2+N+2)/2
        assert set(b) | set(ell) | set(col_last) == set(p.p_basis())
        assert len(b) + 2 + N == (N * N + N + 2) // 2
        assert len(b) == len(m)


def test_rho_values():
    p = Pyramid.subregular(5)
    assert p.rho(1) == 2 - 5
    assert p.rho(p.col(5)) == 1
    q = Pyramid((1, 3, 2, 1))
    assert [q.rho(r) for r in (1, 2, 3, 4)] == [-4, -3, 0, 2]
