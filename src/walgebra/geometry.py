"""The wonderbolic subspace, its 2-form, and the constant tensor j_c.

Over the subregular pyramid, the wonderbolic subspace w of gl_N is the
direct sum of the nilpotent part m and the Borel-type block
b = span(E_kl : k <= l <= N-1, l >= 2); the subregular nilpotent e
defines the 2-form

    omega(x, y) = Tr(e · [x, y])

on w, computed here by exact matrix algebra over the rationals.  The
basis of w is a plain tuple, b followed by m (wonderbolic_basis), and
omega_matrix gives the Gram matrix on it.  Both m and b are isotropic,
omega is non-degenerate, and its inverse is r_w = j_c - j_c^21 where
j_c is a tensor with first legs in b and second legs in m and j_c^21 is
its leg swap.

Two independent constructions of j_c are kept side by side and checked
against each other:

  * jc_recursive builds the map j_c^21 : m* -> b inductively from the
    first two matrix columns, j_c^21(E*_ij) = delta_{i>2} E_{j,i-1} for
    j <= 2 and E_{j,i-1} + j_c^21(E*_{i-1,j-1}) for j >= 3 (the column
    relation omega(E_{j,i-1}) = -E*_ij + E*_{i-1,j-1} forces the plus
    sign in the second branch);
  * jc_closed_form instantiates the double-sum expression directly.

Both return j_c as a plain term map {(first (i,j), second (i,j)): c}
with int coefficients, built and merged by add_term.

verify_inverse checks isotropy, non-degeneracy, the equality of the two
constructions, and that r_w composed with omega is the identity on w.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import add_term
from .pyramid import Pyramid


class GeometryError(Exception):
    pass


def _matrix_unit(N: int, i: int, j: int):
    m = [[Fraction(0)] * N for _ in range(N)]
    m[i - 1][j - 1] = Fraction(1)
    return m


def _mat_mul(N, a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(N)), Fraction(0)) for j in range(N)]
        for i in range(N)
    ]


def _trace(N, a):
    return sum((a[i][i] for i in range(N)), Fraction(0))


def _e_matrix(p: Pyramid):
    N = p.N
    m = [[Fraction(0)] * N for _ in range(N)]
    for i, j in p.e_pairs():
        m[i - 1][j - 1] = Fraction(1)
    return m


def wonderbolic_basis(N: int) -> tuple:
    """(w, nb): the ordered basis w = b + m of the wonderbolic subspace
    and the size nb of b."""
    b, _, _, m = Pyramid.subregular(N).subregular_roles()
    if len(b) != len(m):
        raise GeometryError("b and m should have equal dimension")
    return tuple(b) + tuple(m), len(b)


def omega_pairing(p: Pyramid, x, y) -> Fraction:
    """Tr(e·[E_x, E_y]) by exact matrix algebra on N x N matrices."""
    N = p.N
    e = _e_matrix(p)
    mx, my = _matrix_unit(N, *x), _matrix_unit(N, *y)
    comm = [
        [u - v for u, v in zip(ru, rv)]
        for ru, rv in zip(_mat_mul(N, mx, my), _mat_mul(N, my, mx))
    ]
    return _trace(N, _mat_mul(N, e, comm))


def omega_matrix(N: int) -> tuple:
    """(w, nb, gram): the wonderbolic basis, the size of b, and the
    antisymmetric Gram matrix of omega on w.

    Entries come from the structure constants: with tr_e(u, v) = 1 exactly
    when u = v+1 and 2 <= v <= N-1 (so that Tr(e E_uv) = tr_e(u, v)),

        omega(E_ab, E_cd) = delta_bc tr_e(a, d) - delta_da tr_e(c, b).

    A random sample of entries is cross-checked against the matrix-product
    definition by the tests.
    """
    if N < 3:
        raise GeometryError("need N >= 3")
    w, nb = wonderbolic_basis(N)

    def tr_e(u: int, v: int) -> int:
        return 1 if (u == v + 1 and 2 <= v <= N - 1) else 0

    gram = [[Fraction(0)] * len(w) for _ in w]
    for ai, (a, b) in enumerate(w):
        for bi, (c, dd) in enumerate(w):
            if ai >= bi:
                continue
            val = Fraction((1 if b == c else 0) * tr_e(a, dd) - (1 if dd == a else 0) * tr_e(c, b))
            gram[ai][bi] = val
            gram[bi][ai] = -val
    return w, nb, gram


def _det_exact(matrix) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    m = [row[:] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _merged(a: dict, b: dict, sign: int) -> dict:
    """a + sign * b for tensors {(first (i,j), second (i,j)): c}."""
    out = dict(a)
    for k, c in b.items():
        add_term(out, k, sign * c)
    return out


def _swap_legs(t: dict) -> dict:
    return {(s, f): c for (f, s), c in t.items()}


def jc_recursive(N: int) -> dict:
    """j_c from the inductive inversion of the omega column relations,
    assembled as a tensor {(first (i,j) in b, second (i,j) in m): c}."""
    if N < 3:
        raise GeometryError("need N >= 3")
    w, nb = wonderbolic_basis(N)
    b = set(w[:nb])
    image: dict = {}

    def j21(i: int, j: int):
        """j_c^21(E*_ij) in b, as a dict (k,l) -> int."""
        key = (i, j)
        hit = image.get(key)
        if hit is not None:
            return hit
        if j <= 2:
            out = {(j, i - 1): 1} if i > 2 else {}
        else:
            out = dict(j21(i - 1, j - 1))
            add_term(out, (j, i - 1), 1)
        image[key] = out
        return out

    jc: dict = {}
    for (i, j) in w[nb:]:
        for bgen, c in j21(i, j).items():
            if bgen not in b:
                raise GeometryError("recursion left b: %r" % (bgen,))
            add_term(jc, (bgen, (i, j)), c)
    return jc


def jc_closed_form(N: int) -> dict:
    """Direct instantiation of the double-sum expression for j_c, in the
    form jc_recursive returns."""
    if N < 3:
        raise GeometryError("need N >= 3")
    jc: dict = {}
    for j in range(2, N):
        for i in range(j + 1, N + 1):
            for l in range(2, j + 1):
                add_term(jc, ((l, l + i - j - 1), (i, j)), 1)
    for i in range(3, N + 1):
        add_term(jc, ((1, i - 1), (i, 1)), 1)
    return jc


def verify_inverse(N: int) -> dict:
    """Cross-check everything; returns a structured report dict."""
    w, nb, gram = omega_matrix(N)
    checks = {}
    # m and b are isotropic: zero diagonal blocks
    iso_b = all(gram[a][b] == 0 for a in range(nb) for b in range(nb))
    iso_m = all(gram[a][b] == 0 for a in range(nb, len(w)) for b in range(nb, len(w)))
    checks["isotropic_b"] = iso_b
    checks["isotropic_m"] = iso_m
    det = _det_exact(gram)
    checks["nondegenerate"] = det != 0
    rec = jc_recursive(N)
    clo = jc_closed_form(N)
    checks["recursive_equals_closed_form"] = rec == clo
    diff = sorted(_merged(rec, clo, -1).items())
    # r_w = j_c - j_c^21 inverts omega: sum_t phi(x_t) y_t with
    # phi = omega(v, .) returns v for every basis vector v of w
    r_w = _merged(rec, _swap_legs(rec), -1)
    checks["antisymmetric"] = not _merged(r_w, _swap_legs(r_w), 1)
    idx = {v: k for k, v in enumerate(w)}

    def phi_of_r_w(a: int) -> dict:
        """sum_t omega(w_a, x_t) y_t over the terms x_t ⊗ y_t of r_w."""
        acc: dict = {}
        for (f, s), c in r_w.items():
            phi = gram[a][idx[f]]
            if phi:
                add_term(acc, s, phi * c)
        return acc

    checks["inverse_on_w"] = all(f in idx for f, _ in r_w) and all(
        phi_of_r_w(a) == {v: 1} for a, v in enumerate(w)
    )
    # e is a 0/1 combination of distinct matrix units, so it lies in w
    # exactly when every summand does; the column-N summand never does
    checks["e_outside_w"] = not all(ij in idx for ij in Pyramid.subregular(N).e_pairs())
    checks["dim_w"] = len(w)
    checks["dim_b"] = nb
    checks["dim_m"] = len(w) - nb
    report = {
        "N": N,
        "checks": checks,
        "ok": all(v for k, v in checks.items() if isinstance(v, bool)),
        "recursive_vs_closed_diff": [
            {"first": list(f), "second": list(s), "coeff": str(c)} for (f, s), c in diff
        ],
    }
    return report
