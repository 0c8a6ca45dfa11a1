"""The column twist of criterion 8 and the coefficient maps it is read
with, shared by the acceptance suite and the J tests."""

from walgebra.pyramid import Pyramid
from walgebra.tensorj import SemiclassicalJ


def _remap(s, coeff):
    """A copy of s with each coefficient c of x21^p x11^q at (row, col)
    replaced by coeff(row, col, (p, q), c)."""
    out = SemiclassicalJ(s.N)
    for (row, col), poly in s.entries.items():
        for pq, c in poly.items():
            out.add(row, col, pq[0], pq[1], coeff(row, col, pq, c))
    return out


def negated(s):
    return _remap(s, lambda row, col, pq, c: -c)


def dynamical_part(s):
    """The terms of positive degree in (x21, x11)."""
    return _remap(s, lambda row, col, pq, c: c if pq != (0, 0) else 0)


def column_twist(s):
    """Conjugation by t = diag(t_k), t_k = (-1)^(col(k) - 1), on the
    subregular pyramid.  It fixes m, p, l and the rho-shifts, sends psi to
    -psi, and multiplies the entry at ((a, l), (i, j)) by t_a t_l t_i t_j:
    the sign that turns E_ai ⊗ E_lj into Etilde_ai ⊗ Etilde_lj."""
    p = Pyramid.subregular(s.N)
    t = {k: (-1) ** (p.col(k) - 1) for k in range(1, s.N + 1)}
    return _remap(s, lambda row, col, pq, c: t[row[0]] * t[row[1]] * t[col[0]] * t[col[1]] * c)
