"""The column twist of criterion 8 and the term maps it is read with,
shared by the acceptance suite and the J tests.  A semi-classical tensor
is the term map {(row, col, p, q): c} of c·x21^p·x11^q at (row, col)."""

from walgebra.pyramid import Pyramid


def negated(s):
    return {k: -c for k, c in s.items()}


def dynamical_part(s):
    """The terms of positive degree in (x21, x11)."""
    return {k: c for k, c in s.items() if k[2:] != (0, 0)}


def column_twist(N, s):
    """Conjugation by t = diag(t_k), t_k = (-1)^(col(k) - 1), on the
    subregular pyramid of gl_N.  It fixes m, p, l and the rho-shifts, sends
    psi to -psi, and multiplies the entry at ((a, l), (i, j)) by
    t_a t_l t_i t_j: the sign that turns E_ai ⊗ E_lj into
    Etilde_ai ⊗ Etilde_lj."""
    p = Pyramid.subregular(N)
    t = {k: (-1) ** (p.col(k) - 1) for k in range(1, N + 1)}
    return {
        (row, col, x21, x11): t[row[0]] * t[row[1]] * t[col[0]] * t[col[1]] * c
        for (row, col, x21, x11), c in s.items()
    }
