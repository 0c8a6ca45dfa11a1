"""Degree-filtered invariant generators T^(r)_[ij;x] and their truncations.

For row indices 1 <= i, j <= n, a sign cutoff 0 <= x <= n (rows 1..x get
sign -, rows x+1..n get +), and a filtration degree r >= 0, the element
T^(r)_[ij;x] is a signed sum over chains of block-index pairs

    (i_1, j_1), ..., (i_s, j_s),   1 <= s <= r,

subject to: row(i_1) = i and row(j_s) = j; consecutive links satisfy
row(j_k) = row(i_{k+1}); every factor moves weakly rightwards,
col(i_k) <= col(j_k); the total filtration cost
sum(col(j_k) - col(i_k) + 1) equals r; and the column jump at each link
is strict (col(j_k) < col(i_{k+1})) when the linking row carries sign +
and non-strict the other way (col(j_k) >= col(i_{k+1})) when it carries
sign -.  Each chain contributes

    sigma(row(j_1)) ... sigma(row(j_s)) * Etilde_{i_1,j_1} ... Etilde_{i_s,j_s}

normal-ordered once, and T^(0)_[ij;x] = delta_ij * sigma(i).  The sign
product runs over all s links; the degenerate s = 0 case then reproduces
the T^(0) normalization, and the fixture T^(1)_[21;x=1] = -E_21 pins the
convention (see tests).

The truncated variant computes the chain sum in the pyramid with k
columns removed but substitutes the modified generators of the full
pyramid for the truncated ones; the two differ by hbar-shifts on the
diagonal, so this is not the identity on matrix units.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement
from .pyramid import Pyramid

_memo: dict = {}


@dataclass(frozen=True)
class TGenerator:
    """A computed T-element together with its defining data."""

    pyramid: Pyramid
    truncation: int
    i: int
    j: int
    x: int
    r: int
    value: AlgebraElement

    def label(self) -> str:
        pre = "" if self.truncation == 0 else "[k=%d]" % self.truncation
        return "%sT(%d,%d;%d)^(%d)" % (pre, self.i, self.j, self.x, self.r)


def _check_args(p: Pyramid, i: int, j: int, x: int, r: int):
    if not (1 <= i <= p.n and 1 <= j <= p.n):
        raise ValueError("row indices (%d,%d) out of range 1..%d" % (i, j, p.n))
    if not (0 <= x <= p.n):
        raise ValueError("sign cutoff x=%d out of range 0..%d" % (x, p.n))
    if r < 0:
        raise ValueError("degree r=%d must be >= 0" % r)


def chain_sum(enum_p: Pyramid, i: int, j: int, x: int, r: int):
    """All admissible chains as (sign, ((i_1,j_1),...,(i_s,j_s))) tuples."""
    by_row = {row: enum_p.blocks_in_row(row) for row in range(1, enum_p.n + 1)}
    col = enum_p.col
    row = enum_p.row

    def sigma(rw: int) -> int:
        return -1 if rw <= x else 1

    out = []
    blocks = range(1, enum_p.N + 1)

    def extend(cur_row, budget, prev_jcol, prev_sigma, chain, sign):
        for ik in by_row[cur_row]:
            cik = col(ik)
            if prev_jcol is not None:
                if prev_sigma > 0:
                    if not cik > prev_jcol:
                        continue
                else:
                    if not cik <= prev_jcol:
                        continue
            for jk in blocks:
                cost = col(jk) - cik + 1
                if cost < 1 or cost > budget:
                    continue
                rjk = row(jk)
                s2 = sign * sigma(rjk)
                nb = budget - cost
                nchain = chain + ((ik, jk),)
                if nb == 0:
                    if rjk == j:
                        out.append((s2, nchain))
                else:
                    extend(rjk, nb, col(jk), sigma(rjk), nchain, s2)

    extend(i, r, None, None, (), 1)
    return out


def _assemble(value_p: Pyramid, chains) -> AlgebraElement:
    order = value_p.default_order()
    etilde = {}
    acc = AlgebraElement.zero(order)
    for sign, chain in chains:
        prod = None
        for (ik, jk) in chain:
            f = etilde.get((ik, jk))
            if f is None:
                f = value_p.modified_gen(ik, jk)
                etilde[(ik, jk)] = f
            prod = f if prod is None else prod * f
        acc = acc + prod.scale(sign)
    return acc


def t_element(p: Pyramid, i: int, j: int, x: int, r: int) -> TGenerator:
    """T^(r)_[ij;x] over the pyramid p, in PBW normal form."""
    return truncated_t(p, 0, i, j, x, r)


def truncated_t(p: Pyramid, k: int, i: int, j: int, x: int, r: int) -> TGenerator:
    """T^(r)_[ij;x] of the k-fold truncated pyramid, embedded back into p.

    The chains are enumerated in the truncated pyramid; each truncated
    modified generator is replaced by the full pyramid's one before
    normal ordering.
    """
    key = (p.heights, k, i, j, x, r)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    enum_p = p.truncate(k)
    _check_args(enum_p, i, j, x, r)
    order = p.default_order()
    if r == 0:
        sigma_i = -1 if i <= x else 1
        value = AlgebraElement.scalar(order, sigma_i) if i == j else AlgebraElement.zero(order)
    else:
        value = _assemble(p, chain_sum(enum_p, i, j, x, r))
    gen = TGenerator(pyramid=p, truncation=k, i=i, j=j, x=x, r=r, value=value)
    _memo[key] = gen
    return gen


def t1_closed_form(p: Pyramid, i: int, j: int, x: int) -> AlgebraElement:
    """Independent degree-one oracle: sigma(j) * sum of Etilde_{h,k} over
    same-column pairs with row(h) = i, row(k) = j.

    Enumerates pairs directly, bypassing the chain recursion.
    """
    _check_args(p, i, j, x, 1)
    order = p.default_order()
    sigma_j = -1 if j <= x else 1
    acc = AlgebraElement.zero(order)
    for h in range(1, p.N + 1):
        if p.row(h) != i:
            continue
        for k in range(1, p.N + 1):
            if p.row(k) == j and p.col(k) == p.col(h):
                acc = acc + p.modified_gen(h, k)
    return acc.scale(sigma_j)


def subregular_w_generators(N: int):
    """The N+2 generators of the subregular W-algebra:
    T^(1)_[11;0], T^(1)_[21;1], T^(N-1)_[12;1] and T^(r)_[22;1] for
    1 <= r <= N-1."""
    if N < 2:
        raise ValueError("need N >= 2")
    p = Pyramid.subregular(N)
    gens = [
        t_element(p, 1, 1, 0, 1),
        t_element(p, 2, 1, 1, 1),
        t_element(p, 1, 2, 1, N - 1),
    ]
    for r in range(1, N):
        gens.append(t_element(p, 2, 2, 1, r))
    return gens


def in_parabolic(value: AlgebraElement, p: Pyramid) -> bool:
    """True when every monomial factor lies in the parabolic part."""
    m_codes = p.m_codes()
    for mono in value.monomials():
        for g, _ in mono:
            if g in m_codes:
                return False
    return True
