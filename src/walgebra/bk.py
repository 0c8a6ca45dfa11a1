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

Suffix-first evaluation.  Which completions a partial chain
(i_1, j_1), ..., (i_k, j_k) admits, with their signs, depends on three
values only: its row row(j_k), the budget left r - (cost so far) and its
last column col(j_k).  The next link reads the sign of that row (strict
or non-strict jump), the last column and the budget; the end condition
reads the row; and every later sign is sigma of a later row.  So with

    S(row, b, c) = sum over the admissible links (i_k, j_k) from (row, b, c)
                   of sigma(row(j_k)) * Etilde_{i_k,j_k}
                      * S(row(j_k), b - cost, col(j_k)),
    S(row, 0, c) = 1 if row = j and 0 otherwise,

T^(r)_[ij;x] = S(i, r, none) for r >= 1.  truncated_t fills a table of S
that lives for one call: one product Etilde * S per link of each state (a
few dozen states), where the chain sum takes one product per chain (about
a thousand at r = 5..7).  The product is exact and associative, so the
value equals the chain sum term by term.  _links states the chain rules
once; chain_sum stays as the written definition, which the tests sum
chain by chain as an oracle and the benchmark tracer spans.

The truncated variant computes the chain sum in the pyramid with k
columns removed but substitutes the modified generators of the full
pyramid for the truncated ones; the two differ by hbar-shifts on the
diagonal, so this is not the identity on matrix units.

Both t_element and truncated_t return the AlgebraElement itself; the
defining data (pyramid, truncation, i, j, x, r) is the caller's own
arguments and the memo key.
"""

from __future__ import annotations

from .algebra import AlgebraElement, add_term
from .pyramid import Pyramid

_memo: dict = {}


def _check_args(p: Pyramid, i: int, j: int, x: int, r: int):
    if not (1 <= i <= p.n and 1 <= j <= p.n):
        raise ValueError("row indices (%d,%d) out of range 1..%d" % (i, j, p.n))
    if not (0 <= x <= p.n):
        raise ValueError("sign cutoff x=%d out of range 0..%d" % (x, p.n))
    if r < 0:
        raise ValueError("degree r=%d must be >= 0" % r)


def _sigma(row: int, x: int) -> int:
    return -1 if row <= x else 1


def _links(p: Pyramid, j: int, x: int, row: int, budget: int, last_col):
    """The admissible next links of a partial chain: every
    (i_k, j_k, sigma(row(j_k)), budget left) that may follow a chain
    ending in `row` with `budget` left and last column `last_col` (None
    before the first link).  A link that spends the whole budget is kept
    only when it ends in row j.  The one statement of the chain rules."""
    strict = _sigma(row, x) > 0
    for ik in p.blocks_in_row(row):
        cik = p.col(ik)
        if last_col is not None and (cik <= last_col if strict else cik > last_col):
            continue
        for jk in range(1, p.N + 1):
            cost = p.col(jk) - cik + 1
            if not 1 <= cost <= budget:
                continue
            rjk = p.row(jk)
            if cost < budget or rjk == j:
                yield ik, jk, _sigma(rjk, x), budget - cost


def chain_sum(enum_p: Pyramid, i: int, j: int, x: int, r: int):
    """All admissible chains as (sign, ((i_1,j_1),...,(i_s,j_s))) tuples.

    The written definition of T^(r)_[ij;x]; truncated_t sums the same
    chains suffix-first without listing them."""
    out = []

    def extend(row, budget, last_col, chain, sign):
        for ik, jk, s, rest in _links(enum_p, j, x, row, budget, last_col):
            if rest == 0:
                out.append((sign * s, chain + ((ik, jk),)))
            else:
                extend(enum_p.row(jk), rest, enum_p.col(jk), chain + ((ik, jk),), sign * s)

    extend(i, r, None, (), 1)
    return out


def _suffix_sum(value_p: Pyramid, enum_p: Pyramid, i: int, j: int, x: int, r: int) -> AlgebraElement:
    """S(i, r, None), where S(row, budget, last_col) is the signed sum of
    the products of all admissible completions of a partial chain in that
    state (see the module docstring).  The table lives for one call."""
    order = value_p.default_order()
    factors = {}  # (i_k, j_k) -> sigma(row(j_k)) * Etilde_{i_k j_k} of value_p
    table = {}

    def S(row, budget, last_col):
        key = (row, budget, last_col)
        hit = table.get(key)
        if hit is not None:
            return hit
        out = {}
        for ik, jk, s, rest in _links(enum_p, j, x, row, budget, last_col):
            f = factors.get((ik, jk))
            if f is None:
                f = factors[(ik, jk)] = value_p.modified_gen(ik, jk).scale(s)
            if rest:
                tail = S(enum_p.row(jk), rest, enum_p.col(jk))
                if not tail:
                    continue
                f = f * tail
            for m, c in f.terms.items():
                add_term(out, m, c)
        hit = table[key] = AlgebraElement(order, out)
        return hit

    return S(i, r, None)


def t_element(p: Pyramid, i: int, j: int, x: int, r: int) -> AlgebraElement:
    """T^(r)_[ij;x] over the pyramid p, in PBW normal form."""
    return truncated_t(p, 0, i, j, x, r)


def truncated_t(p: Pyramid, k: int, i: int, j: int, x: int, r: int) -> AlgebraElement:
    """T^(r)_[ij;x] of the k-fold truncated pyramid, embedded back into p.

    The chain rules are read in the truncated pyramid; each truncated
    modified generator is replaced by the full pyramid's one before
    normal ordering.  The element is memoized under
    (p.heights, k, i, j, x, r), and every caller gets the same object,
    as the pair cache hands out its values: read it, never change it.
    """
    key = (p.heights, k, i, j, x, r)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    enum_p = p.truncate(k)
    _check_args(enum_p, i, j, x, r)
    order = p.default_order()
    if r == 0:
        value = AlgebraElement.scalar(order, _sigma(i, x)) if i == j else AlgebraElement.zero(order)
    else:
        value = _suffix_sum(p, enum_p, i, j, x, r)
    _memo[key] = value
    return value


def t1_closed_form(p: Pyramid, i: int, j: int, x: int) -> AlgebraElement:
    """Independent degree-one oracle: sigma(j) * sum of Etilde_{h,k} over
    same-column pairs with row(h) = i, row(k) = j.

    Enumerates pairs directly, bypassing the chain recursion.
    """
    _check_args(p, i, j, x, 1)
    order = p.default_order()
    acc = AlgebraElement.zero(order)
    for h in range(1, p.N + 1):
        if p.row(h) != i:
            continue
        for k in range(1, p.N + 1):
            if p.row(k) == j and p.col(k) == p.col(h):
                acc = acc + p.modified_gen(h, k)
    return acc.scale(_sigma(j, x))
