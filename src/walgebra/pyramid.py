"""Pyramid combinatorics and the derived Lie-theoretic data.

A pyramid is a unimodal sequence of positive column heights summing to N.
Blocks are numbered column by column from the left, top to bottom inside
a column, with columns bottom-aligned; row indices count from the top.
From a pyramid we derive:

  * the grading deg E_ij = col(j) - col(i), with nilpotent part m
    (negative degrees) and parabolic part p (the rest);
  * the nilpotent element e, the sum of E_ij over horizontally adjacent
    same-row block pairs;
  * the character psi(x) = Tr(e x) on m, a plain dict {(i, j): 0 or 1}
    on the m-basis;
  * the diagonal shifts rho and the modified generators
    Etilde_ij = (-1)^(col(j)-col(i)) (E_ij + delta_ij hbar rho_col(i));
  * truncations: the pyramid with its k rightmost columns removed.

The subregular pyramid (2,1,…,1) gets a dedicated canonical generator
order: the Borel-type generators b = {E_kl : k <= l <= N-1, l >= 2}
first, then E_21 and E_11, then the last column E_1N..E_NN, and the
m-generators last.  This makes both the right quotient by the shifted
m-action and the left quotient by b monomial-selective.
"""

from __future__ import annotations

import functools

from .algebra import AlgebraElement, GeneratorOrder, gen_code, gen_ij


class PyramidError(Exception):
    """Invalid pyramid data or out-of-domain query."""


def _validate_heights(heights):
    if not heights:
        raise PyramidError("empty height sequence")
    for q in heights:
        try:
            ok = int(q) == q and q > 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise PyramidError("column heights must be positive integers: %r" % (heights,))
    # unimodal: weakly increasing, then weakly decreasing
    k = 0
    while k + 1 < len(heights) and heights[k] <= heights[k + 1]:
        k += 1
    for t in range(k, len(heights) - 1):
        if heights[t] < heights[t + 1]:
            raise PyramidError("heights are not unimodal: %r" % (heights,))


class Pyramid:
    """A pyramid with block row/column maps and derived subalgebra data."""

    __slots__ = (
        "heights",
        "N",
        "n",
        "_row",
        "_col",
        "_m_codes",
        "_order",
        "_psi",
    )

    def __init__(self, heights):
        heights = tuple(heights)
        _validate_heights(heights)
        heights = tuple(map(int, heights))
        self.heights = heights
        self.N = sum(heights)
        self.n = max(heights)
        row = [0] * (self.N + 1)
        col = [0] * (self.N + 1)
        b = 0
        for c, q in enumerate(heights, start=1):
            for r in range(self.n - q + 1, self.n + 1):
                b += 1
                row[b] = r
                col[b] = c
        self._row = tuple(row)
        self._col = tuple(col)
        N = self.N
        self._m_codes = frozenset(
            gen_code(N, i, j)
            for i in range(1, N + 1)
            for j in range(1, N + 1)
            if col[j] < col[i]
        )
        self._order = None
        self._psi = None

    # ------------------------------------------------------------------
    @classmethod
    @functools.cache
    def subregular(cls, N: int, /) -> "Pyramid":
        """(2,1,…,1), interned: the table holds one entry per N requested."""
        if N < 2:
            raise PyramidError("subregular pyramid needs N >= 2")
        return cls((2,) + (1,) * (N - 2))

    @classmethod
    def parse(cls, spec: str) -> "Pyramid":
        """Parse a CLI pyramid literal: '1,3,2,1' or 'subreg:5'."""
        spec = spec.strip()
        if spec.startswith("subreg:"):
            return cls.subregular(int(spec.split(":", 1)[1]))
        return cls(tuple(int(t) for t in spec.split(",")))

    def is_subregular(self) -> bool:
        return self.N >= 2 and self.heights == (2,) + (1,) * (self.N - 2)

    def spec(self) -> str:
        if self.is_subregular():
            return "subreg:%d" % self.N
        return ",".join(map(str, self.heights))

    # ------------------------------------------------------------------
    def row(self, block: int) -> int:
        if not 1 <= block <= self.N:
            raise PyramidError("block %d out of range 1..%d" % (block, self.N))
        return self._row[block]

    def col(self, block: int) -> int:
        if not 1 <= block <= self.N:
            raise PyramidError("block %d out of range 1..%d" % (block, self.N))
        return self._col[block]

    def blocks_in_row(self, r: int):
        return tuple(b for b in range(1, self.N + 1) if self._row[b] == r)

    def __eq__(self, other):
        return isinstance(other, Pyramid) and self.heights == other.heights

    def __hash__(self):
        return hash(self.heights)

    def __repr__(self):
        return "Pyramid%r" % (self.heights,)

    # ------------------------------------------------------------------
    # gradings and subalgebras
    # ------------------------------------------------------------------
    def degree(self, i: int, j: int) -> int:
        return self._col[j] - self._col[i]

    def in_m(self, i: int, j: int) -> bool:
        return gen_code(self.N, i, j) in self._m_codes

    def m_basis(self):
        """m-basis of matrix-unit indices (i, j), sorted lexicographically."""
        return tuple(sorted(gen_ij(self.N, c) for c in self._m_codes))

    def m_generators(self):
        """The elements of m_basis() outside [m, m], in the same order.

        [E_ij, E_kl] = d_jk E_il - d_li E_kj, and for two elements of m at
        most one term survives, so E_il lies in [m, m] exactly when some
        block j has col(l) < col(j) < col(i).  The columns are contiguous
        and none is empty, so that holds exactly when deg E_il <= -2: the
        generators are the degree -1 elements.  They span a complement of
        [m, m] and, m being nilpotent, generate m as a Lie algebra: E_31,
        E_32 and E_{k+1,k} (3 <= k <= N-1) on the subregular pyramid.
        """
        return tuple(x for x in self.m_basis() if self.degree(*x) == -1)

    def p_basis(self):
        """The complement of m_basis(), sorted lexicographically."""
        N = self.N
        return tuple(gen_ij(N, c) for c in range(N * N) if c not in self._m_codes)

    def m_codes(self):
        return self._m_codes

    # ------------------------------------------------------------------
    # nilpotent element and character
    # ------------------------------------------------------------------
    def e_pairs(self):
        """Index pairs (i, j) of the summands of the nilpotent element e."""
        out = []
        for i in range(1, self.N + 1):
            for j in range(1, self.N + 1):
                if self._row[i] == self._row[j] and self._col[i] == self._col[j] - 1:
                    out.append((i, j))
        return tuple(sorted(out))

    def psi(self) -> dict:
        """The character as {(i, j): Tr(e E_ij)} on m_basis(), built once
        per pyramid: 1 exactly where E_ji is a summand of e, else 0.  A
        key outside m raises KeyError.  Every caller shares the one dict
        and only reads it."""
        if self._psi is None:
            e_pairs = set(self.e_pairs())
            self._psi = {(i, j): int((j, i) in e_pairs) for i, j in self.m_basis()}
        return self._psi

    # ------------------------------------------------------------------
    # rho shifts and modified generators
    # ------------------------------------------------------------------
    def rho(self, r: int) -> int:
        """n minus the total height of the columns from r rightwards."""
        if not 1 <= r <= len(self.heights):
            raise PyramidError("column %d out of range" % r)
        return self.n - sum(self.heights[r - 1 :])

    def modified_gen(self, i: int, j: int) -> AlgebraElement:
        """Etilde_ij = (-1)^(col j - col i) (E_ij + delta_ij hbar rho_col(i))."""
        order = self.default_order()
        sign = -1 if (self._col[j] - self._col[i]) % 2 else 1
        terms = {(((gen_code(self.N, i, j), 1),), 0): sign}
        shift = self.rho(self._col[i]) if i == j else 0
        if shift:
            terms[((), 1)] = shift
        return AlgebraElement(order, terms)

    # ------------------------------------------------------------------
    # truncation
    # ------------------------------------------------------------------
    def truncate(self, k: int) -> "Pyramid":
        """Drop the k rightmost columns; block numbering is preserved.  A
        truncated subregular pyramid is the interned subregular one."""
        if k < 0 or k >= len(self.heights):
            raise PyramidError("cannot drop %d of %d columns" % (k, len(self.heights)))
        if k == 0:
            return self
        if self.is_subregular():
            return Pyramid.subregular(self.N - k)
        return Pyramid(self.heights[: len(self.heights) - k])

    # ------------------------------------------------------------------
    # canonical generator orders
    # ------------------------------------------------------------------
    def subregular_roles(self):
        """Partition of the generator set for the subregular pyramid.

        Returns (b, l, col_N, m) as lexicographically sorted (i, j) lists:
        b is the Borel-type block E_kl with k <= l <= N-1 and l >= 2,
        l is the two-dimensional subalgebra {E_21, E_11}, col_N is the
        last matrix column, and m is the nilpotent part.
        """
        if not self.is_subregular():
            raise PyramidError("generator roles are defined for subregular pyramids only")
        N = self.N
        b = [(k, l) for k in range(1, N) for l in range(max(k, 2), N)]
        b.sort()
        ell = [(2, 1), (1, 1)]
        col_last = [(i, N) for i in range(1, N + 1)]
        m = sorted(self.m_basis())
        return b, ell, col_last, m

    def default_order(self) -> GeneratorOrder:
        """Canonical order, built once (one pair cache per interned N): for
        subregular pyramids b, E_21, E_11, column N, then m; for general
        pyramids p-generators first and m last, lexicographic in each group."""
        if self._order is None:
            if self.is_subregular():
                b, ell, col_last, m = self.subregular_roles()
                ranked = b + ell + col_last + m
                label = "subregular-canonical"
            else:
                ranked = list(self.p_basis()) + list(self.m_basis())
                label = "m-last"
            self._order = GeneratorOrder(self.N, ranked, label=label)
        return self._order

    def b_codes(self):
        b, _, _, _ = self.subregular_roles()
        return frozenset(gen_code(self.N, i, j) for i, j in b)

    def l_codes(self):
        if not self.is_subregular():
            raise PyramidError("l = span(E_21, E_11) is subregular-specific")
        return (gen_code(self.N, 2, 1), gen_code(self.N, 1, 1))

