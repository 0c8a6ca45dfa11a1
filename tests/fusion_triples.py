"""Seeded fusion triples for the associativity tests: the draw of
tensorj.fuse_power_J, (1, 2, 3) when N >= 3 and then random.Random(seed)
draws, at any sample count and seed."""

import random

from walgebra.modules import fuse
from walgebra.whittaker import canonical_basis


def draw_triples(N: int, samples: int, seed: int) -> list:
    rng = random.Random(seed)
    triples = [(1, 2, 3)] if N >= 3 else []
    while len(triples) < samples:
        triples.append((rng.randint(1, N), rng.randint(1, N), rng.randint(1, N)))
    return triples


def non_associative(N: int, triples) -> list:
    """The triples whose two bracketings of the fused canonical vectors differ."""
    basis = canonical_basis(N)
    bad = []
    for a, b, c in triples:
        va, vb, vc = basis.vector(a), basis.vector(b), basis.vector(c)
        if fuse(fuse(va, vb), vc) != fuse(va, fuse(vb, vc)):
            bad.append((a, b, c))
    return bad
