"""The N+2 generators of the subregular W-algebra, shared by the BK and
Whittaker tests."""

from walgebra.bk import t_element
from walgebra.pyramid import Pyramid


def subregular_w_generators(N: int):
    """T^(1)_[11;0], T^(1)_[21;1], T^(N-1)_[12;1] and T^(r)_[22;1] for
    1 <= r <= N-1."""
    p = Pyramid.subregular(N)
    gens = [
        t_element(p, 1, 1, 0, 1),
        t_element(p, 2, 1, 1, 1),
        t_element(p, 1, 2, 1, N - 1),
    ]
    for r in range(1, N):
        gens.append(t_element(p, 2, 2, 1, r))
    return gens
