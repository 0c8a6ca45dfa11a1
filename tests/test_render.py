"""The text form of elements: the signed sums that compute-T prints and
verify-whittaker stores in meta.vectors, pinned byte for byte."""

import hashlib
from fractions import Fraction

import pytest

from walgebra.algebra import AlgebraElement
from walgebra.cli import main
from walgebra.modules import ModuleElement
from walgebra.pyramid import Pyramid
from walgebra.render import render_algebra, render_module

# sha256 of the table stdout of compute-T
COMPUTE_T_DIGESTS = {
    # a scalar T^(0)
    ("subreg:5", "2", "2", "2", "0", "0"): "85c7f44657d7754048c53b466d954008d6b2628ac110c3ce707588fbf4114107",
    ("subreg:5", "1", "2", "1", "3", "0"): "5b1c8458ccfeeca0c7bd9361fbd03b089d23baa25eff8f81210d4a3e199b7d2e",
    # a unit monomial with a coefficient in ℏ
    ("1,3,3,1", "1", "1", "0", "1", "1"): "664ae3a4b37e3031e8d3505934f1854598b0f09147bbc7e588fd71f2f1129668",
    ("1,3,3,1", "2", "1", "1", "2", "1"): "d21fdc267b8e0a67615d7a975f7a72cc3b3cce15e86f0ed18e6e8cd32f06b2e7",
}


@pytest.mark.parametrize("args", sorted(COMPUTE_T_DIGESTS), ids="|".join)
def test_compute_t_table_digests(capsys, args):
    spec, i, j, x, r, k = args
    code = main(
        ["compute-T", "--pyramid", spec, "--i", i, "--j", j, "--x", x, "--r", r, "--truncate", k]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_T_DIGESTS[args]


def test_algebra_edge_cases():
    o = Pyramid.subregular(4).default_order()
    assert render_algebra(AlgebraElement.zero(o)) == "0"
    scalar = AlgebraElement(o, {((), 0): Fraction(-1, 2), ((), 1): 3, ((), 2): 1})
    assert render_algebra(scalar) == "(-1/2 + 3·ℏ + ℏ^2)"
    assert repr(scalar) == "<(-1/2 + 3·ℏ + ℏ^2)>"
    # a unit monomial is its coefficient alone
    assert render_algebra(AlgebraElement(o, {((), 1): 1})) == "ℏ"


def test_module_edge_cases():
    p = Pyramid.subregular(4)
    assert render_module(ModuleElement.zero(p, 0)) == "0"
    # rank 0 writes the unit monomial as ·1, unlike render_algebra
    assert render_module(ModuleElement(p, 0, {((), (), 1): 1})) == "ℏ·1"
    half = ModuleElement(p, 0, {((), (), 0): Fraction(-1, 2), ((), (), 1): 3})
    assert render_module(half) == "(-1/2 + 3·ℏ)·1"
    v3 = ModuleElement(p, 1, {((), (3,), 2): -1})
    assert render_module(v3) == "-ℏ^2·1⊗v3"
    assert repr(v3 + ModuleElement(p, 1, {(((0, 2),), (1,), 0): 1})) == "<E[1,1]^2⊗v1 - ℏ^2·1⊗v3>"
