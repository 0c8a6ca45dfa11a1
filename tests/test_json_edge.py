"""The JSON edge: reports.write_json against json's own indent-1 text, and
the term formatter behind both to_json methods against a rebuild from
the bare term map."""

import io
import json
import os
from fractions import Fraction

import pytest

from walgebra import cli
from walgebra.algebra import AlgebraElement, AlgebraError, gen_code, gen_ij
from walgebra.modules import ModuleElement
from walgebra.pyramid import Pyramid
from walgebra.reports import write_json

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _oracle(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def _written(data) -> str:
    buf = io.StringIO()
    write_json(data, buf)
    return buf.getvalue()


T_ARGS = ["--i", "2", "--j", "2", "--x", "1", "--r", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute-T", "--pyramid", "subreg:4", *T_ARGS],
        ["compute-T", "--pyramid", "1,3,3,1", *T_ARGS],
        ["verify-whittaker", "--N", "3"],
        ["verify-whittaker", "--N", "3", "--canonical"],
        ["compute-J", "--N", "3", "--compare"],
        ["check-omega", "--N", "3"],
        ["selftest", "--N", "3", "--cases", "5"],
    ],
    ids=[
        "compute-T-subreg4",
        "compute-T-1331",
        "verify-whittaker",
        "verify-whittaker-canonical",
        "compute-J-compare",
        "check-omega",
        "selftest",
    ],
)
def test_command_json_is_json_dumps(capsys, monkeypatch, argv):
    # the payload each command hands to the writer, encoded by json itself
    payloads = []

    def recording(data, *files):
        payloads.append(data)
        write_json(data, *files)

    monkeypatch.setattr(cli, "write_json", recording)
    cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert len(payloads) == 1
    assert out == _oracle(payloads[0])


@pytest.mark.parametrize("name", ["j3_report.json", "t_subreg4_2212.json"])
def test_fixture_json_is_json_dumps(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    assert _written(data) == _oracle(data) == text


SYNTHETIC = {
    "empty": {"dict": {}, "list": [], "tuple": ()},
    "nested_empty": [{}, [], [[]], {"a": {}}, [{}], ({},)],
    "tuple": (1, "two", (3, None)),
    "atoms": [None, True, False, 0, -1, 2**200, -(2**200)],
    "floats": [0.0, -1e-7, 1e300, 0.1, -0.0, 1.5],
    "ints": [1, -2, 3],
    "strs": ["a", "b\"", "ℏ"],
    "mixed": [1, "x", None, 2.5, True, [], {}],
    "text": 'quote " backslash \\ tab \t newline \n nul \x00 bell \x07 del \x7f ℏ⊗ℏ',
    "keys": {"ℏ": 1, "⊗": 2, 'q"': 3, "\\": 4, "\n": 5, "": 6, "B": 7, "a": 8},
    "deep": {"a": {"b": {"c": {"d": {"e": [[[[1, [2, {"f": "g"}]]]]]}}}}},
    "many": [{"i": i, "v": [str(i), i]} for i in range(3000)],
}


def test_synthetic_json_is_json_dumps():
    assert _written(SYNTHETIC) == _oracle(SYNTHETIC)
    for value in SYNTHETIC.values():
        assert _written(value) == _oracle(value)
        assert _written([value]) == _oracle([value])
    for atom in (None, True, False, 7, -0.5, "ℏ", [], {}, ()):
        assert _written(atom) == _oracle(atom)


def test_nonfinite_floats_as_json_writes_them():
    data = [float("nan"), float("inf"), -float("inf"), {"x": [float("inf")]}]
    assert _written(data) == _oracle(data)


@pytest.mark.parametrize("depth", [0, 1, 4])
def test_non_str_key_raises_type_error(depth):
    # json would write the int key as "1"; the writer takes str keys only
    data = {1: "one"}
    for _ in range(depth):
        data = {"k": [data]}
    assert json.dumps(data)
    with pytest.raises(TypeError):
        write_json(data, io.StringIO())


def test_unserializable_value_raises_type_error():
    for data in (Fraction(1, 2), {"x": {1, 2}}, [[[object()]]]):
        with pytest.raises(TypeError):
            write_json(data, io.StringIO())


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_outer_levels_stream_in_batches():
    # a long list near the top goes out in several writes, none of them
    # the whole document, and every file gets the same text
    data = {"element": {"terms": [{"coeff": ["1/1"], "mono": [[1, 2, 1]]}] * 4000}}
    a, b = _Recorder(), _Recorder()
    write_json(data, a, b)
    assert a.writes == b.writes
    assert len(a.writes) > 2
    text = "".join(a.writes)
    assert text == _oracle(data)
    assert max(map(len, a.writes)) < len(text) / 2


def test_emit_encodes_once_for_out_and_stdout(capsys, monkeypatch, tmp_path):
    calls = []

    def recording(data, *files):
        calls.append(len(files))
        write_json(data, *files)

    monkeypatch.setattr(cli, "write_json", recording)
    out_path = tmp_path / "t.json"
    argv = ["compute-T", "--pyramid", "1,3,3,1", *T_ARGS, "--format", "json"]
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert calls == [2]
    assert out_path.read_bytes() == out.encode("utf-8")
    assert json.loads(out)["element"]["terms"]


# ----------------------------------------------------------------------
# the term formatter
# ----------------------------------------------------------------------
def _json_rebuilt(el) -> list:
    """to_json's "terms" rebuilt from el.terms, without _grouped: one term
    per key less its degree, a "p/q" at every degree up to the largest,
    in the documented order (_order_key)."""
    N = el.N
    by_key = {}
    for k, c in el.terms.items():
        by_key.setdefault(k[:-1], {})[k[-1]] = Fraction(c)
    terms = []
    for key, by_d in by_key.items():
        coeff = [by_d.get(d, Fraction(0)) for d in range(max(by_d) + 1)]
        term = {
            "mono": [[*gen_ij(N, g), e] for g, e in key[0]],
            "coeff": ["%d/%d" % (c.numerator, c.denominator) for c in coeff],
        }
        if len(key) > 1:
            term["slots"] = list(key[1])
        terms.append(term)
    return sorted(terms, key=_order_key)


P3 = Pyramid.subregular(3)
ORDER = P3.default_order()
E21 = ((gen_code(3, 2, 1), 1),)
E12_E33 = ((gen_code(3, 1, 2), 1), (gen_code(3, 3, 3), 2))

ALGEBRA = {
    "fractions": {(E21, 0): Fraction(1, 2), (E12_E33, 1): Fraction(-7, 3), ((), 0): 4},
    "degree-gap": {(E21, 2): Fraction(5, 6)},
    "unit": {((), 0): -1, ((), 3): Fraction(2, 9)},
    "zero": {},
}
MODULE = {
    "fractions": {(E21, (1, 2), 0): Fraction(1, 2), (E12_E33, (3, 1), 1): -3},
    "degree-gap": {(E21, (2, 2), 2): Fraction(-5, 4)},
    "repeated-monomial": {
        (E12_E33, (1, 2), 0): 2,
        (E12_E33, (2, 1), 0): Fraction(1, 3),
        (E12_E33, (2, 1), 2): -1,
        (E12_E33, (1, 1), 1): 7,
    },
    "unit": {((), (1, 3), 0): 1, ((), (3, 1), 1): Fraction(-1, 2)},
    "zero": {},
}


def _order_key(term):
    """The documented term order: slots, then total degree, then the rank
    sequence of the monomial."""
    mono = [(ORDER.ranks[gen_code(3, i, j)], e) for i, j, e in term["mono"]]
    return term.get("slots", []), sum(e for _, e in mono), mono


@pytest.mark.parametrize("case", sorted(ALGEBRA))
def test_algebra_to_json_matches_rebuild(case):
    el = AlgebraElement(ORDER, ALGEBRA[case])
    data = el.to_json()
    assert data == {"N": 3, "terms": _json_rebuilt(el)}
    assert data["terms"] == sorted(data["terms"], key=_order_key)
    assert AlgebraElement.from_json(data, ORDER) == el


@pytest.mark.parametrize("case", sorted(MODULE))
def test_module_to_json_matches_rebuild(case):
    el = ModuleElement(P3, 2, MODULE[case])
    data = el.to_json()
    assert data == {"N": 3, "t": 2, "terms": _json_rebuilt(el)}
    assert data["terms"] == sorted(data["terms"], key=_order_key)
    assert ModuleElement.from_json(data, P3) == el


def test_degree_gap_fills_zeros():
    el = AlgebraElement(ORDER, ALGEBRA["degree-gap"])
    assert el.to_json()["terms"] == [{"mono": [[2, 1, 1]], "coeff": ["0/1", "0/1", "5/6"]}]
    assert AlgebraElement.zero(ORDER).to_json() == {"N": 3, "terms": []}


def test_from_json_rejects_a_repeated_monomial():
    # to_json writes each key once; a second entry for a key is corrupt
    # input, neither summed nor overwritten
    twice = [{"mono": [], "coeff": ["1/1"]}, {"mono": [], "coeff": ["2/1"]}]
    with pytest.raises(AlgebraError, match="twice"):
        AlgebraElement.from_json({"N": 3, "terms": twice}, ORDER)
    slotted = [dict(t, slots=[1, 2]) for t in twice]
    with pytest.raises(AlgebraError, match="twice"):
        ModuleElement.from_json({"N": 3, "t": 2, "terms": slotted}, P3)
    # one monomial at two slot tuples is two keys
    apart = [dict(twice[0], slots=[1, 2]), dict(twice[1], slots=[2, 1])]
    back = ModuleElement.from_json({"N": 3, "t": 2, "terms": apart}, P3)
    assert back == ModuleElement(P3, 2, {((), (1, 2), 0): 1, ((), (2, 1), 0): 2})


@pytest.mark.parametrize("slots", [[1], [1, 2, 3], []])
def test_module_from_json_rejects_slots_of_another_rank(slots):
    data = {"N": 3, "t": 2, "terms": [{"mono": [], "slots": slots, "coeff": ["1/1"]}]}
    with pytest.raises(AlgebraError, match="rank is 2"):
        ModuleElement.from_json(data, P3)


@pytest.mark.parametrize("slots", [[1, 4], [0, 1], [1, 2.0], [True, 1]])
def test_module_from_json_rejects_a_slot_outside_one_to_n(slots):
    data = {"N": 3, "t": 2, "terms": [{"mono": [], "slots": slots, "coeff": ["1/1"]}]}
    with pytest.raises(AlgebraError, match=r"outside 1\.\.3"):
        ModuleElement.from_json(data, P3)


@pytest.mark.parametrize(
    "mono",
    [
        [[3, 2, 1], [1, 1, 1]],  # an m-letter before an l-letter: not PBW
        [[1, 1, 2], [1, 1, 1]],  # one generator split over two exponents
        [[1, 1, 0]],  # a zero exponent
        [[1, 1, -1]],
        [[1, 1, 1.0]],
        [[1.0, 1, 1]],
        [[2, 1, 1], [1, 1.0, 1]],
        [[True, 1, 1]],
    ],
    ids=[
        "ranks-decrease",
        "split-exponent",
        "zero-exponent",
        "negative-exponent",
        "float-exponent",
        "float-index",
        "float-index-second",
        "bool-index",
    ],
)
def test_from_json_rejects_a_monomial_not_in_pbw_form(mono):
    # to_json writes PBW monomials of int entries only; any other reads
    # back as a key no product builds, and one with an interior m-letter
    # would pass the trailing-letter reducedness guard of fuse
    term = {"mono": mono, "coeff": ["1/1"]}
    with pytest.raises(AlgebraError, match="not in PBW form|must be ints"):
        AlgebraElement.from_json({"N": 3, "terms": [term]}, ORDER)
    with pytest.raises(AlgebraError, match="not in PBW form|must be ints"):
        ModuleElement.from_json({"N": 3, "t": 1, "terms": [dict(term, slots=[1])]}, P3)


@pytest.mark.parametrize(
    "coeff",
    ["1/0", "x", 1.5, 1, "1", "1/-2", "1.5/1", " 1/1", None, ["1/1"]],
    ids=["zero-den", "word", "float", "int", "no-slash", "neg-den", "decimal", "space", "null", "list"],
)
def test_from_json_rejects_a_coefficient_not_p_over_q(coeff):
    term = {"mono": [[2, 1, 1]], "coeff": ["0/1", coeff]}
    with pytest.raises(AlgebraError, match="p/q"):
        AlgebraElement.from_json({"N": 3, "terms": [term]}, ORDER)
    with pytest.raises(AlgebraError, match="p/q"):
        ModuleElement.from_json({"N": 3, "t": 1, "terms": [dict(term, slots=[1])]}, P3)


def test_from_json_reads_every_p_over_q_it_writes():
    term = {"mono": [[2, 1, 1], [1, 1, 3]], "coeff": ["0/1", "-6/4", "10/5", "0/7"]}
    el = AlgebraElement.from_json({"N": 3, "terms": [term]}, ORDER)
    mono = ((gen_code(3, 2, 1), 1), (gen_code(3, 1, 1), 3))
    assert el.terms == {(mono, 1): Fraction(-3, 2), (mono, 2): 2}
    assert type(el.terms[(mono, 2)]) is int


_TERM = {"mono": [[2, 1, 1]], "slots": [1], "coeff": ["1/1"]}


def _without(term, key):
    return {k: v for k, v in term.items() if k != key}


# (input, whether only the module reader reads it); the algebra reader
# ignores "t" and "slots"
MALFORMED = {
    "mono-entry-of-two": ({"N": 3, "t": 1, "terms": [dict(_TERM, mono=[[1, 1]])]}, False),
    "no-coeff": ({"N": 3, "t": 1, "terms": [_without(_TERM, "coeff")]}, False),
    "no-slots": ({"N": 3, "t": 1, "terms": [_without(_TERM, "slots")]}, True),
    "coeff-string": ({"N": 3, "t": 1, "terms": [dict(_TERM, coeff="1/1")]}, False),
    "mono-not-list": ({"N": 3, "t": 1, "terms": [dict(_TERM, mono=5)]}, False),
    "terms-not-list": ({"N": 3, "t": 1, "terms": 7}, False),
    "term-not-dict": ({"N": 3, "t": 1, "terms": [[1]]}, False),
    "t-string": ({"N": 3, "t": "1", "terms": [_TERM]}, True),
    "t-string-no-terms": ({"N": 3, "t": "2", "terms": []}, True),
    "t-negative-no-terms": ({"N": 3, "t": -1, "terms": []}, True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_from_json_rejects_malformed_input_with_algebra_error(case):
    # one error type for every input of the wrong shape, where Python
    # errors (ValueError, KeyError, TypeError) or a silent read came
    # before; a "coeff" string was read character by character
    data, module_only = MALFORMED[case]
    shape = r"needs an int N|needs a list|\[i, j, e\]|rank t="
    with pytest.raises(AlgebraError, match=shape):
        ModuleElement.from_json(data, P3)
    if not module_only:
        with pytest.raises(AlgebraError, match=shape):
            AlgebraElement.from_json(data, ORDER)
