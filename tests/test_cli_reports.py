import json
import os
import subprocess
import sys

import pytest

import walgebra
from walgebra.algebra import AlgebraElement
from walgebra.bk import t_element
from walgebra.cli import main
from walgebra.pyramid import Pyramid
from walgebra.reports import (
    ReportSchemaError,
    VerificationReport,
    load_fixture,
    save_fixture,
    validate_report_data,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_omega_cli(capsys):
    code, out = run_cli(capsys, "check-omega", "--N", "4")
    assert code == 0
    assert "all checks passed" in out


def test_verify_whittaker_cli_json(capsys):
    code, out = run_cli(capsys, "verify-whittaker", "--N", "3", "--canonical", "--format", "json")
    assert code == 0
    data = json.loads(out)
    validate_report_data(data)
    assert data["meta"]["conventions"] == {"v1_exponent": "N-i-2"}
    assert all(c["status"] == "pass" for c in data["checks"])


def test_compute_t_cli_json(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    code, out = run_cli(
        capsys,
        "compute-T",
        "--pyramid",
        "subreg:3",
        "--i",
        "2",
        "--j",
        "1",
        "--x",
        "1",
        "--r",
        "1",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    p = Pyramid.subregular(3)
    el = AlgebraElement.from_json(data["element"], p.default_order())
    assert el == AlgebraElement.generator(p.default_order(), 2, 1).scale(-1)


def test_compute_j_cli_compare(capsys):
    code, out = run_cli(capsys, "compute-J", "--N", "3", "--compare")
    assert code == 0
    assert "convention matched: statement" in out


def test_compute_j_strict_mismatch_exit_code(capsys):
    # at N=5 neither printed convention matches, so --strict exits 1
    code, _ = run_cli(capsys, "compute-J", "--N", "5", "--compare", "--strict")
    assert code == 1
    code, _ = run_cli(capsys, "compute-J", "--N", "5", "--compare")
    assert code == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute-T", "--pyramid", "subreg:3"], "the following arguments are required"),
        (["compute-J", "--N", "1"], "subregular pyramid needs N >= 2"),
        (["selftest", "--N", "1"], "subregular pyramid needs N >= 2"),
        (["verify-whittaker", "--N", "1"], "subregular pyramid needs N >= 2"),
        (["check-omega", "--N", "2"], "check-omega needs N >= 3"),
        (
            ["compute-T", "--pyramid", "3,1,2", "--i", "1", "--j", "1", "--x", "0", "--r", "1"],
            "heights are not unimodal",
        ),
        (
            ["compute-T", "--pyramid", "1,2,1", "--i", "5", "--j", "1", "--x", "0", "--r", "1"],
            "row indices (5,1) out of range",
        ),
        (["selftest", "--N", "3", "--cases", "0"], "--cases must be at least 1"),
    ],
    ids=[
        "missing-args",
        "compute-J-N1",
        "selftest-N1",
        "verify-whittaker-N1",
        "check-omega-N2",
        "not-unimodal",
        "row-out-of-range",
        "selftest-cases-0",
    ],
)
def test_usage_error_exit_code(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " + message in captured.err


# compute-T needs only these; every other layer is imported by the
# command that runs it
COMPUTE_T_MODULES = [
    "walgebra",
    "walgebra.algebra",
    "walgebra.bk",
    "walgebra.cli",
    "walgebra.hbar",
    "walgebra.pyramid",
    "walgebra.render",
    "walgebra.reports",
]

_FOOTPRINT = """
import json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules if m == "walgebra" or m.startswith("walgebra."))

import walgebra.cli
seen = {"import": loaded(), "import_dataclasses": "dataclasses" in sys.modules}
code = walgebra.cli.main(
    ["compute-T", "--pyramid", "subreg:4", "--i", "2", "--j", "2", "--x", "1", "--r", "2"]
)
seen.update(code=code, run=loaded(), run_dataclasses="dataclasses" in sys.modules)
print(json.dumps(seen))
"""


def test_import_footprint_of_compute_t():
    # -S: no site-packages .pth file may pre-import anything
    src = os.path.dirname(os.path.dirname(os.path.abspath(walgebra.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, src],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == COMPUTE_T_MODULES
    assert not seen["import_dataclasses"]
    assert seen["code"] == 0
    assert seen["run"] == COMPUTE_T_MODULES
    assert not seen["run_dataclasses"]


_TRACER = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import walgebra.cli
from tracer import Tracer
tracer = Tracer(0)
tracer.install()
print(json.dumps(tracer.unwrapped()))
"""


def test_benchmark_tracer_installs():
    # the benchmark's tracer binds engine names by class __dict__ lookup, so
    # deleting or renaming a traced name breaks every traced run; a fresh
    # process keeps its wrappers out of this session
    src = os.path.dirname(os.path.dirname(os.path.abspath(walgebra.__file__)))
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER, src, perfbench],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_selftest_small(capsys):
    code, out = run_cli(capsys, "selftest", "--N", "3", "--cases", "25")
    assert code == 0
    assert "all checks passed" in out


def test_report_round_trip(tmp_path):
    rep = VerificationReport(
        command="check-omega",
        N=4,
        pyramid="subreg:4",
        checks=[{"name": "x", "status": "pass", "witness": None, "seconds": 0.01}],
        order_fingerprint="abc",
        meta={"k": [1, 2], "many": list(range(5000)), "text": "ℏ"},
    )
    path = tmp_path / "rep.json"
    save_fixture(rep, str(path))
    # the text spans several write batches and keeps the one-shot layout
    assert path.read_text(encoding="utf-8") == json.dumps(
        rep.to_json(), indent=1, sort_keys=True, ensure_ascii=False
    ) + "\n"
    back = load_fixture(str(path))
    assert back.to_json() == rep.to_json()
    assert back.comparison_payload() == rep.comparison_payload()


def test_report_defaults():
    def make():
        return VerificationReport("selftest", 3, "subreg:3", [], "abc")

    rep = make()
    assert rep.meta == {}
    assert rep.meta is not make().meta
    assert rep.engine_version == walgebra.__version__


def test_report_schema_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"command": "x"}))
    with pytest.raises(ReportSchemaError):
        load_fixture(str(path))
    path.write_text(
        json.dumps(
            {
                "command": "x",
                "N": 3,
                "pyramid": "subreg:3",
                "engine_version": "0",
                "order_fingerprint": "f",
                "checks": [{"name": "a", "status": "maybe", "witness": None, "seconds": 0}],
            }
        )
    )
    with pytest.raises(ReportSchemaError):
        load_fixture(str(path))


def test_golden_j3_report_matches_recomputation(capsys, tmp_path):
    golden = load_fixture(os.path.join(FIXTURES, "j3_report.json"))
    out_path = tmp_path / "fresh.json"
    code, _ = run_cli(
        capsys, "compute-J", "--N", "3", "--compare", "--out", str(out_path)
    )
    assert code == 0
    fresh = load_fixture(str(out_path))
    assert fresh.comparison_payload() == golden.comparison_payload()


def test_golden_t_fixture_matches_recomputation():
    with open(os.path.join(FIXTURES, "t_subreg4_2212.json")) as fh:
        data = json.load(fh)
    p = Pyramid.subregular(4)
    assert data["order_fingerprint"] == p.default_order().fingerprint
    el = AlgebraElement.from_json(data["element"], p.default_order())
    assert el == t_element(p, 2, 2, 1, 2).value


def test_report_determinism_no_timestamps():
    golden = load_fixture(os.path.join(FIXTURES, "j3_report.json"))
    payload = json.dumps(golden.comparison_payload(), sort_keys=True)
    assert "seconds" not in payload
