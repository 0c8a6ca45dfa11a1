import json
import os

import pytest

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
    "argv",
    [
        ["compute-T", "--pyramid", "subreg:3"],
        ["compute-J", "--N", "1"],
        ["selftest", "--N", "1"],
        ["verify-whittaker", "--N", "1"],
        ["check-omega", "--N", "2"],
        ["compute-T", "--pyramid", "3,1,2", "--i", "1", "--j", "1", "--x", "0", "--r", "1"],
        ["compute-T", "--pyramid", "1,2,1", "--i", "5", "--j", "1", "--x", "0", "--r", "1"],
        ["selftest", "--N", "3", "--cases", "0"],
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
def test_usage_error_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


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
