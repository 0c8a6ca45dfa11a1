import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

import pytest

import walgebra
from walgebra import checks, cli
from walgebra.algebra import AlgebraElement
from walgebra.bk import t_element
from walgebra.cli import main
from walgebra.pyramid import Pyramid
from walgebra.reports import (
    ReportSchemaError,
    comparison_payload,
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


def test_check_omega_record_names(capsys):
    # one record per boolean fact of verify_inverse, in its order
    code, out = run_cli(capsys, "check-omega", "--N", "3", "--format", "json")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == [
        "isotropic_b",
        "isotropic_m",
        "nondegenerate",
        "recursive_equals_closed_form",
        "antisymmetric",
        "inverse_on_w",
        "e_outside_w",
    ]


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
        (
            ["check-omega", "--N", "4", "--out", "/nonexistent/dir/r.json"],
            "--out directory does not exist",
        ),
        (["check-omega", "--N", "3", "--out", FIXTURES], "--out is a directory"),
        (["compute-J", "--N", "3", "--semiclassical"], "unrecognized arguments: --semiclassical"),
        (
            ["compute-T", "--pyramid", "subreg:3", "--i", "1", "--j", "1", "--x", "0", "--r", "1"]
            + ["--strict"],
            "unrecognized arguments: --strict",
        ),
        (["verify-whittaker", "--N", "3", "--strict"], "unrecognized arguments: --strict"),
        (["check-omega", "--N", "3", "--strict"], "unrecognized arguments: --strict"),
        (["selftest", "--N", "3", "--strict"], "unrecognized arguments: --strict"),
        (["compute-J", "--N", "4", "--strict"], "--strict needs --compare"),
        (["compute-J", "--N", "2", "--compare"], "--compare needs N >= 3"),
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
        "out-dir-missing",
        "out-is-dir",
        "compute-J-semiclassical",
        "compute-T-strict",
        "verify-whittaker-strict",
        "check-omega-strict",
        "selftest-strict",
        "compute-J-strict-without-compare",
        "compute-J-compare-N2",
    ],
)
def test_usage_error_exit_code(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " + message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute-T", "--pyramid", "subreg:4", "--i", "2", "--j", "2", "--x", "1", "--r", "2"],
        ["verify-whittaker", "--N", "3"],
        ["compute-J", "--N", "3"],
        ["check-omega", "--N", "3"],
        ["selftest", "--N", "3", "--cases", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_option_is_read(capsys, argv):
    # an option that input checking and the command never read changes
    # nothing, so no subcommand may define one
    parser = cli.build_parser()
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = parser.parse_args(argv, namespace=Recording())
    read.clear()
    cli._check_input(args)
    args.func(args)
    capsys.readouterr()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        a.dest
        for a in subparsers.choices[argv[0]]._actions
        if not isinstance(a, argparse._HelpAction)
    }
    assert options - read == set()


@pytest.mark.parametrize(
    "argv, suite",
    [
        (["verify-whittaker", "--N", "3"], "whittaker_suite"),
        (["compute-J", "--N", "3", "--compare"], "j_suite"),
        (["check-omega", "--N", "3"], "omega_suite"),
        (["selftest", "--N", "3"], "engine_health"),
    ],
    ids=["verify-whittaker", "compute-J", "check-omega", "selftest"],
)
def test_construction_guard(capsys, monkeypatch, argv, suite):
    # a suite that raises is reported as one failed check, with exit 1
    def broken(*args, **kwargs):
        raise RuntimeError("broken suite")

    monkeypatch.setattr(checks, suite, broken)
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    data = json.loads(out)
    validate_report_data(data)
    assert data["checks"] == [
        {"name": "construction", "status": "fail", "witness": "broken suite", "seconds": 0.0}
    ]


def _record_forks(monkeypatch):
    """Wrap os.fork; the returned list gets each worker's pid."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def deadline():
    """Fail a test that waits on a worker for a minute, instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("waited a minute on the engine battery worker")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


@pytest.mark.parametrize("N", [3, 4])
def test_selftest_worker_matches_inline(capsys, monkeypatch, tmp_path, deadline, N):
    # the battery's records come back from the worker as they are made inline
    def payload(name):
        path = tmp_path / name
        assert run_cli(capsys, "selftest", "--N", str(N), "--out", str(path))[0] == 0
        return comparison_payload(load_fixture(str(path)))

    pids = _record_forks(monkeypatch)
    forked = payload("forked.json")
    _assert_reaped(pids)
    monkeypatch.delattr(os, "fork")
    assert payload("inline.json") == forked


def test_selftest_dead_worker(capsys, monkeypatch, deadline):
    # a worker that exits without a result is one failed construction check
    monkeypatch.setattr(checks, "engine_health", lambda *args: os._exit(3))
    pids = _record_forks(monkeypatch)
    code, out = run_cli(capsys, "selftest", "--N", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["checks"] == [
        {
            "name": "construction",
            "status": "fail",
            "witness": "engine battery worker exited with status 3",
            "seconds": 0.0,
        }
    ]
    _assert_reaped(pids)


def test_selftest_worker_reaped_when_a_parent_suite_raises(capsys, monkeypatch, deadline):
    def broken(*args, **kwargs):
        raise RuntimeError("broken suite")

    monkeypatch.setattr(checks, "whittaker_suite", broken)
    pids = _record_forks(monkeypatch)
    code, out = run_cli(capsys, "selftest", "--N", "3", "--format", "json")
    assert code == 1
    assert [c["witness"] for c in json.loads(out)["checks"]] == ["broken suite"]
    _assert_reaped(pids)


def test_selftest_cold_process_output():
    # the worker leaves through os._exit, so it writes none of the parent's
    # stdout and the report is printed once
    src = os.path.dirname(os.path.dirname(os.path.abspath(walgebra.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _WALG, "selftest", "--N", "3", "--format", "json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
    assert [c["name"] for c in data["checks"][:4]] == [
        "pbw-associativity",
        "jacobi",
        "commutator-hbar-divisibility",
        "order-change-consistency",
    ]


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


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")

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
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER, src, PERFBENCH],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _perfbench_modules():
    """The benchmark's workload menus, output checks and runner, imported
    read-only."""
    sys.path.insert(0, PERFBENCH)
    try:
        import menus
        import ops
        import run
    finally:
        sys.path.remove(PERFBENCH)
    return menus, ops, run


_WALG = "import sys; from walgebra.cli import main; sys.exit(main(sys.argv[1:]))"

GOLDEN_INPUTS = (
    ("canonical-J", "J|N6|compare"),
    ("selftest", "S|N5"),
    ("t-generators", "T|subreg:7|k0|i1|j2|x1|r5"),
    # a truncated input, whose label carries the "[k=1]" prefix
    ("t-generators", "T|subreg:7|k1|i1|j2|x1|r5"),
    # the cheapest golden triple: canonical_basis(6).vector and fuse
    ("triple-fusion", "F|N6|6,3,6"),
)


@pytest.mark.parametrize("workload, key", GOLDEN_INPUTS, ids=[k for _, k in GOLDEN_INPUTS])
def test_benchmark_golden_digests(workload, key, tmp_path):
    # one cold benchmark child per input, checked as the benchmark checks
    # it, so a byte change in a report, a compute-T payload or a fused
    # triple fails here first
    menus, ops, _ = _perfbench_modules()
    argv = dict(menus.candidates(workload))[key]
    child = os.path.join(PERFBENCH, "child.py")
    proc = subprocess.run(
        [sys.executable, child, str(tmp_path / "meta.json"), "0", "0", "--", *argv],
        capture_output=True,
        env=ops.child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(ops.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["digests"]
    digest, _ = ops.check_output(workload, proc.stdout)
    assert digest == golden[key]


TRACED_INPUTS = (
    ("selftest", "S|N5"),
    ("triple-fusion", "F|N6|6,3,6"),
    ("t-generators", "T|subreg:7|k0|i1|j2|x1|r5"),
)


@pytest.mark.parametrize("workload, key", TRACED_INPUTS, ids=[k for _, k in TRACED_INPUTS])
def test_benchmark_traced_child_meets_predictions(workload, key, tmp_path):
    # one traced benchmark child per input, read as the benchmark's traced
    # mode reads it: a change that loses a traced span or moves a count
    # the benchmark predicts (a whittaker.build_basis call, a fuse) fails
    # here, not only in a traced benchmark run
    menus, ops, run = _perfbench_modules()
    argv = dict(menus.candidates(workload))[key]
    meta_path = tmp_path / "meta.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), str(meta_path), "1", "0", "--", *argv],
        capture_output=True,
        env=ops.child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(meta_path.read_text(encoding="utf-8"))["trace"]
    per_op = [run.op_layer_metrics(trace, len(proc.stdout))]
    assert run.PREDICTIONS[workload]
    assert run.check_predictions(workload, per_op) == []


def test_selftest_small(capsys):
    code, out = run_cli(capsys, "selftest", "--N", "3", "--cases", "25")
    assert code == 0
    assert "all checks passed" in out


def test_fusion_records_time_their_own_triples():
    # fuse_power_J runs every triple before the records are built, so each
    # record takes its triple's own time from the case
    records = checks.fusion_suite(4)
    assert [r["name"] for r in records] == [
        "fuse-assoc-123", "fuse-assoc-441", "fuse-assoc-344", "fuse-assoc-343"
    ]
    for r in records:
        assert r["status"] == "pass"
        assert r["seconds"] > 0


def test_report_round_trip(tmp_path):
    rep = {
        "command": "check-omega",
        "N": 4,
        "pyramid": "subreg:4",
        "engine_version": walgebra.__version__,
        "order_fingerprint": "abc",
        "checks": [{"name": "x", "status": "pass", "witness": None, "seconds": 0.01}],
        "meta": {"k": [1, 2], "many": list(range(5000)), "text": "ℏ"},
    }
    path = tmp_path / "rep.json"
    save_fixture(rep, str(path))
    # the text spans several write batches and keeps the one-shot layout
    assert path.read_text(encoding="utf-8") == json.dumps(
        rep, indent=1, sort_keys=True, ensure_ascii=False
    ) + "\n"
    back = load_fixture(str(path))
    assert back == rep
    assert comparison_payload(back) == comparison_payload(rep)
    assert comparison_payload(rep)["checks"] == [{"name": "x", "status": "pass", "witness": None}]
    assert rep["checks"][0]["seconds"] == 0.01


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
    assert comparison_payload(fresh) == comparison_payload(golden)


REPORT_DIGESTS = {
    ("check-omega", "--N", "3"): "8934dd3450b33926dfac745299b811262a5f3670367b7318625d901115b3d896",
    ("check-omega", "--N", "4"): "3d6214560142981476b1f4fb885cf5b142271adbbb07b9fd39f8c9367e418234",
    ("check-omega", "--N", "5"): "e7e26d687792a8cf4d3a399dd135d59d5dd259f3a2f5f75d74ff689f8d8ac98f",
    ("check-omega", "--N", "6"): "6ca6ff6407b7f3fa4e55ede3da2506d672f73bb54a4bcc456b73cacd924f1123",
    ("check-omega", "--N", "7"): "b63703a66cc747b210e14b08e0d0e5cbda1029e2c87041179c61a4275affb957",
    ("check-omega", "--N", "8"): "d74b87c413ef3a45d910eb8b40cea5255cd56c1de99f67cb587977c690aa8dfe",
    # the literal N=5 mismatch data of the semi-classical comparison
    ("compute-J", "--N", "5", "--compare"): "6a60904e581fbde4d70445f5cca59c0cf0cd26a767168940e3473dffb9c730fb",
    # meta.vectors holds each invariant vector as render_module text
    ("verify-whittaker", "--N", "3"): "64c438e1c2828820e597cc277953c4a78239d5991cc8c11be180be4daec153e3",
    ("verify-whittaker", "--N", "3", "--canonical"): "706e368fc6b58f22f85a41bd0780a4228e154fe064820480119c9ba18a251051",
    ("verify-whittaker", "--N", "4"): "643fb5fb35e09b34a1daed141e87da63750992c27c912d8fa9ab11b157d26573",
    ("verify-whittaker", "--N", "4", "--canonical"): "d77165bc77edb9c746757dabec85d62725d6e35714e651068e0936a3a25761f1",
    ("verify-whittaker", "--N", "5"): "1f2d05ad401058db14d324755f43bb2a24f0718783727f838385db802eb5d10a",
    ("verify-whittaker", "--N", "5", "--canonical"): "9157791972585188db14ea8eef686ee3c7d690896b319211d7a66f82b79488a0",
    ("verify-whittaker", "--N", "6"): "ad8e78a540c13fc749ae1af28b02505e3bfbae0e4f010cec53f8441b1de2189e",
    ("verify-whittaker", "--N", "6", "--canonical"): "1bda409edc734b5d56c85c865567aec57618b09bc78a74f5e956687e5c87ca3e",
}


@pytest.mark.parametrize(
    "argv", sorted(REPORT_DIGESTS), ids=lambda argv: "-".join(a.lstrip("-") for a in argv)
)
def test_report_payload_digests(capsys, tmp_path, argv):
    # the whole deterministic report, meta included, pinned byte for byte
    path = tmp_path / "report.json"
    code, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    payload = json.dumps(comparison_payload(load_fixture(str(path))), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == REPORT_DIGESTS[argv]


def test_golden_t_fixture_matches_recomputation():
    with open(os.path.join(FIXTURES, "t_subreg4_2212.json")) as fh:
        data = json.load(fh)
    p = Pyramid.subregular(4)
    assert data["order_fingerprint"] == p.default_order().fingerprint
    el = AlgebraElement.from_json(data["element"], p.default_order())
    assert el == t_element(p, 2, 2, 1, 2)


def test_report_determinism_no_timestamps():
    golden = load_fixture(os.path.join(FIXTURES, "j3_report.json"))
    payload = json.dumps(comparison_payload(golden), sort_keys=True)
    assert "seconds" not in payload
