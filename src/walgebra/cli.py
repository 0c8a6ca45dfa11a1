"""Command-line front end.

Subcommands:

  compute-T         one T-element (optionally truncated), emitted as JSON
  verify-whittaker  build the invariant vectors and check them all
  compute-J         the tensor matrix, its structure, optional limit/diff
  check-omega       the wonderbolic form and both j_c constructions
  selftest          engine health plus the identity suites at one N

Each command imports the layers it runs.  Importing this module loads
only what compute-T needs (hbar, algebra, pyramid, bk, render, reports);
the other commands import their suites from checks, and through it
modules, whittaker, geometry and tensorj, inside their own functions.
A cold walg process compiles or loads every module it imports, so a
compute-T never pays for the verification layers.

Exit codes: 0 on success; 1 on hard verification failure or, under
--strict, on any failed check or comparison mismatch; 2 on usage errors,
which include input rejected before any computation: a bad pyramid
literal or truncation, T-indices out of range, N < 2, N < 3 for
check-omega, and selftest --cases < 1.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bk import _check_args, truncated_t
from .pyramid import Pyramid, PyramidError
from .render import render_algebra
from .reports import VerificationReport, write_json


def _emit(data: dict, table, args) -> None:
    """Write data to --out, then data (--format json) or table() to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_json(data, fh)
    if args.format == "json":
        write_json(data, sys.stdout)
    else:
        print(table())


def _exit_code(report: VerificationReport, args, hard_fail: bool = False) -> int:
    if hard_fail:
        return 1
    if args.strict and not report.ok():
        return 1
    return 0


def cmd_compute_t(args) -> int:
    p = Pyramid.parse(args.pyramid)
    t = truncated_t(p, args.truncate, args.i, args.j, args.x, args.r)
    payload = {
        "pyramid": p.spec(),
        "truncate": args.truncate,
        "i": args.i,
        "j": args.j,
        "x": args.x,
        "r": args.r,
        "label": t.label(),
        "element": t.value.to_json(),
        "order_fingerprint": p.default_order().fingerprint,
        "engine_version": __version__,
    }
    _emit(payload, lambda: "%s = %s" % (t.label(), render_algebra(t.value)), args)
    return 0


def cmd_verify_whittaker(args) -> int:
    from .checks import whittaker_suite

    p = Pyramid.subregular(args.N)
    try:
        checks, meta = whittaker_suite(args.N, canonical=args.canonical)
        hard = False
    except Exception as exc:
        checks = [
            {"name": "construction", "status": "fail", "witness": str(exc), "seconds": 0.0}
        ]
        meta = {}
        hard = True
    report = VerificationReport(
        command="verify-whittaker",
        N=args.N,
        pyramid=p.spec(),
        checks=checks,
        order_fingerprint=p.default_order().fingerprint,
        meta=meta,
    )
    _emit(report.to_json(), report.render_table, args)
    return _exit_code(report, args, hard_fail=hard or not report.ok())


def cmd_compute_j(args) -> int:
    from .checks import j_suite

    p = Pyramid.subregular(args.N)
    try:
        checks, meta = j_suite(args.N, compare=args.compare or args.semiclassical)
        hard = not all(
            c["status"] == "pass"
            for c in checks
            if c["name"]
            in (
                "support-upper-triangular",
                "entries-divisible-by-hbar",
                "entries-in-l",
                "unipotent-diagonal",
            )
        )
    except Exception as exc:
        checks = [
            {"name": "construction", "status": "fail", "witness": str(exc), "seconds": 0.0}
        ]
        meta = {}
        hard = True
    strict_mismatch = False
    if args.compare and meta.get("semiclassical"):
        cmp = meta["semiclassical"]
        strict_mismatch = cmp["matched_convention"] not in ("statement", "proof")
    report = VerificationReport(
        command="compute-J",
        N=args.N,
        pyramid=p.spec(),
        checks=checks,
        order_fingerprint=p.default_order().fingerprint,
        meta=meta,
    )
    _emit(report.to_json(), report.render_table, args)
    if args.format == "table" and args.compare and meta.get("semiclassical"):
        cmp = meta["semiclassical"]
        print(
            "  semi-classical: constant==j_c %s; convention matched: %s"
            % (cmp["constant_part_equals_jc"], cmp["matched_convention"])
        )
        for variant in ("statement", "proof"):
            for d in cmp["diffs"][variant]:
                print(
                    "    diff vs %-9s at %s|%s: computed %s, closed %s"
                    % (variant, d["row"], d["col"], d["computed"], d["closed_form"])
                )
    code = _exit_code(report, args, hard_fail=hard)
    if code == 0 and args.strict and strict_mismatch:
        code = 1
    return code


def cmd_check_omega(args) -> int:
    from .checks import omega_suite

    p = Pyramid.subregular(args.N)
    checks, rep = omega_suite(args.N)
    report = VerificationReport(
        command="check-omega",
        N=args.N,
        pyramid=p.spec(),
        checks=checks,
        order_fingerprint=p.default_order().fingerprint,
        meta=rep,
    )
    _emit(report.to_json(), report.render_table, args)
    return _exit_code(report, args, hard_fail=not report.ok())


def cmd_selftest(args) -> int:
    from .checks import (
        engine_health,
        fusion_suite,
        generator_identity_suite,
        j_suite,
        omega_suite,
        recursion_suite,
        whittaker_suite,
    )

    p = Pyramid.subregular(args.N)
    checks = []
    checks += engine_health(min(args.N, 4), cases=args.cases)
    checks += generator_identity_suite(args.N)
    wchecks, wmeta = whittaker_suite(args.N, canonical=True)
    checks += wchecks
    if args.N >= 4:
        checks += recursion_suite(args.N)
    ochecks, _ = omega_suite(max(args.N, 3))
    checks += ochecks
    jchecks, jmeta = j_suite(args.N, compare=True) if args.N >= 3 else ([], {})
    checks += jchecks
    fchecks, _ = fusion_suite(args.N, samples=4) if args.N >= 3 else ([], {})
    checks += fchecks
    meta = {"whittaker": wmeta.get("conventions", {})}
    if jmeta:
        meta["semiclassical_convention"] = jmeta.get("semiclassical", {}).get(
            "matched_convention"
        )
    report = VerificationReport(
        command="selftest",
        N=args.N,
        pyramid=p.spec(),
        checks=checks,
        order_fingerprint=p.default_order().fingerprint,
        meta=meta,
    )
    _emit(report.to_json(), report.render_table, args)
    return _exit_code(report, args, hard_fail=not report.ok())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walg",
        description="Exact PBW calculus and subregular W-algebra verification",
    )
    parser.add_argument("--version", action="version", version="walg %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report to this path")
        sp.add_argument("--format", choices=("json", "table"), default="table")
        sp.add_argument("--strict", action="store_true", help="exit 1 on any failed check")

    t = sub.add_parser("compute-T", help="one T-element as JSON")
    t.add_argument("--pyramid", required=True, help="e.g. '1,3,2,1' or 'subreg:5'")
    t.add_argument("--i", type=int, required=True)
    t.add_argument("--j", type=int, required=True)
    t.add_argument("--x", type=int, required=True)
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--truncate", type=int, default=0, metavar="K")
    common(t)
    t.set_defaults(func=cmd_compute_t)

    w = sub.add_parser("verify-whittaker", help="build and verify the invariant vectors")
    w.add_argument("--N", type=int, required=True)
    w.add_argument("--canonical", action="store_true")
    common(w)
    w.set_defaults(func=cmd_verify_whittaker)

    j = sub.add_parser("compute-J", help="tensor matrix, structure and limit")
    j.add_argument("--N", type=int, required=True)
    j.add_argument("--semiclassical", action="store_true")
    j.add_argument("--compare", action="store_true")
    common(j)
    j.set_defaults(func=cmd_compute_j)

    o = sub.add_parser("check-omega", help="wonderbolic form and j_c cross-checks")
    o.add_argument("--N", type=int, required=True)
    common(o)
    o.set_defaults(func=cmd_check_omega)

    s = sub.add_parser("selftest", help="aggregate invariant suites at one N")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--cases", type=int, default=200, help="randomized engine cases")
    common(s)
    s.set_defaults(func=cmd_selftest)
    return parser


def _check_input(args) -> None:
    """Raise on input that no computation accepts, before any work starts."""
    if args.command == "compute-T":
        p = Pyramid.parse(args.pyramid)
        _check_args(p.truncate(args.truncate), args.i, args.j, args.x, args.r)
        return
    Pyramid.subregular(args.N)
    if args.command == "check-omega" and args.N < 3:
        raise ValueError("check-omega needs N >= 3")
    if args.command == "selftest" and args.cases < 1:
        raise ValueError("--cases must be at least 1, got %d" % args.cases)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_input(args)
    except (PyramidError, ValueError) as exc:
        parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
