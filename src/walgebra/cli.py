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
compute-J --strict (the one command with that option), on any failed
check or comparison mismatch; 2 on usage errors, which include input
rejected before any computation: a bad pyramid literal or truncation,
T-indices out of range, N < 2, N < 3 for check-omega and for
compute-J --compare, selftest --cases < 1, compute-J --strict without
--compare, and an --out that is an existing directory or whose
directory does not exist.  A verification suite that raises is
reported as one failed "construction" check, with exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .bk import _check_args, truncated_t
from .pyramid import Pyramid, PyramidError
from .render import render_algebra
from .reports import render_table, write_json


def _emit(data: dict, table, args) -> None:
    """Write data to --out and, under --format json, to stdout, from one
    encoding; under --format table print table()."""
    files = [sys.stdout] if args.format == "json" else []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_json(data, fh, *files)
    elif files:
        write_json(data, *files)
    if not files:
        print(table())


def _verify(args, command: str, suite, hard=None):
    """Run suite() -> (checks, meta) and emit its report, or one failed
    "construction" check if suite raises.  Returns (report, exit code):
    1 when construction or a check named in hard (every check when hard
    is None) fails; else 0."""
    p = Pyramid.subregular(args.N)
    try:
        checks, meta = suite()
    except Exception as exc:
        checks = [
            {"name": "construction", "status": "fail", "witness": str(exc), "seconds": 0.0}
        ]
        meta = {}
    report = {
        "command": command,
        "N": args.N,
        "pyramid": p.spec(),
        "engine_version": __version__,
        "order_fingerprint": p.default_order().fingerprint,
        "checks": checks,
        "meta": meta,
    }
    _emit(report, lambda: render_table(report), args)
    hard_fail = any(
        hard is None or c["name"] in hard or c["name"] == "construction"
        for c in checks
        if c["status"] != "pass"
    )
    return report, int(hard_fail)


def cmd_compute_t(args) -> int:
    p = Pyramid.parse(args.pyramid)
    t = truncated_t(p, args.truncate, args.i, args.j, args.x, args.r)
    label = "%sT(%d,%d;%d)^(%d)" % (
        "[k=%d]" % args.truncate if args.truncate else "", args.i, args.j, args.x, args.r
    )
    payload = {
        "pyramid": p.spec(),
        "truncate": args.truncate,
        "i": args.i,
        "j": args.j,
        "x": args.x,
        "r": args.r,
        "label": label,
        "element": t.to_json(),
        "order_fingerprint": p.default_order().fingerprint,
        "engine_version": __version__,
    }
    _emit(payload, lambda: "%s = %s" % (label, render_algebra(t)), args)
    return 0


def cmd_verify_whittaker(args) -> int:
    from .checks import whittaker_suite

    return _verify(
        args, "verify-whittaker", lambda: whittaker_suite(args.N, canonical=args.canonical)
    )[1]


def cmd_compute_j(args) -> int:
    from .checks import J_STRUCTURE_CHECKS, j_suite

    report, code = _verify(
        args,
        "compute-J",
        lambda: j_suite(args.N, compare=args.compare),
        hard=None if args.strict else J_STRUCTURE_CHECKS,
    )
    cmp = report["meta"].get("semiclassical") if args.compare else None
    if cmp and args.format == "table":
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
    if args.strict and cmp and cmp["matched_convention"] not in ("statement", "proof"):
        code = 1
    return code


def cmd_check_omega(args) -> int:
    from .checks import omega_suite

    return _verify(args, "check-omega", lambda: omega_suite(args.N))[1]


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

    def suite():
        checks = []
        checks += engine_health(min(args.N, 4), cases=args.cases)
        checks += generator_identity_suite(args.N)
        wchecks, wmeta = whittaker_suite(args.N, canonical=True)
        checks += wchecks
        if args.N >= 4:
            checks += recursion_suite(args.N)
        checks += omega_suite(max(args.N, 3))[0]
        jchecks, jmeta = j_suite(args.N, compare=True) if args.N >= 3 else ([], {})
        checks += jchecks
        checks += fusion_suite(args.N) if args.N >= 3 else []
        meta = {"whittaker": wmeta["conventions"]}
        if jmeta:
            meta["semiclassical_convention"] = jmeta.get("semiclassical", {}).get(
                "matched_convention"
            )
        return checks, meta

    return _verify(args, "selftest", suite)[1]


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
    j.add_argument("--compare", action="store_true")
    common(j)
    j.add_argument(
        "--strict", action="store_true", help="exit 1 on any failed check or convention mismatch"
    )
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
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError("--out directory does not exist: %s" % args.out)
    if args.out and os.path.isdir(args.out):
        raise ValueError("--out is a directory: %s" % args.out)
    if args.command == "compute-T":
        p = Pyramid.parse(args.pyramid)
        _check_args(p.truncate(args.truncate), args.i, args.j, args.x, args.r)
        return
    Pyramid.subregular(args.N)
    if args.command == "check-omega" and args.N < 3:
        raise ValueError("check-omega needs N >= 3")
    if args.command == "selftest" and args.cases < 1:
        raise ValueError("--cases must be at least 1, got %d" % args.cases)
    if args.command == "compute-J" and args.strict and not args.compare:
        raise ValueError("--strict needs --compare")
    if args.command == "compute-J" and args.compare and args.N < 3:
        raise ValueError("--compare needs N >= 3")


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
