"""Check that the benchmark counts a wrong output as a failed operation.

Run from the repository root::

    python3 perfbench/check_failure_accounting.py

For two workloads it runs two operations against the recorded golden
digests, which must all pass, and then two against a copy whose digests
for that workload are corrupted, which must all count as failed and make
the run incorrect.  Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import menus
import ops
import run


def _corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def main() -> int:
    with open(ops.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["digests"]
    problems = []
    for workload in ("selftest", "t-generators"):
        good = run.run_workload(workload, 0, 3600, False, golden, max_ops=2)
        if good["failed"] or not good["correct"]:
            problems.append("%s: golden run failed: %r" % (workload, good["failures"]))
        keys = {key for key, _ in menus.candidates(workload)}
        corrupted = {k: _corrupt(v) if k in keys else v for k, v in golden.items()}
        bad = run.run_workload(workload, 0, 3600, False, corrupted, max_ops=2)
        mismatches = [f for f in bad["failures"] if f["error"].startswith("digest mismatch")]
        if not (
            bad["attempted"] == 2
            and bad["failed"] == 2
            and len(mismatches) == 2
            and bad["correct"] is False
            and bad["metrics"]["ok_frac"]["value"] == 0.0
        ):
            problems.append("%s: corrupted digests not counted as failures: %r" % (workload, bad))
    for line in problems:
        print("FAIL " + line)
    if not problems:
        print("ok: corrupted digests count as failed operations")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
