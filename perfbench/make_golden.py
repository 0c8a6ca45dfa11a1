"""Record golden output digests and the cost of every menu input.

Run once, from the repository root, at the commit whose outputs are the
reference::

    python3 perfbench/make_golden.py

Each candidate input of every workload (see ``menus.py``) runs as one
cold child process, one at a time, so that no two children compete for
the CPUs while their costs are measured.  Its digest goes to
``golden.json`` and its wall time to ``menu_costs.json``.  A compute-T
series (fixed pyramid, truncation, i, j, x) stops at its first input
above the cost limit: that input and the larger r of the series are
left out and listed with their times.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import menus
from ops import GOLDEN, MENU_COSTS, environment, run_op

COST_LIMIT_S = 5.0
T_TIMEOUT_S = 8.0
OTHER_TIMEOUT_S = 120.0

_op_ids = itertools.count(1)


def measure(workload, key, argv, timeout):
    res = run_op(workload, key, argv, expected=None, timeout=timeout, op_id=next(_op_ids))
    if res.digest is None:
        print("FAILED %s: %s" % (key, res.error), file=sys.stderr)
    return res


def t_series_costs(series):
    spec, k, i, j, x, rs = series
    rows = []
    for n, r in enumerate(rs):
        key = menus.t_key(spec, k, i, j, x, r)
        res = measure("t-generators", key, menus.t_argv(spec, k, i, j, x, r), T_TIMEOUT_S)
        rows.append((key, res))
        if res.timed_out or res.wall_s > COST_LIMIT_S:
            for r2 in rs[n + 1 :]:
                rows.append((menus.t_key(spec, k, i, j, x, r2), None))
            break
    return rows


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    golden, kept, left_out = {}, {}, {}

    def record(key, res, above):
        if res is None:
            left_out[key] = "not run: a smaller r of its series exceeded the limit"
        elif res.timed_out:
            left_out[key] = "over %.0f s (killed)" % T_TIMEOUT_S
        elif res.digest is None:
            raise SystemExit("input %s failed: %s" % (key, res.error))
        elif above and res.wall_s > COST_LIMIT_S:
            left_out[key] = round(res.wall_s, 3)
        else:
            golden[key] = res.digest
            kept[key] = round(res.wall_s, 3)

    for series in menus.t_series():
        for key, res in t_series_costs(series):
            record(key, res, above=True)
    for workload in menus.WORKLOADS:
        if workload != "t-generators":
            for key, argv in menus.candidates(workload):
                record(key, measure(workload, key, argv, OTHER_TIMEOUT_S), above=False)
    env = environment()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "digests": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(MENU_COSTS, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "environment": env,
                "cost": "cold-process wall seconds: spawn to exit",
                "limit_s": COST_LIMIT_S,
                "kept": kept,
                "left_out": left_out,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    print("kept %d inputs, left out %d" % (len(kept), len(left_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
