"""walgebra benchmark: cold ``walg`` processes, checked exactly.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one cold child process, because that is how a batch
verifier pays for every run.  One client runs one child at a time (a
closed loop).  Inputs come from the workload's menu (``menus.py``,
restricted to inputs with a golden digest); the seed picks each one.  A
multi-input workload draws from the inputs whose recorded seed-commit
cost lies in a fixed window (see WINDOWS).  A new operation starts
while the median round so far would still end within ``--seconds``.

Every operation is bracketed by cold ``calibrate.py`` children, which do
the same fixed work every time.  The host's speed changes by up to 1.5x
from seconds to minutes, and that moves every wall time alike, so the
end-to-end times are reported at a reference host speed: each is scaled
by CAL_REF_S over the mean calibration time around it.  The raw times
are printed on the details line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every operation runs twice, untraced and then with
the wrappers of ``tracer.py`` installed in the child, and the last line
carries the per-layer metrics of the traced runs, the layer shares of
operation time and the tracing overhead.  Earlier stdout lines hold the
environment record and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

import menus
import ops

# The recorded seed-commit cost window (seconds) a multi-input workload
# draws from.  Cold-process times on a shared 2-vCPU machine jitter by
# 10-25 % from one operation to the next, so a run's median and tail are
# steady only when its operations cost about the same and there are many
# of them; inputs outside the window keep their golden digests.
WINDOWS = {"t-generators": (0.6, 0.9), "triple-fusion": (0.8, 1.2)}
OP_TIMEOUT_S = 60.0
# The cost strata a multi-input run draws from in turn (stratified_draws).
STRATA = 4
# The time a cold calibrate.py child takes at the reference host speed.
# Operation and set-up times are scaled by CAL_REF_S over the mean
# calibration time around them (see end_to_end and calibration_group).
CAL_REF_S = 0.25
CAL_SHARE = 0.15
RUN_BUDGET_S = 160.0

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_min": "1/min",
    "peak_rss_mb.p50": "MB",
    "peak_rss_mb.max": "MB",
    "setup_s": "s",
    "ok_frac": "fraction",
}

CHECK_SUITES = (
    "engine_health",
    "generator_identity_suite",
    "whittaker_suite",
    "recursion_suite",
    "omega_suite",
    "j_suite",
    "fusion_suite",
)
LAYERS = ("algebra", "bk", "modules", "whittaker", "geometry", "tensorj", "checks", "cli")

PER_LAYER = {
    "hbar.mul_calls": "count",
    "hbar.add_calls": "count",
    "hbar.scale_shift_calls": "count",
    "hbar.coeff_mults": "count",
    "hbar.nonint_coeffs": "count",
    "hbar.max_coeff_bits": "bit",
    "algebra.mul_calls": "count",
    "algebra.mul_self_s": "s",
    "algebra.normal_order_calls": "count",
    "algebra.normal_order_s": "s",
    "algebra.pair_lookups": "count",
    "algebra.pair_misses": "count",
    "algebra.pair_hit_ratio": "ratio",
    "algebra.pair_cache_entries": "count",
    "pyramid.instances": "count",
    "pyramid.orders_built": "count",
    "bk.truncated_t_calls": "count",
    "bk.memo_hit_ratio": "ratio",
    "bk.chains": "count",
    "bk.chain_sum_s": "s",
    "bk.truncated_t_self_s": "s",
    "modules.fuse_calls": "count",
    "modules.fuse_self_s": "s",
    "modules.transport_calls": "count",
    "modules.transport_s": "s",
    "modules.right_mul_gen_calls": "count",
    "modules.right_act_calls": "count",
    "modules.reduce_calls": "count",
    "modules.reduce_s": "s",
    "modules.reduce_terms_in": "count",
    "modules.reduce_terms_out": "count",
    "modules.coefficient_at_calls": "count",
    "modules.coefficient_at_s": "s",
    "modules.ad_action_calls": "count",
    "modules.ad_action_s": "s",
    "modules.peak_terms": "count",
    "whittaker.build_basis_calls": "count",
    "whittaker.build_basis_s": "s",
    "whittaker.canonicalize_calls": "count",
    "whittaker.canonicalize_s": "s",
    "whittaker.l_constant_part_calls": "count",
    "geometry.verify_inverse_s": "s",
    "geometry.jc_s": "s",
    "tensorj.compute_J_self_s": "s",
    "tensorj.obstructions": "count",
    "tensorj.compare_s": "s",
    "tensorj.fuse_power_J_s": "s",
    **{"checks.%s_s" % s: "s" for s in CHECK_SUITES},
    "cli.emit_s": "s",
    "reports.json_bytes": "B",
    **{"share.%s" % layer: "%" for layer in LAYERS + ("untraced",)},
    "trace.op_s.p50": "s",
    "trace.overhead_s": "s",
}

# per-op metrics aggregated as a maximum over the run; ratios are formed
# from run totals; everything else is a mean per operation
MAXIMA = ("hbar.max_coeff_bits", "algebra.pair_cache_entries", "modules.peak_terms")
RATIOS = {
    "algebra.pair_hit_ratio": ("algebra.pair_hits", "algebra.pair_lookups"),
    "bk.memo_hit_ratio": ("bk.memo_hits", "bk.truncated_t_calls"),
}

# counts the seed commit's pipeline predicts; a miss means a wrapper lost calls
PREDICTIONS = {
    "t-generators": {"modules.fuse_calls": 0, "whittaker.build_basis_calls": 0},
    "triple-fusion": {"modules.coefficient_at_calls_outside_basis": 0},
    "selftest": {"whittaker.build_basis_calls": 3},
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def load_menu(workload: str, golden: dict) -> list:
    """The workload's (key, argv, cost) inputs that have a golden digest."""
    with open(ops.MENU_COSTS, encoding="utf-8") as fh:
        costs = json.load(fh)["kept"]
    return [
        (key, argv, costs[key])
        for key, argv in menus.candidates(workload)
        if key in golden and key in costs
    ]


def pool(workload: str, menu: list) -> list:
    """The inputs a run of the workload draws from."""
    if workload not in WINDOWS:
        return menu
    lo, hi = WINDOWS[workload]
    return [item for item in menu if lo <= item[2] <= hi]


def stratified_draws(inputs: list, rng: random.Random):
    """Endless seeded draws from the inputs, in rounds of one input from
    each of STRATA equal groups of the inputs ordered by recorded cost,
    the groups in a seeded order.  Every run then holds about as many
    cheap inputs as dear ones, whatever the seed."""
    ordered = sorted(inputs, key=lambda item: (item[2], item[0]))
    k = min(STRATA, len(ordered))
    groups = [ordered[i * len(ordered) // k : (i + 1) * len(ordered) // k] for i in range(k)]
    while True:
        for group in rng.sample(groups, k):
            yield rng.choice(group)


# ----------------------------------------------------------------------
# trace analysis
# ----------------------------------------------------------------------
def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def op_layer_metrics(trace: dict, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced operation."""
    names = trace["names"]
    spans = [(names[n], s, e, p) for n, s, e, p, _ in trace["spans"]]
    kids = [[] for _ in spans]
    for idx, (_, _, _, p) in enumerate(spans):
        if p >= 0:
            kids[p].append(idx)

    def ancestors(idx):
        p = spans[idx][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    calls, incl, self_s = {}, {}, {}
    for idx, (name, s, e, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own = (e - s) - _covered((spans[c][1], spans[c][2]) for c in kids[idx])
        self_s[name] = self_s.get(name, 0.0) + own
        if name not in ancestors(idx):
            incl[name] = incl.get(name, 0.0) + (e - s)
    emit = 0.0
    for idx, (name, s, e, p) in enumerate(spans):
        top = name in ("cli.emit", "cli.json_dump") and not any(
            a in ("cli.emit", "cli.json_dump") for a in ancestors(idx)
        )
        if top or (name == "algebra.to_json" and p >= 0 and spans[p][0] == "cli.cmd_compute_t"):
            emit += e - s
    obstructions = sum(
        1 for name, _, _, p in spans
        if name == "modules.right_act" and p >= 0 and spans[p][0] == "tensorj.compute_J"
    )
    basis_calls = ("whittaker.build_basis", "whittaker.canonicalize")
    outside_basis = sum(
        1 for idx, (name, _, _, _) in enumerate(spans)
        if name == "modules.coefficient_at" and not any(a in basis_calls for a in ancestors(idx))
    )
    c = trace["counters"]
    m = {
        "hbar.mul_calls": c.get("hbar.mul_calls", 0),
        "hbar.add_calls": c.get("hbar.add_calls", 0),
        "hbar.scale_shift_calls": c.get("hbar.scale_shift_calls", 0),
        "hbar.coeff_mults": c.get("hbar.coeff_mults", 0),
        "hbar.nonint_coeffs": c.get("hbar.nonint_coeffs", 0),
        "hbar.max_coeff_bits": c.get("max.hbar.max_coeff_bits", 0),
        "algebra.mul_calls": calls.get("algebra.mul", 0),
        "algebra.mul_self_s": self_s.get("algebra.mul", 0.0),
        "algebra.normal_order_calls": calls.get("algebra.normal_order_word", 0),
        "algebra.normal_order_s": incl.get("algebra.normal_order_word", 0.0),
        "algebra.pair_lookups": c.get("algebra.pair_lookups", 0),
        "algebra.pair_misses": c.get("algebra.pair_misses", 0),
        "algebra.pair_hits": c.get("algebra.pair_lookups", 0) - c.get("algebra.pair_misses", 0),
        "algebra.pair_cache_entries": trace["pair_cache_entries"],
        "pyramid.instances": c.get("pyramid.instances", 0),
        "pyramid.orders_built": c.get("pyramid.orders_built", 0),
        "bk.truncated_t_calls": calls.get("bk.truncated_t", 0),
        "bk.memo_hits": c.get("bk.memo_hits", 0),
        "bk.chains": c.get("bk.chains", 0),
        "bk.chain_sum_s": incl.get("bk.chain_sum", 0.0),
        "bk.truncated_t_self_s": self_s.get("bk.truncated_t", 0.0),
        "modules.fuse_calls": calls.get("modules.fuse", 0),
        "modules.fuse_self_s": self_s.get("modules.fuse", 0.0),
        "modules.transport_calls": calls.get("modules.transport", 0),
        "modules.transport_s": incl.get("modules.transport", 0.0),
        "modules.right_mul_gen_calls": c.get("modules.right_mul_gen_calls", 0),
        "modules.right_act_calls": calls.get("modules.right_act", 0),
        "modules.reduce_calls": calls.get("modules.reduce_mod_m_psi", 0),
        "modules.reduce_s": incl.get("modules.reduce_mod_m_psi", 0.0),
        "modules.reduce_terms_in": c.get("modules.reduce_terms_in", 0),
        "modules.reduce_terms_out": c.get("modules.reduce_terms_out", 0),
        "modules.coefficient_at_calls": calls.get("modules.coefficient_at", 0),
        "modules.coefficient_at_calls_outside_basis": outside_basis,
        "modules.coefficient_at_s": incl.get("modules.coefficient_at", 0.0),
        "modules.ad_action_calls": calls.get("modules.ad_action", 0),
        "modules.ad_action_s": incl.get("modules.ad_action", 0.0),
        "modules.peak_terms": c.get("max.modules.peak_terms", 0),
        "whittaker.build_basis_calls": calls.get("whittaker.build_basis", 0),
        "whittaker.build_basis_s": incl.get("whittaker.build_basis", 0.0),
        "whittaker.canonicalize_calls": calls.get("whittaker.canonicalize", 0),
        "whittaker.canonicalize_s": incl.get("whittaker.canonicalize", 0.0),
        "whittaker.l_constant_part_calls": c.get("whittaker.l_constant_part_calls", 0),
        "geometry.verify_inverse_s": incl.get("geometry.verify_inverse", 0.0),
        "geometry.jc_s": incl.get("geometry.jc_recursive", 0.0) + incl.get("geometry.jc_closed_form", 0.0),
        "tensorj.compute_J_self_s": self_s.get("tensorj.compute_J", 0.0),
        "tensorj.obstructions": obstructions,
        "tensorj.compare_s": incl.get("tensorj.compare_semiclassical", 0.0),
        "tensorj.fuse_power_J_s": incl.get("tensorj.fuse_power_J", 0.0),
        "cli.emit_s": emit,
        "reports.json_bytes": stdout_bytes,
    }
    for suite in CHECK_SUITES:
        m["checks.%s_s" % suite] = incl.get("checks.%s" % suite, 0.0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in self_s.items():
        layer_self[name.split(".", 1)[0]] += t
    m["layer_self"] = layer_self
    return m


def layer_metrics(traced: list, untraced: list) -> tuple[dict, dict, list]:
    """Run-level per-layer metrics, the layer-share table and the
    per-operation metrics."""
    per_op = [op_layer_metrics(r.meta["trace"], r.stdout_bytes) for r in traced]
    n = len(per_op)
    out = {}
    for name in PER_LAYER:
        if name.startswith(("share.", "trace.")):
            continue
        if name in MAXIMA:
            out[name] = max(m[name] for m in per_op)
        elif name in RATIOS:
            num, den = RATIOS[name]
            total = sum(m[den] for m in per_op)
            out[name] = sum(m[num] for m in per_op) / total if total else 0.0
        else:
            out[name] = sum(m[name] for m in per_op) / n
    wall = sum(r.wall_s for r in traced)
    shares = {layer: 100.0 * sum(m["layer_self"][layer] for m in per_op) / wall for layer in LAYERS}
    shares["untraced"] = 100.0 - sum(shares.values())
    for layer, share in shares.items():
        out["share.%s" % layer] = share
    traced_p50 = statistics.median(r.wall_s for r in traced)
    out["trace.op_s.p50"] = traced_p50
    out["trace.overhead_s"] = traced_p50 - statistics.median(r.wall_s for r in untraced)
    return out, shares, per_op


def check_predictions(workload: str, per_op: list) -> list:
    """Predicted counts that some traced operation missed."""
    misses = []
    for name, want in PREDICTIONS.get(workload, {}).items():
        got = sorted({m[name] for m in per_op})
        if got != [want]:
            misses.append("%s: predicted %r, traced %r" % (name, want, got))
    return misses


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples above it) of the run's tail: the
    highest percentile with at least ten samples above it, but never
    below p90, interpolated between neighbouring samples.  Below 100
    samples that is p90, with fewer than ten samples above it; taking
    the sample at rank n-10 there would fall to the minimum at n = 11."""
    ordered = sorted(values)
    n = len(ordered)
    q = max(0.9, (n - 10) / n)
    pos = (n - 1) * q
    i = int(pos)
    value = ordered[i] if i + 1 == n else ordered[i] + (pos - i) * (ordered[i + 1] - ordered[i])
    return value, 100.0 * q, sum(v > value for v in ordered)


def end_to_end(results: list, cal_groups: list) -> tuple[dict, dict]:
    """End-to-end metrics at the reference host speed, and the details.

    ``cal_groups[i]`` holds the calibration times measured just before
    operation i, and ``cal_groups[i + 1]`` those just after it.  The
    operation's wall and set-up times are scaled by CAL_REF_S over the
    mean of both groups, so a run whose host speed changes part-way is
    scaled operation by operation."""
    scales = [
        CAL_REF_S / statistics.fmean(cal_groups[i] + cal_groups[i + 1]) for i in range(len(results))
    ]
    raw = [r.wall_s for r in results]
    walls = [w * k for w, k in zip(raw, scales)]
    raw_setups = [r.setup_s for r in results if r.setup_s is not None]
    setups = [r.setup_s * k for r, k in zip(results, scales) if r.setup_s is not None]
    rss = [r.rss_mb for r in results]
    good = sum(r.ok for r in results)
    tail_value, tail_pct, tail_above = tail(walls)
    metrics = {
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail_value,
        "ops_per_min": 60.0 * good / sum(walls),
        "peak_rss_mb.p50": statistics.median(rss),
        "peak_rss_mb.max": max(rss),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "ok_frac": good / len(results),
    }
    details = {
        "samples": len(results),
        "op_s.tail_percentile": tail_pct,
        "op_s.tail_samples_above": tail_above,
        "failed_frac": 1.0 - metrics["ok_frac"],
        "calibration_s.p50": statistics.median(t for group in cal_groups for t in group),
        "calibrations": sum(len(group) for group in cal_groups),
        "host_scale.p50": statistics.median(scales),
        "raw_op_s.p50": statistics.median(raw),
        "raw_setup_s": statistics.median(raw_setups) if raw_setups else None,
    }
    return metrics, details


# ----------------------------------------------------------------------
def calibration_group(env: dict, done: list) -> list:
    """Calibration times measured back to back: at least one, and more
    while they add up to less than CAL_SHARE of the last operation."""
    group = [ops.calibrate(env)]
    while done and sum(group) < CAL_SHARE * done[-1].wall_s:
        group.append(ops.calibrate(env))
    return group


def run_workload(workload, seed, seconds, trace, golden, max_ops=None):
    """Run the closed loop; returns the summary dict printed by main()."""
    menu = load_menu(workload, golden)
    if not menu:
        raise SystemExit("workload %s has no inputs with a golden digest" % workload)
    inputs = pool(workload, menu)
    draws = stratified_draws(inputs, random.Random("%s/%d" % (workload, seed)))
    env = ops.child_env()
    untraced, traced, cal_groups, rounds = [], [], [], []
    ops.calibrate(env)  # warm-up: interpreter and page cache
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter() - t0
        left = RUN_BUDGET_S - now
        if untraced and (
            now + statistics.median(rounds) > seconds
            or left <= 1.0
            or (max_ops is not None and len(untraced) >= max_ops)
        ):
            break
        key, argv, _ = next(draws)
        timeout = min(OP_TIMEOUT_S, left)
        cal_groups.append(calibration_group(env, untraced))
        untraced.append(ops.run_op(workload, key, argv, golden.get(key), timeout, False, 2 * len(untraced), env))
        if trace:
            traced.append(ops.run_op(workload, key, argv, golden.get(key), timeout, True, len(traced) * 2 + 1, env))
        rounds.append(time.perf_counter() - t0 - now)
    cal_groups.append(calibration_group(env, untraced))
    elapsed = time.perf_counter() - t0
    everything = untraced + traced
    failures = [r for r in everything if not r.ok]
    conventions = {}
    for r in everything:
        if r.convention is not None:
            conventions[r.convention] = conventions.get(r.convention, 0) + 1
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(everything),
        "failed": len(failures),
        "failures": [{"key": r.key, "error": r.error} for r in failures[:20]],
        "matched_convention": conventions,
        "walg_threads_unset_in_children": all(
            r.meta.get("walg_threads_set") is False for r in everything
        ),
        "elapsed_s": elapsed,
        "ops": [[r.key, r.wall_s, r.rss_mb, r.setup_s, r.ok] for r in untraced],
        "calibration_s": cal_groups,
    }
    correct = not failures and summary["walg_threads_unset_in_children"]
    if trace:
        ok_traced = [r for r in traced if r.ok]
        if ok_traced:
            metrics, shares, per_op = layer_metrics(ok_traced, untraced)
            misses = check_predictions(workload, per_op)
            summary["layer_share_pct"] = shares
            summary["tracing_overhead_s"] = metrics["trace.overhead_s"]
            summary["prediction_misses"] = misses
            correct = correct and not misses
        else:
            metrics = {}
            correct = False
        units = PER_LAYER
    else:
        metrics, details = end_to_end(untraced, cal_groups)
        summary.update(details)
        units = END_TO_END
    summary["correct"] = correct
    summary["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics}
    return summary


def share_table(workload: str, shares: dict, overhead: float) -> str:
    rows = ["layer shares of traced operation time (self time), %s:" % workload]
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        rows.append("  %-10s %6.2f %%" % (layer, share))
    rows.append("  tracing overhead: %+.4f s on op_s.p50" % overhead)
    return "\n".join(rows)


def preflight() -> str | None:
    """Why the benchmark cannot run here, or None."""
    for path in (os.path.join(ops.SRC, "walgebra", "cli.py"), ops.GOLDEN, ops.MENU_COSTS):
        if not os.path.isfile(path):
            return "missing %s" % os.path.relpath(path, ops.ROOT)
    if sys.platform != "linux":
        return "needs Linux (pidfd, wait4)"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="walgebra cold-process benchmark")
    ap.add_argument("--workload", required=True, choices=menus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = preflight()
    if problem:
        print("perfbench: cannot run: %s" % problem, file=sys.stderr)
        return 2
    with open(ops.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["digests"]
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    summary["environment"] = ops.environment()
    os.makedirs(ops.SCRATCH, exist_ok=True)
    record = os.path.join(
        ops.SCRATCH, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps({"environment": summary["environment"]}, sort_keys=True))
    detail_keys = [k for k in summary if k not in ("metrics", "correct", "environment", "ops")]
    print(json.dumps({k: summary[k] for k in detail_keys}, sort_keys=True))
    if args.trace and "layer_share_pct" in summary:
        print(share_table(args.workload, summary["layer_share_pct"], summary["tracing_overhead_s"]))
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": summary["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
