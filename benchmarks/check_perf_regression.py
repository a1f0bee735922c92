#!/usr/bin/env python3
"""CI perf regression gate for the scheduler simulation harness.

Compares the fast-mode harness throughputs from a just-produced
``BENCH_scheduler.fast.json`` against the checked-in baselines
(``benchmarks/perf_baseline.json``) and fails when a gated section drops below
``min_fraction`` of its baseline.  Four sections are gated:

* ``trace_simulation`` — the decode-dominated path (analytic decode jumps);
* ``mixed_phase`` — the KV-constrained prefill-heavy path (pinned mixed-epoch jumps),
  which ran interpretively before PR 5 and would silently fall back to interpretive
  again if the mixed fast path regressed;
* ``prefix_cache`` — the shared-prefix agent-swarm path with the radix cache enabled,
  guarding both the trie lookups in admission (a binary search of the stream's memoized
  key chain) and the cache-enabled fast-forward proofs (a cache bug that forced stepwise execution
  would crater this);
* ``sweep_grid`` — end-to-end cell throughput of the 1,120-cell kernel-backend grid
  (``cells_per_s``), guarding the once-per-configuration backend/engine resolution: a
  backend rebuild accidentally moved into the per-cell path would crater this.

A fifth check, ``tracing_off_overhead``, floors the ``tracing`` section's
``off_vs_baseline_ratio`` at ``tracing_off_overhead_min_ratio``: the ``trace_simulation``
call and the same call passing ``tracer=None`` explicitly, timed interleaved (alternating
runs, best of each side, unrounded walls, so host speed drift lands on both sides).  Both
sides run the null-tracer path, so the ratio reads about 1.0.  What that path must never
do — construct a tracer or emit an event — is counted in tier-1
(``tests/test_telemetry.py::TestTracingOff``).

The fraction is deliberately generous (default 0.5x): CI runners are slower and noisier
than the machines that set the baselines, and this gate exists to catch *algorithmic*
regressions — a fast path silently disabled, an accidental O(n^2) in the hot loop — not
2% jitter.  When a PR legitimately changes the perf envelope, re-baseline by editing
``perf_baseline.json`` alongside it.

Run:  python benchmarks/check_perf_regression.py BENCH_scheduler.fast.json
"""

import argparse
import json
import os
import sys

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "perf_baseline.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="bench_scheduler.py output to check")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline file (default: benchmarks/perf_baseline.json)")
    args = parser.parse_args()

    with open(args.bench_json, encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)

    min_fraction = float(baseline["min_fraction"])
    failed = False
    for section, keys, baseline_key, unit in (
        ("trace_simulation", ("harness", "iterations_per_s"),
         "trace_simulation_iterations_per_s", "it/s"),
        ("mixed_phase", ("harness", "iterations_per_s"),
         "mixed_phase_iterations_per_s", "it/s"),
        ("prefix_cache", ("harness", "iterations_per_s"),
         "prefix_cache_iterations_per_s", "it/s"),
        ("sweep_grid", ("cells_per_s",), "sweep_grid_cells_per_s", "cells/s"),
    ):
        measured = payload[section]
        for key in keys:
            measured = measured[key]
        measured = float(measured)
        reference = float(baseline[baseline_key])
        floor = reference * min_fraction
        print(f"{section:<17}: {measured:>10,.0f} {unit}  "
              f"(baseline {reference:,.0f}, floor {min_fraction:g}x = {floor:,.0f})")
        if measured < floor:
            failed = True
            print(
                f"FAIL: {section} at {measured:,.0f} {unit} is below {floor:,.0f} "
                f"({min_fraction:g}x of the checked-in baseline) — the simulator hot "
                "path regressed, or this runner is pathologically slow. If the change "
                "is intentional, update benchmarks/perf_baseline.json in the same PR."
            )
    ratio = float(payload["tracing"]["harness"]["off_vs_baseline_ratio"])
    min_ratio = float(baseline["tracing_off_overhead_min_ratio"])
    print(f"{'tracing_off':<17}: {ratio:>10.3f} x    "
          f"(tracer-off vs baseline wall, floor {min_ratio:g}x)")
    if ratio < min_ratio:
        failed = True
        print(
            f"FAIL: tracer-off re-measure ran at {ratio:.3f}x the trace_simulation "
            f"baseline (floor {min_ratio:g}x) — the null-tracer hooks are no longer "
            "free. Both sides were timed interleaved, so this is not runner drift."
        )
    if failed:
        return 1
    print("OK: within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
