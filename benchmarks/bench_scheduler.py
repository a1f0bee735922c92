#!/usr/bin/env python3
"""Performance harness for the request-level scheduler simulation.

Eleven sections, written to ``BENCH_scheduler.json`` at the repository root so subsequent PRs
can track both simulator wall-time (is the scheduler hot loop regressing?) and the simulated
serving metrics (did a change silently alter the model?):

* ``trace_simulation`` — a ShareGPT-like trace (Poisson arrivals) through the
  continuous-batching scheduler on Llama2-7B/H800 with the default FCFS + recompute policies;
* ``mixed_phase`` — the fast-forward acceptance workload PR 4's decode-only jumps could not
  touch: a KV-constrained, prefill-heavy trace (long prompts, hybrid preemption, starved
  chunks and parked swapped sequences) measured with fast-forward on *and* off, the two
  timed interleaved like ``tracing``'s; ``speedup_ge_3x`` asserts the mixed-phase jump
  machinery clears 3x the interpretive path;
* ``preemption_ab`` — the same KV-constrained ShareGPT trace (same seed) served under the
  recompute-only, swap-whenever-possible and cost-based hybrid preemption policies, recording
  goodput, preemption mix and KV transfer time; the acceptance flag
  ``hybrid_goodput_ge_recompute`` asserts the hybrid never loses to recompute-only;
* ``scheduling_ab`` — the same trace under FCFS vs. priority vs. SJF vs. max-min fairness
  admission; ``sjf_p99_ttft_improves`` asserts SJF cuts p99 TTFT vs. FCFS on this long-tail
  workload;
* ``cluster_ab`` — a prefill-heavy ShareGPT trace served at equal total GPU count by a
  co-located 4-replica cluster vs. a disaggregated 2-prefill + 2-decode cluster
  (DistServe-style KV handoff over the interconnect); ``disagg_p99_ttft_improves`` asserts
  disaggregation cuts p99 TTFT by removing prefill/decode interference;
* ``prefix_cache`` — the radix-tree prefix-caching A/B: one agent-swarm trace (every agent
  in a swarm shares the swarm's growing base context) served with the prefix cache on and
  off; ``p99_ttft_improves_ge_1_5x`` asserts fork-on-admit cuts p99 TTFT by at least 1.5x
  on this shared-prefix workload, and the simulated token counts are asserted identical
  between the two runs (the cache may only change *when* tokens appear, never *what* runs);
* ``scale`` — the fast-forward stress sections: a 20,000-request ShareGPT trace through one
  replica and a 4,000-request trace through a 16-replica co-located cluster behind the
  least-outstanding-tokens router (the O(1) incremental load counter's worst customer).
  These sizes run unchanged in ``--fast`` mode: analytic decode fast-forward is what makes
  them CI-viable at all;
* ``sweep`` — the process-parallel sweep engine (:mod:`repro.sweep`) over a 64-cell
  policy x kernel-backend grid, run serially and with 4 workers; the consolidated JSON is
  written next to this payload (``BENCH_sweep[.fast].json``) and
  ``parallel_matches_serial`` asserts the two executions produce byte-identical cells
  (wall clock is reported, not gated: the speedup is bounded by the runner's core count);
* ``sweep_grid`` — a 1,120-cell quant-format x kernel x kv_format grid (every registered
  system crossed with backend overrides) profiled end to end; ``cells_per_s`` is floored
  by ``benchmarks/check_perf_regression.py`` and the payload records the goodput-per-GPU
  vs. accuracy frontier summary;
* ``tracing`` — the telemetry overhead section: the ``trace_simulation`` call timed
  interleaved with the same call passing ``tracer=None`` (best of each side over
  alternating rounds — the null-tracer hooks must cost nothing; the regression gate
  floors ``off_vs_baseline_ratio``) and once tracer-on, asserting live that tracing leaves
  the simulated results bit-identical and that every per-request phase breakdown tiles its
  end-to-end latency exactly; the traced run's Chrome/Perfetto timeline is written next to
  the payload (``BENCH_trace[.fast].json``) and uploaded as a CI artifact;
* ``tensor_parallel_llama2_70b`` — the TP acceptance scenario (OOM on one GPU, finite on 4).

Every run that serves a generated trace is declared once, as a ``repro.core.RunSpec`` in
``run_table`` (sized by ``SECTION_SIZES``); each section serves its specs through
``repro.core.run`` and renders its ``workload`` dict from them (``workload_of``).

The payload always matches ``SCHEMA`` below (validated before writing; the tier-1 suite
re-validates the committed file), so the perf trajectory stays machine-comparable across PRs.

Run:  PYTHONPATH=src python benchmarks/bench_scheduler.py [--fast] [--dump-requests CSV]
                                                          [--profile]
      PYTHONPATH=src python benchmarks/bench_scheduler.py --compare A.json B.json

``--fast`` shrinks the A/B traces for CI (same sections, same schema, smaller
``num_requests``) and writes to ``BENCH_scheduler.fast.json`` so the committed full-mode
trajectory is never overwritten by a CI or local fast run.  ``--dump-requests PATH``
additionally writes the ``trace_simulation`` run's per-request latency decomposition (TTFT,
TPOT, queue time, preemptions) as CSV for latency-distribution analysis.  ``--profile``
wraps the ``trace_simulation`` section in cProfile and prints the hottest functions —
the first place to look when ``harness.iterations_per_s`` regresses.  ``--compare A B``
runs nothing: it prints the leaves that differ between two payloads, counts and simulated
values first, then the wall-clock leaves (``WALL_CLOCK_LEAVES``), and exits 1 when a leaf
that is not wall-clock differs.
"""

import argparse
import copy
import cProfile
import csv
import gc
import json
import os
import pstats
import time
from dataclasses import replace
from functools import partial

from repro.core import RunSpec, WorkloadSpec, run
from repro.reporting.schema import validate_payload as _validate_schema
from repro.serving import (
    ClusterSpec,
    ContinuousBatchingScheduler,
    ServingEngine,
    SloSpec,
    compute_slo_report,
    request_metrics,
)
from repro.serving.systems import list_systems
from repro.sweep import SINGLE_REPLICA, SweepGrid, cells_identical, run_sweep, write_sweep_json
from repro.telemetry import Tracer, request_breakdowns, write_chrome_trace
from repro.workloads.traces import (
    SHAREGPT_OUTPUTS,
    SHAREGPT_PROMPTS,
    LengthDistribution,
    agent_swarm_trace,
)

RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_scheduler.json")
#: Fast mode writes here instead, so a CI/local --fast run can never overwrite the
#: committed full-size trajectory (which the tier-1 suite asserts is mode="full").
FAST_RESULT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_scheduler.fast.json"
)
#: The sweep section's consolidated per-cell JSON (uploaded as a CI artifact next to the
#: bench payload; fast mode writes the ``.fast`` twin).
SWEEP_RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_sweep.json")
SWEEP_FAST_RESULT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_sweep.fast.json"
)
#: Seconds of work each side of an interleaved measurement (:func:`interleaved`) runs
#: for: the ``tracing`` section's baseline and tracer-off runs, and ``mixed_phase``'s
#: fast-forward and stepwise runs.
INTERLEAVED_SECONDS_PER_SIDE = 1.0
#: The tracing section's Chrome/Perfetto timeline of the traced run (a CI artifact, so a
#: failed run's schedule can be inspected visually; fast mode writes the ``.fast`` twin).
TRACE_RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_trace.json")
TRACE_FAST_RESULT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_trace.fast.json"
)

#: A KV-constrained pool (device budget shrunk well below the 80 GB derived default) so
#: the ShareGPT long tail forces preemption churn, plus a host swap pool: the A/B runs and
#: both sweep grids serve under it.
AB_KV_BUDGET_BYTES = 2 * 2**30
AB_HOST_KV_BUDGET_BYTES = 4 * 2**30
AB_SLO = SloSpec(ttft_s=2.0, tpot_s=0.1)
#: Timed runs per spec of the sections that report the best of several (the others time
#: one run per spec, and ``mixed_phase`` times its two arms interleaved).  The simulation
#: is deterministic (identical results every run), so run-to-run wall variance is host
#: noise and the minimum is the cleanest estimate of what the simulator costs.
BEST_OF = {"trace_simulation": 5, "prefix_cache": 3}

#: Prefix-cache A/B workload: an agent-swarm trace — every agent in a swarm prompts with
#: the swarm's shared base context plus the shared transcript of all prior steps, so the
#: shareable prefix *grows* as the swarm progresses (the regime RadixAttention targets).
#: Served on the default (unconstrained) device pool: the A/B isolates prefill savings,
#: the eviction path is exercised by the tier-1 suite under shrunk pools.
PREFIX_AB_ARRIVAL_RPS = 12.0

#: Sweep section grid: 64 cells (2 systems x 2 kernel-backend overrides x 2 KV-format
#: overrides x 2 preemption policies x 2 arrival rates x 2 cluster shapes) on the
#: KV-constrained workload, executed serially and with 4 worker processes.  Cell results
#: must match byte for byte — that determinism, not the runner-dependent wall-clock
#: ratio, is the gated acceptance criterion.
SWEEP_WORKERS = 4

#: Large-grid profiling section: every registered system crossed with kernel-backend and
#: KV-format overrides (``None`` = keep the system default), two scheduling and two
#: preemption policies and two arrival rates — 7 x 5 x 4 x 2 x 2 x 2 = 1,120 cells.
#: Small per-cell traces keep it CI-viable; ``cells_per_s`` is the throughput the
#: perf-regression gate floors.
GRID_KERNELS = (None, "fp16", "liquidgemm", "qserve-w4a8", "w4a16")
GRID_KV_FORMATS = (None, "fp8", "int8", "int4")
GRID_SCHEDULING = ("fcfs", "sjf")
GRID_PREEMPTIONS = ("recompute", "hybrid")
GRID_RATES = (15.0, 25.0)


def _sweep_grid(num_requests: int) -> SweepGrid:
    return SweepGrid(
        systems=("liquidserve", "trt-fp16"),
        kernels=(None, "liquidgemm"),
        kv_formats=(None, "int4"),
        preemption_policies=("recompute", "hybrid"),
        arrival_rates_rps=(15.0, 25.0),
        cluster_shapes=(
            SINGLE_REPLICA,
            {"mode": "colocated", "num_replicas": 2, "router": "least-tokens"},
        ),
        num_requests=num_requests,
        kv_budget_bytes=AB_KV_BUDGET_BYTES,
        host_kv_budget_bytes=AB_HOST_KV_BUDGET_BYTES,
        slo_ttft_s=AB_SLO.ttft_s,
        slo_tpot_s=AB_SLO.tpot_s,
    )


def _large_grid(num_requests: int) -> SweepGrid:
    return SweepGrid(
        systems=tuple(list_systems()),
        kernels=GRID_KERNELS,
        kv_formats=GRID_KV_FORMATS,
        scheduling_policies=GRID_SCHEDULING,
        preemption_policies=GRID_PREEMPTIONS,
        arrival_rates_rps=GRID_RATES,
        num_requests=num_requests,
        kv_budget_bytes=AB_KV_BUDGET_BYTES,
        host_kv_budget_bytes=AB_HOST_KV_BUDGET_BYTES,
        slo_ttft_s=AB_SLO.ttft_s,
        slo_tpot_s=AB_SLO.tpot_s,
    )


#: Requests per section by mode; ``prefix`` is the agent-swarm trace's swarms x agents x
#: steps (the full trace is 4*6*5 = 120 requests).
SECTION_SIZES = {
    "fast": {"trace": 120, "ab": 100, "cluster": 60, "mixed": 150, "sweep": 40, "grid": 8,
             "prefix": (2, 4, 3)},
    "full": {"trace": 500, "ab": 300, "cluster": 200, "mixed": 300, "sweep": 150,
             "grid": 12, "prefix": (4, 6, 5)},
}


def run_table(sizes: dict) -> dict:
    """Every run that serves a generated trace, declared once and sized by one mode's
    ``SECTION_SIZES``: section -> :class:`RunSpec`, or arm name -> spec for a section
    that compares arms.  Each section serves its specs through ``run()`` and renders its
    ``workload`` from them (:func:`workload_of`); the ``tracing`` section and the warm-up
    reuse ``trace_simulation``, and tier-1's count tests read the table too."""
    spec = partial(RunSpec, slo=AB_SLO)
    kv_pressure = dict(kv_budget_bytes=AB_KV_BUDGET_BYTES,
                       host_kv_budget_bytes=AB_HOST_KV_BUDGET_BYTES)
    # 20 rps keeps the constrained pool churning without tipping into overload collapse:
    # in sustained overload SJF trades tail TTFT for goodput, which is not the regime the
    # p99-TTFT acceptance criterion targets.
    ab_trace = WorkloadSpec(sizes["ab"], 20.0)
    long_prompts = LengthDistribution.lognormal(median=1024.0, sigma=0.9, maximum=4096)
    # KV-constrained *and* prefill-heavy (long prompts, sizeable answers, hybrid
    # preemption under a shrunk device pool): the regime where decode-only fast-forward
    # never fired and the simulator ran interpretively at ~43k it/s.  The acceptance
    # flag demands >= 3x between fast-forward on and off.
    mixed = spec(
        workload=WorkloadSpec(
            sizes["mixed"], 16.0, prompt_lengths=long_prompts,
            output_lengths=LengthDistribution.lognormal(median=200.0, sigma=0.8, maximum=1024),
        ),
        scheduler_options=dict(kv_pressure, preemption_policy="hybrid"),
    )
    # Prefill-heavy (long prompts, short answers) at a rate that keeps four replicas busy.
    # Co-located, every prefill chunk shares its iteration with resident decode batches
    # (TTFT pays TPOT's bill); the disaggregated fleet runs prefill on dedicated replicas
    # and pays an explicit per-request KV handoff over the interconnect instead.
    cluster_trace = WorkloadSpec(
        sizes["cluster"], 24.0, prompt_lengths=long_prompts,
        output_lengths=LengthDistribution.lognormal(median=64.0, sigma=0.8, maximum=512),
    )
    return {
        "trace_simulation": spec(workload=WorkloadSpec(sizes["trace"], 20.0)),
        "mixed_phase": {
            "fast": mixed,
            "stepwise": replace(
                mixed, scheduler_options=dict(mixed.scheduler_options, fast_forward=False)
            ),
        },
        # On the FP16 system re-prefill pays full FP16 GEMM cost, so recompute-only loses
        # clearly to swapping.  On the stock H800 host link the swap round trip beats
        # re-prefill for every victim, here and on the W4A8 systems alike, so the hybrid
        # swaps whenever the host pool has room; its recompute branch is exercised on a
        # slow host link in tests/test_serving_policies.py.
        "preemption_ab": {
            policy: spec("trt-fp16", workload=ab_trace,
                         scheduler_options=dict(kv_pressure, preemption_policy=policy))
            for policy in ("recompute", "swap", "hybrid")
        },
        "scheduling_ab": {
            policy: spec(workload=replace(ab_trace, num_priority_levels=4),
                         scheduler_options=dict(kv_pressure, scheduling_policy=policy,
                                                preemption_policy="hybrid"))
            for policy in ("fcfs", "priority", "sjf", "fairness")
        },
        # Equal total GPU count: four co-located replicas behind the least-tokens router
        # (the strongest co-located baseline, not a strawman) vs. 2 prefill + 2 decode.
        "cluster_ab": {
            "colocated": spec(cluster=ClusterSpec(num_replicas=4, router="least-tokens"),
                              workload=cluster_trace),
            "disaggregated": spec(
                cluster=ClusterSpec("disaggregated", num_prefill_replicas=2,
                                    num_decode_replicas=2),
                workload=cluster_trace,
            ),
        },
        # The fast-forward stress runs, the same size in both modes (analytic fast-forward
        # is what makes them CI-viable): 20,000 requests through one replica, and 4,000
        # through 16 co-located replicas at 10 rps each behind the least-tokens router,
        # which polls every replica's load per dispatch (the O(1) load counter's worst
        # customer).
        "scale": {
            "trace": spec(workload=WorkloadSpec(20_000, 20.0)),
            "cluster": spec(cluster=ClusterSpec(num_replicas=16, router="least-tokens"),
                            workload=WorkloadSpec(4_000, 160.0)),
        },
    }


def workload_of(spec) -> dict:
    """A section's ``workload`` dict, rendered from its :class:`RunSpec`; for an A/B
    (arm name -> spec), the fields every arm renders alike."""
    if not isinstance(spec, RunSpec):
        arms = [workload_of(arm) for arm in spec.values()]
        return {key: value for key, value in arms[0].items()
                if all(key in arm and arm[key] == value for arm in arms)}
    workload, cluster = spec.workload, spec.cluster
    prompts = workload.prompt_lengths or SHAREGPT_PROMPTS
    outputs = workload.output_lengths or SHAREGPT_OUTPUTS
    fields = {
        "system": spec.system,
        "model": spec.model,
        "device": spec.device,
        "num_requests": workload.num_requests,
        "arrival": f"poisson-{workload.arrival_rate_rps:g}rps",
        "lengths": f"{prompts.kind} (prompts ~{prompts.median:g}, outputs ~{outputs.median:g})",
        "seed": workload.seed,
    }
    if workload.num_priority_levels > 1:
        fields["num_priority_levels"] = workload.num_priority_levels
    for name, value in spec.scheduler_options.items():
        if name.endswith("_bytes"):  # a KV budget, reported in MiB
            fields[name[: -len("bytes")] + "mb"] = value // 2**20
        else:
            fields[name] = value
    if cluster is not None:
        fields.update(mode=cluster.mode, total_replicas=cluster.total_replicas,
                      router=cluster.router or cluster.default_router)
        if cluster.mode == "colocated":
            fields["num_replicas"] = cluster.total_replicas
    fields["slo"] = {"ttft_s": spec.slo.ttft_s, "tpot_s": spec.slo.tpot_s}
    return fields


#: Documented result schema. Leaf values are the required types (``int`` also satisfies a
#: ``float`` leaf); nested dicts are required sub-objects; ``dict`` leaves are free-form.
SCHEMA = {
    "benchmark": str,
    "mode": str,  # "full" | "fast"
    "trace_simulation": {
        "workload": dict,
        "harness": {"wall_time_s": float, "iterations_per_s": float},
        "simulated": {
            "completed_requests": int,
            "generated_tokens": int,
            "throughput_tokens_per_s": float,
            "iterations": int,
            "prefill_chunks": int,
            "preemptions": int,
            "peak_batch_size": int,
            "peak_kv_utilization": float,
            "p50_ttft_s": float,
            "p99_ttft_s": float,
            "p50_tpot_s": float,
            "p99_tpot_s": float,
            "slo_attainment": float,
            "goodput_rps": float,
        },
    },
    "mixed_phase": {
        "workload": dict,
        "harness": {
            "wall_time_s": float,
            "iterations_per_s": float,
            "stepwise_wall_time_s": float,
            "stepwise_iterations_per_s": float,
            "speedup_vs_stepwise": float,
        },
        "simulated": dict,  # same summary fields as trace_simulation.simulated
        "speedup_ge_3x": bool,
    },
    "preemption_ab": {
        "workload": dict,
        "policies": dict,  # policy name -> per-policy metrics
        "hybrid_goodput_ge_recompute": bool,
    },
    "scheduling_ab": {
        "workload": dict,
        "policies": dict,  # policy name -> per-policy metrics
        "sjf_p99_ttft_improves": bool,
    },
    "cluster_ab": {
        "workload": dict,
        "configs": dict,  # "colocated" / "disaggregated" -> per-config metrics
        "disagg_p99_ttft_improves": bool,
    },
    "prefix_cache": {
        "workload": dict,
        "harness": {"wall_time_s": float, "iterations_per_s": float},
        "configs": dict,  # "cache_on" / "cache_off" -> per-config metrics
        "p99_ttft_speedup": float,
        "p99_ttft_improves_ge_1_5x": bool,
    },
    "scale": {
        "trace": {
            "workload": dict,
            "harness": {"wall_time_s": float, "iterations_per_s": float},
            "simulated": dict,  # same summary fields as trace_simulation.simulated
        },
        "cluster": {
            "workload": dict,
            "harness": {"wall_time_s": float, "iterations_per_s": float},
            "summary": dict,  # cluster-level throughput / SLO metrics
        },
    },
    "sweep": {
        "grid": dict,
        "num_cells": int,
        "workers": int,
        "cpu_count": int,
        "serial_wall_s": float,
        "parallel_wall_s": float,
        "speedup": float,
        "cells_per_s": float,
        "parallel_matches_serial": bool,
        "consolidated_json": str,
    },
    "sweep_grid": {
        "workload": dict,
        "num_cells": int,
        "workers": int,
        "wall_time_s": float,
        "cells_per_s": float,
        "frontier_points": int,
        "dominated_cells": int,
        "best_config": dict,  # the frontier's top goodput-per-GPU point
    },
    "tracing": {
        "workload": dict,
        "harness": {
            "wall_time_s": float,             # best tracer-off wall (the null path)
            "iterations_per_s": float,
            "traced_wall_time_s": float,      # single tracer-on run
            "off_vs_baseline_ratio": float,   # baseline wall / tracer-off wall, interleaved
        },
        "events": int,
        "counter_samples": int,
        "bit_identical": bool,       # tracer-on simulated results == tracer-off, live
        "breakdowns_exact": bool,    # every phase breakdown tiles its e2e latency
        "trace_artifact": str,
    },
    "tensor_parallel_llama2_70b": {
        "single_gpu_oom": bool,
        "tp4_peak_tokens_per_s": float,
        "tp4_peak_batch": int,
        "tp4_weights_per_gpu_gb": float,
        "wall_time_s": float,
    },
}


#: Leaf names that time the host rather than the simulation: wall times, it/s, speedups
#: (and the flag read from one) and the tracing ratio.  ``--compare`` lists them after
#: every count and simulated value and never fails on them.
WALL_CLOCK_LEAVES = frozenset({
    "wall_time_s", "iterations_per_s", "stepwise_wall_time_s", "stepwise_iterations_per_s",
    "speedup_vs_stepwise", "speedup_ge_3x", "serial_wall_s", "parallel_wall_s", "speedup",
    "cells_per_s", "traced_wall_time_s", "off_vs_baseline_ratio",
})


def validate_payload(payload, schema=SCHEMA, path="$"):
    """Assert ``payload`` matches ``schema`` (the shared validator of
    :mod:`repro.reporting.schema`, defaulted to this harness's ``SCHEMA``)."""
    _validate_schema(payload, schema, path)


def payload_leaves(payload, path="$") -> dict:
    """``{path: value}`` of every leaf of a payload (a list is one leaf)."""
    if not isinstance(payload, dict):
        return {path: payload}
    leaves = {}
    for key, value in payload.items():
        leaves.update(payload_leaves(value, f"{path}.{key}"))
    return leaves


def compare_payloads(a: dict, b: dict):
    """``(simulated, wall_clock)``: the leaves that differ between two payloads, each a
    list of ``(path, value in a, value in b)`` in payload order.  A leaf on one side only
    reads ``"<absent>"`` on the other."""
    leaves_a, leaves_b = payload_leaves(a), payload_leaves(b)
    simulated, wall_clock = [], []
    for path in {**leaves_a, **leaves_b}:
        value_a = leaves_a.get(path, "<absent>")
        value_b = leaves_b.get(path, "<absent>")
        if value_a != value_b:
            side = wall_clock if path.rsplit(".", 1)[-1] in WALL_CLOCK_LEAVES else simulated
            side.append((path, value_a, value_b))
    return simulated, wall_clock


def compare_files(path_a: str, path_b: str) -> int:
    """Print the leaves that differ between two payload files; 1 if a leaf that is not
    wall-clock differs, else 0."""
    payloads = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            payloads.append(json.load(fh))
    simulated, wall_clock = compare_payloads(*payloads)
    compared = len({**payload_leaves(payloads[0]), **payload_leaves(payloads[1])})
    print(f"{compared} leaves compared: {len(simulated)} counts or simulated values and "
          f"{len(wall_clock)} wall-clock leaves differ")
    for title, rows in (("counts and simulated values", simulated),
                        ("wall-clock", wall_clock)):
        if rows:
            print(f"{title}:\n{difference_lines(rows)}")
    return 1 if simulated else 0


def difference_lines(rows) -> str:
    """One ``  path: a -> b`` line per ``(path, value in a, value in b)`` row."""
    return "\n".join(f"  {path}: {value_a} -> {value_b}" for path, value_a, value_b in rows)


def _simulated_summary(result, report) -> dict:
    """A single-replica run's summary: its scheduler stats and its SLO ``report``."""
    stats = result.replica_stats[0]
    return {
        "completed_requests": stats.completed_requests,
        "generated_tokens": stats.generated_tokens,
        "throughput_tokens_per_s": round(stats.throughput_tokens_per_s, 1),
        "iterations": stats.num_iterations,
        "prefill_chunks": stats.prefill_chunks,
        "preemptions": stats.preemptions,
        "peak_batch_size": stats.peak_batch_size,
        "peak_kv_utilization": round(stats.peak_kv_utilization, 4),
        "p50_ttft_s": round(report.p50_ttft_s, 4),
        "p99_ttft_s": round(report.p99_ttft_s, 4),
        "p50_tpot_s": round(report.p50_tpot_s, 5),
        "p99_tpot_s": round(report.p99_tpot_s, 5),
        "slo_attainment": round(report.attainment, 4),
        "goodput_rps": round(report.goodput_rps, 2),
    }


def _harness(iterations: int, wall_s: float, digits: int = 3) -> dict:
    return {
        "wall_time_s": round(wall_s, digits),
        "iterations_per_s": round(iterations / wall_s, 1),
    }


def timed(serve, repeats: int = 1):
    """``(result, best wall)`` of ``repeats`` timed calls of ``serve()``."""
    wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = serve()
        wall = min(wall, time.perf_counter() - start)
    return result, wall


def interleaved(runs: dict, seconds_per_side: float):
    """``(results, best walls)`` of each named ``runs`` side, timed interleaved.

    Rounds of one run per side, the order alternating from round to round, go on until
    every side has run for ``seconds_per_side`` (at least one round).  Each run starts
    from a collected heap, and the walls stay unrounded.  A ratio of two sides' best walls
    then sees host speed drift and rounding on both sides instead of in the ratio.
    """
    order = list(runs)
    results, walls = {}, dict.fromkeys(order, float("inf"))
    spent = dict.fromkeys(order, 0.0)
    rounds = 0
    while rounds == 0 or min(spent.values()) < seconds_per_side:
        for side in order if rounds % 2 == 0 else reversed(order):
            gc.collect()  # each run starts from a heap without the last run's garbage
            results[side], wall = timed(runs[side])
            walls[side] = min(walls[side], wall)
            spent[side] += wall
        rounds += 1
    return results, walls


def _warm_up(spec: RunSpec) -> None:
    """One tiny throwaway run of ``spec``'s workload before any timed section.

    First use pays one-time costs that are not the scheduler's (NumPy RNG and ufunc
    initialization, kernel cost-model setup); ``harness.iterations_per_s`` is meant to
    track the simulator hot loop, so those are paid here, outside every timer.
    """
    run(replace(spec, workload=replace(spec.workload, num_requests=4)))


def bench_trace_simulation(spec: RunSpec, repeats: int = 1, profile: bool = False):
    """Returns the payload section plus the run (for ``--dump-requests``)."""
    profiler = cProfile.Profile() if profile else None
    if profiler is not None:
        profiler.enable()
    result, wall_s = timed(lambda: run(spec), repeats)
    if profiler is not None:
        profiler.disable()
        print("== trace_simulation profile (top 25 by cumulative time) ==")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    return result, {
        "workload": workload_of(spec),
        "harness": _harness(result.replica_stats[0].num_iterations, wall_s),
        "simulated": _simulated_summary(result, result.slo_report(spec.slo)),
    }


def bench_mixed_phase(specs: dict, seconds_per_side: float = 0.0) -> dict:
    """The mixed-phase fast-forward acceptance section: fast vs. interpretive execution.

    The two arms are timed :func:`interleaved` for ``seconds_per_side`` each (0: one run
    each), and the flag compares their best walls unrounded.  The simulated numbers are
    asserted identical between the two modes before anything is reported — a wall-clock
    win that changed results would be a bug, not a speedup.
    """
    results, walls = interleaved(
        {arm: partial(run, specs[arm]) for arm in ("fast", "stepwise")}, seconds_per_side
    )
    fast, stepwise = results["fast"], results["stepwise"]
    fast_wall, stepwise_wall = walls["fast"], walls["stepwise"]
    slo = specs["fast"].slo
    report = fast.slo_report(slo)
    iterations = fast.replica_stats[0].num_iterations
    if (
        fast.simulated_time_s != stepwise.simulated_time_s
        or iterations != stepwise.replica_stats[0].num_iterations
        or report != stepwise.slo_report(slo)
    ):  # pragma: no cover - pinned by the equivalence test suite
        raise SystemExit("mixed_phase: fast-forward diverged from stepwise execution")
    speedup = stepwise_wall / fast_wall
    return {
        "workload": workload_of(specs),
        "harness": dict(
            _harness(iterations, fast_wall, digits=4),
            stepwise_wall_time_s=round(stepwise_wall, 4),
            stepwise_iterations_per_s=round(iterations / stepwise_wall, 1),
            speedup_vs_stepwise=round(speedup, 2),
        ),
        "simulated": _simulated_summary(fast, report),
        # The flag compares raw walls: payload rounding must not flip a CI verdict.
        "speedup_ge_3x": stepwise_wall >= 3.0 * fast_wall,
    }


def bench_sweep(num_requests: int, fast_mode: bool) -> dict:
    """The process-parallel sweep section: 64 grid cells, serial vs. 4 workers.

    Writes the parallel run's consolidated JSON next to the bench payload.  The gated
    flag is determinism (parallel cells byte-identical to serial); the speedup is
    reported for the trajectory but bounded by the runner's cores, so it is not gated.
    """
    grid = _sweep_grid(num_requests)
    start = time.perf_counter()
    serial = run_sweep(grid, parallel=False)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(grid, max_workers=SWEEP_WORKERS)
    parallel_wall = time.perf_counter() - start
    sweep_path = write_sweep_json(
        parallel, SWEEP_FAST_RESULT_PATH if fast_mode else SWEEP_RESULT_PATH
    )
    return {
        "grid": serial["grid"],
        "num_cells": serial["num_cells"],
        "workers": SWEEP_WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "serial_wall_s": round(serial_wall, 3),
        "parallel_wall_s": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 2),
        "cells_per_s": round(serial["num_cells"] / parallel_wall, 2),
        "parallel_matches_serial": cells_identical(serial, parallel),
        "consolidated_json": os.path.basename(sweep_path),
    }


def bench_sweep_grid(num_requests: int) -> dict:
    """Profile a >= 1,000-cell quant-format x kernel x kv_format grid end to end.

    Every registered system crossed with kernel-backend overrides: the workload the
    unified backend layer exists for (engines are cached per (system, kernel, kv_format)
    configuration in each worker).  ``cells_per_s`` is gated by
    ``benchmarks/check_perf_regression.py`` against ``perf_baseline.json`` — a backend
    resolution accidentally moved into the per-cell path would crater it.
    """
    grid = _large_grid(num_requests)
    start = time.perf_counter()
    payload = run_sweep(grid, max_workers=SWEEP_WORKERS)
    wall_s = time.perf_counter() - start
    frontier = payload["frontier"]
    return {
        "workload": {
            "model": "llama2-7b",
            "device": "H800",
            "systems": len(grid.systems),
            "kernels": len(grid.kernels),
            "kv_formats": len(grid.kv_formats),
            "scheduling_policies": len(grid.scheduling_policies),
            "preemption_policies": len(grid.preemption_policies),
            "arrival_rates": len(grid.arrival_rates_rps),
            "num_requests_per_cell": num_requests,
            "kv_budget_mb": AB_KV_BUDGET_BYTES // 2**20,
            "slo": {"ttft_s": AB_SLO.ttft_s, "tpot_s": AB_SLO.tpot_s},
        },
        "num_cells": payload["num_cells"],
        "workers": SWEEP_WORKERS,
        "wall_time_s": round(wall_s, 3),
        "cells_per_s": round(payload["num_cells"] / wall_s, 1),
        "frontier_points": frontier["num_points"],
        "dominated_cells": frontier["dominated_cells"],
        "best_config": dict(frontier["points"][0]) if frontier["points"] else {},
    }


def _serve_arms(specs: dict, summarize):
    """``(rows, reports)``: each arm's spec served once through ``run()``, its row
    ``summarize(result, report)`` plus its wall, and its raw SLO report."""
    rows, reports = {}, {}
    for arm, spec in specs.items():
        result, wall_s = timed(lambda: run(spec))
        reports[arm] = result.slo_report(spec.slo)
        rows[arm] = dict(summarize(result, reports[arm]), wall_time_s=round(wall_s, 3))
    return rows, reports


def _preemption_summary(result, report) -> dict:
    stats = result.replica_stats[0]
    return dict(
        _simulated_summary(result, report),
        swap_preemptions=stats.swap_preemptions,
        recompute_preemptions=stats.recompute_preemptions,
        swap_ins=stats.swap_ins,
        kv_transfer_s=round(stats.kv_transfer_s, 4),
        peak_host_kv_utilization=round(stats.peak_host_kv_utilization, 4),
    )


def bench_preemption_ab(specs: dict) -> dict:
    """Recompute vs. swap vs. cost-based hybrid on the same KV-constrained trace."""
    policies, reports = _serve_arms(specs, _preemption_summary)
    return {
        "workload": workload_of(specs),
        "policies": policies,
        # Flags compare the raw simulator values: rounding for the payload must not be
        # able to flip a CI-gating verdict either way.
        "hybrid_goodput_ge_recompute":
            reports["hybrid"].goodput_rps >= reports["recompute"].goodput_rps,
    }


def bench_scheduling_ab(specs: dict) -> dict:
    """FCFS vs. priority vs. SJF vs. max-min fairness on the same constrained trace."""
    policies, reports = _serve_arms(specs, _simulated_summary)
    return {
        "workload": workload_of(specs),
        "policies": policies,
        "sjf_p99_ttft_improves": reports["sjf"].p99_ttft_s < reports["fcfs"].p99_ttft_s,
    }


def _cluster_summary(result, report) -> dict:
    return {
        "router": result.router,
        "replica_roles": ",".join(result.replica_roles),
        "completed_requests": result.completed_requests,
        "generated_tokens": result.generated_tokens,
        "throughput_tokens_per_s": round(result.throughput_tokens_per_s, 1),
        "p50_ttft_s": round(report.p50_ttft_s, 4),
        "p99_ttft_s": round(report.p99_ttft_s, 4),
        "p50_tpot_s": round(report.p50_tpot_s, 5),
        "p99_tpot_s": round(report.p99_tpot_s, 5),
        "mean_queue_time_s": round(report.mean_queue_time_s, 5),
        "slo_attainment": round(report.attainment, 4),
        "goodput_rps": round(report.goodput_rps, 2),
        "kv_handoffs": result.kv_handoffs,
        "kv_handoff_gb": round(result.kv_handoff_bytes / 2**30, 3),
        "kv_handoff_s": round(result.kv_handoff_s, 4),
    }


def bench_cluster_ab(specs: dict) -> dict:
    """Co-located vs. disaggregated prefill/decode at equal total GPU count."""
    configs, reports = _serve_arms(specs, _cluster_summary)
    return {
        "workload": workload_of(specs),
        "configs": configs,
        "disagg_p99_ttft_improves":
            reports["disaggregated"].p99_ttft_s < reports["colocated"].p99_ttft_s,
    }


def bench_prefix_cache(num_swarms: int, agents_per_swarm: int, steps_per_swarm: int,
                       repeats: int = 1) -> dict:
    """Radix prefix-cache A/B: one agent-swarm trace with fork-on-admit on and off.

    Each side is timed best of ``repeats`` runs of the identical trace (requests copied
    per run — the scheduler mutates them).  The cache must not change *what* is served, only when:
    completed requests and generated tokens are asserted identical before anything is
    reported.  The acceptance flag compares the raw p99 TTFTs, so payload rounding
    cannot flip the CI verdict.
    """
    trace = agent_swarm_trace(
        num_swarms, agents_per_swarm, steps_per_swarm, PREFIX_AB_ARRIVAL_RPS, seed=0,
    )

    def serve(prefix_caching):
        wall, stats = float("inf"), None
        for _ in range(repeats):
            scheduler = ContinuousBatchingScheduler(
                ServingEngine("liquidserve", "llama2-7b"),
                prefix_caching=prefix_caching,
            )
            requests = [copy.copy(r) for r in trace]
            start = time.perf_counter()
            stats = scheduler.run(requests)
            wall = min(wall, time.perf_counter() - start)
        report = compute_slo_report(stats.requests, AB_SLO, stats.simulated_time_s)
        return stats, report, wall

    on_stats, on_report, on_wall = serve(True)
    off_stats, off_report, off_wall = serve(False)
    if (
        on_stats.completed_requests != off_stats.completed_requests
        or on_stats.generated_tokens != off_stats.generated_tokens
    ):  # pragma: no cover - pinned by the tier-1 suite
        raise SystemExit("prefix_cache: caching changed the served population")

    def summarize(stats, report, wall_s):
        return {
            "completed_requests": stats.completed_requests,
            "generated_tokens": stats.generated_tokens,
            "throughput_tokens_per_s": round(stats.throughput_tokens_per_s, 1),
            "iterations": stats.num_iterations,
            "prefill_chunks": stats.prefill_chunks,
            "p50_ttft_s": round(report.p50_ttft_s, 4),
            "p99_ttft_s": round(report.p99_ttft_s, 4),
            "goodput_rps": round(report.goodput_rps, 2),
            "prefix_hit_rate": round(stats.prefix_hit_rate, 4),
            "prefix_saved_tokens": stats.prefix_saved_tokens,
            "prefix_blocks_inserted": stats.prefix_blocks_inserted,
            "prefix_blocks_evicted": stats.prefix_blocks_evicted,
            "wall_time_s": round(wall_s, 4),
        }

    return {
        "workload": {
            "system": "liquidserve",
            "model": "llama2-7b",
            "device": "H800",
            "trace": "agent-swarm",
            "num_swarms": num_swarms,
            "agents_per_swarm": agents_per_swarm,
            "steps_per_swarm": steps_per_swarm,
            "num_requests": len(trace),
            "arrival": f"swarm-steps-{PREFIX_AB_ARRIVAL_RPS:g}rps",
            "seed": 0,
            "slo": {"ttft_s": AB_SLO.ttft_s, "tpot_s": AB_SLO.tpot_s},
        },
        "harness": _harness(on_stats.num_iterations, on_wall, digits=4),
        "configs": {
            "cache_on": summarize(on_stats, on_report, on_wall),
            "cache_off": summarize(off_stats, off_report, off_wall),
        },
        "p99_ttft_speedup": round(off_report.p99_ttft_s / on_report.p99_ttft_s, 2),
        "p99_ttft_improves_ge_1_5x":
            off_report.p99_ttft_s >= 1.5 * on_report.p99_ttft_s,
    }


def bench_scale(specs: dict) -> dict:
    """Fast-forward stress sections: the workloads stepwise execution cannot serve in CI.

    Sizes are identical in fast and full mode — the entire point of the analytic
    fast-forward layer is that a 20k-request trace and a 16-replica fleet finish in
    seconds, so the committed and CI numbers exercise the same workload.
    """
    trace_spec, cluster_spec = specs["trace"], specs["cluster"]
    trace, trace_wall_s = timed(lambda: run(trace_spec))
    cluster, cluster_wall_s = timed(lambda: run(cluster_spec))
    cluster_iterations = sum(stats.num_iterations for stats in cluster.replica_stats)
    report = cluster.slo_report(cluster_spec.slo)
    return {
        "trace": {
            "workload": workload_of(trace_spec),
            "harness": _harness(trace.replica_stats[0].num_iterations, trace_wall_s),
            "simulated": _simulated_summary(trace, trace.slo_report(trace_spec.slo)),
        },
        "cluster": {
            "workload": workload_of(cluster_spec),
            "harness": _harness(cluster_iterations, cluster_wall_s),
            "summary": {
                "completed_requests": cluster.completed_requests,
                "generated_tokens": cluster.generated_tokens,
                "throughput_tokens_per_s": round(cluster.throughput_tokens_per_s, 1),
                "iterations": cluster_iterations,
                "p50_ttft_s": round(report.p50_ttft_s, 4),
                "p99_ttft_s": round(report.p99_ttft_s, 4),
                "p99_tpot_s": round(report.p99_tpot_s, 5),
                "slo_attainment": round(report.attainment, 4),
                "goodput_rps": round(report.goodput_rps, 2),
            },
        },
    }


def dump_requests_csv(result, path: str) -> None:
    """Write the per-request latency decomposition of one run as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "request_id", "output_tokens", "ttft_s", "tpot_s", "latency_s",
            "queue_time_s", "preemptions",
        ])
        for m in request_metrics(result.requests):
            writer.writerow([
                m.request_id, m.output_tokens, f"{m.ttft_s:.6f}", f"{m.tpot_s:.6f}",
                f"{m.latency_s:.6f}", f"{m.queue_time_s:.6f}", m.preemptions,
            ])


def bench_tracing(spec: RunSpec, fast_mode: bool) -> dict:
    """Telemetry overhead and correctness on the ``trace_simulation`` spec.

    ``off_vs_baseline_ratio`` isolates what the null-tracer hooks cost: the
    ``trace_simulation`` run (the baseline) and the same run with ``tracer=None``
    passed explicitly are timed :func:`interleaved` for ``INTERLEAVED_SECONDS_PER_SIDE``
    each, and the ratio divides the best baseline wall by the best tracer-off wall,
    unrounded, which ``check_perf_regression.py`` floors.  Then one tracer-on run asserts,
    live, the two contracts the telemetry subsystem is built on: simulated results
    bit-identical to the untraced run, and every request's phase breakdown tiling its
    end-to-end latency exactly.  The traced timeline is written as a Chrome/Perfetto JSON
    artifact next to the payload.
    """
    results, walls = interleaved(
        {"baseline": lambda: run(spec), "off": lambda: run(spec, tracer=None)},
        INTERLEAVED_SECONDS_PER_SIDE,
    )
    off, off_wall = results["off"], walls["off"]

    tracer = Tracer(label="bench_trace_simulation")
    on, on_wall = timed(lambda: run(spec, tracer=tracer))

    on_stats, off_stats = on.replica_stats[0], off.replica_stats[0]
    per_request = request_metrics(on.requests)
    bit_identical = (
        per_request == request_metrics(off.requests)
        and on_stats.num_iterations == off_stats.num_iterations
        and on_stats.generated_tokens == off_stats.generated_tokens
        and on_stats.throughput_tokens_per_s == off_stats.throughput_tokens_per_s
    )
    if not bit_identical:  # pragma: no cover - pinned by the tier-1 suite
        raise SystemExit("tracing: tracer-on run diverged from tracer-off run")
    breakdowns = request_breakdowns(tracer)
    breakdowns_exact = len(breakdowns) == len(per_request) and all(
        bd.is_exact for bd in breakdowns
    )
    artifact = os.path.abspath(
        TRACE_FAST_RESULT_PATH if fast_mode else TRACE_RESULT_PATH
    )
    write_chrome_trace(tracer, artifact, breakdowns)
    return {
        "workload": workload_of(spec),
        "harness": dict(
            _harness(off_stats.num_iterations, off_wall, digits=4),
            traced_wall_time_s=round(on_wall, 4),
            # >= 1.0 means the tracer-off path matched (or beat) the baseline run it
            # was timed against; the gate floors the ratio.
            off_vs_baseline_ratio=round(walls["baseline"] / off_wall, 3),
        ),
        "events": tracer.num_events,
        "counter_samples": len(tracer.counters),
        "bit_identical": bit_identical,
        "breakdowns_exact": breakdowns_exact,
        "trace_artifact": os.path.basename(artifact),
    }


def bench_tensor_parallel() -> dict:
    """Llama2-70B FP16: OOM on one GPU, finite peak throughput on four.

    No fast-mode trimming: ``peak_throughput`` always sweeps the memory-limit batch too,
    and the whole section runs in well under a second.
    """
    single = ServingEngine("trt-fp16", "llama2-70b")
    sharded = ServingEngine("trt-fp16", "llama2-70b", tp_degree=4)
    start = time.perf_counter()
    result = sharded.peak_throughput(batch_sizes=[1, 16, 64, 128, 256])
    wall_s = time.perf_counter() - start
    return {
        "single_gpu_oom": single.peak_throughput(batch_sizes=[1, 16, 64]).oom,
        "tp4_peak_tokens_per_s": round(result.peak_throughput, 1),
        "tp4_peak_batch": result.peak_batch_size,
        "tp4_weights_per_gpu_gb": round(sharded.weight_memory_bytes() / 2**30, 2),
        "wall_time_s": round(wall_s, 3),
    }


def scheduler_sections(sizes: dict, best_of=None, profile: bool = False):
    """``(trace_simulation's run, sections)``: the six sections that serve a trace through
    the scheduler, in payload order.  Each spec is served once unless ``best_of`` is given
    (``main`` passes :data:`BEST_OF`): a section it names then reports the best of that
    many timed runs, and ``mixed_phase`` times its arms :func:`interleaved` for
    ``INTERLEAVED_SECONDS_PER_SIDE`` each.  Every leaf of them that is not wall-clock is
    a count or a simulated value; tier-1 pins those leaves at ``--fast`` size."""
    table, repeats = run_table(sizes), best_of or {}
    trace, trace_section = bench_trace_simulation(
        table["trace_simulation"], repeats.get("trace_simulation", 1), profile
    )
    return trace, {
        "trace_simulation": trace_section,
        "mixed_phase": bench_mixed_phase(
            table["mixed_phase"], INTERLEAVED_SECONDS_PER_SIDE if best_of else 0.0
        ),
        "preemption_ab": bench_preemption_ab(table["preemption_ab"]),
        "scheduling_ab": bench_scheduling_ab(table["scheduling_ab"]),
        "cluster_ab": bench_cluster_ab(table["cluster_ab"]),
        "prefix_cache": bench_prefix_cache(*sizes["prefix"], repeats.get("prefix_cache", 1)),
    }


def without_wall_clock(payload):
    """``payload`` with every wall-clock leaf (``WALL_CLOCK_LEAVES``) dropped."""
    if not isinstance(payload, dict):
        return payload
    return {key: without_wall_clock(value) for key, value in payload.items()
            if isinstance(value, dict) or key not in WALL_CLOCK_LEAVES}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="shrink traces for CI (same sections and schema)")
    parser.add_argument("--dump-requests", metavar="CSV",
                        help="write the trace_simulation per-request metrics to this CSV")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the trace_simulation section and print hot spots")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="run nothing; print the leaves that differ between two "
                             "payloads and exit 1 if one that is not wall-clock differs")
    args = parser.parse_args(argv)
    if args.compare:
        raise SystemExit(compare_files(*args.compare))
    mode = "fast" if args.fast else "full"
    sizes = SECTION_SIZES[mode]

    table = run_table(sizes)
    _warm_up(table["trace_simulation"])
    trace, sections = scheduler_sections(sizes, BEST_OF, profile=args.profile)
    payload = {
        "benchmark": "bench_scheduler",
        "mode": mode,
        **sections,
        "scale": bench_scale(table["scale"]),
        "sweep": bench_sweep(sizes["sweep"], fast_mode=args.fast),
        "sweep_grid": bench_sweep_grid(sizes["grid"]),
        "tracing": bench_tracing(table["trace_simulation"], fast_mode=args.fast),
        "tensor_parallel_llama2_70b": bench_tensor_parallel(),
    }
    validate_payload(payload)
    if args.dump_requests:
        dump_requests_csv(trace, args.dump_requests)
        print(f"wrote per-request metrics to {os.path.abspath(args.dump_requests)}")
    path = os.path.abspath(FAST_RESULT_PATH if args.fast else RESULT_PATH)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}")
    # The acceptance criteria are checked live (every run, both modes), not just against
    # the committed result, so CI catches a behavioral regression the moment it lands.
    failed = [
        flag
        for section, flag in (
            ("mixed_phase", "speedup_ge_3x"),
            ("preemption_ab", "hybrid_goodput_ge_recompute"),
            ("scheduling_ab", "sjf_p99_ttft_improves"),
            ("cluster_ab", "disagg_p99_ttft_improves"),
            ("prefix_cache", "p99_ttft_improves_ge_1_5x"),
            ("sweep", "parallel_matches_serial"),
            ("tracing", "bit_identical"),
            ("tracing", "breakdowns_exact"),
        )
        if not payload[section][flag]
    ]
    if failed:
        raise SystemExit(f"acceptance criteria failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
