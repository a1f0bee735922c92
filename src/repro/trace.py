"""Command-line timeline tracer for the serving simulator.

Runs one traced simulation — single replica or cluster — and emits the two telemetry
artifacts plus a human-readable critical-path report:

* a **Chrome trace-event JSON** (``--trace-out``) loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``: one process track per replica
  (engine iterations and fast-forwarded epochs on thread 0, KV swap/migration DMAs on
  thread 1), counter tracks for the sampled gauges, one async track per request showing
  its queue/prefill/decode/preempted/transfer phases, and flow arrows for cluster KV
  migrations;
* a **schema-validated summary JSON** (``--summary-out``) with event counts, counter
  statistics, preemption reasons, engine memo-cache stats and the per-request phase
  breakdown;
* a stdout table of the slowest requests' critical paths — where each request's
  end-to-end latency actually went.  The phase durations per request sum *exactly*
  (not approximately) to its end-to-end latency; the exporter verifies this and the
  report prints the check.

Example::

    PYTHONPATH=src python -m repro.trace --num-requests 200 --rate 20 \
        --preemption swap --kv-budget-mb 1024 --trace-out timeline.json

then open ``timeline.json`` in Perfetto.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Optional, Sequence

from .serving.metrics import SloSpec
from .serving.models import list_models
from .serving.policies import PREEMPTION_POLICIES, SCHEDULING_POLICIES
from .serving.router import ROUTER_POLICIES
from .serving.systems import ClusterSpec, list_systems
from .telemetry import (
    PHASES,
    Tracer,
    build_summary,
    request_breakdowns,
    write_chrome_trace,
    write_summary,
)
from .workloads.traces import WorkloadSpec

__all__ = ["main", "run_traced"]


def _mib(value: Optional[int]) -> Optional[int]:
    return None if value is None else value * 2**20


def run_traced(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the configured simulation with a tracer attached; returns report inputs."""
    from .core.api import RunSpec, run

    tracer = Tracer(sample_interval_s=args.sample_interval_s, label=args.label)
    spec = RunSpec(
        args.system,
        args.model,
        device=args.device,
        cluster=ClusterSpec.from_shape({
            "mode": args.mode,
            "num_replicas": args.num_replicas,
            "num_prefill_replicas": args.num_prefill_replicas,
            "num_decode_replicas": args.num_decode_replicas,
            "router": args.router,
        }),
        workload=WorkloadSpec(
            args.num_requests, args.rate, seed=args.seed,
            shared_prefix_tokens=args.shared_prefix_tokens,
        ),
        scheduler_options=dict(
            scheduling_policy=args.scheduling,
            preemption_policy=args.preemption,
            kv_budget_bytes=_mib(args.kv_budget_mb),
            host_kv_budget_bytes=_mib(args.host_kv_budget_mb),
            prefix_caching=args.prefix_caching,
        ),
        slo=SloSpec(ttft_s=args.slo_ttft_s, tpot_s=args.slo_tpot_s),
    )
    result = run(spec, tracer=tracer)
    return {"tracer": tracer, "result": result, "stats": result.replica_stats}


def _print_report(
    tracer: Tracer,
    summary: Dict[str, Any],
    top: int,
) -> None:
    req = summary["requests"]
    print(f"trace '{summary['label']}': {summary['num_events']} events, "
          f"{req['completed']} completed requests")
    print("event counts:", ", ".join(
        f"{kind}={count}" for kind, count in summary["event_counts"].items()
    ))
    totals = req["phase_totals_s"]
    e2e_total = sum(totals.values())
    print("aggregate critical path "
          f"(exact tiling: {req['breakdowns_exact']}):")
    for phase in PHASES:
        share = totals[phase] / e2e_total if e2e_total else 0.0
        print(f"  {phase:>9}: {totals[phase]:10.4f} s  ({share:6.1%})")
    pre = summary["preemptions"]
    print(f"preemptions: {pre['total']} "
          f"(kv_pressure={pre['kv_pressure']}, policy_victim={pre['policy_victim']}, "
          f"averted_by_cache_evict={pre['averted_by_cache_evict']})")

    rows = sorted(req["per_request"], key=lambda r: -r["e2e_s"])[:top]
    if not rows:
        return
    print(f"\nslowest {len(rows)} requests (phase seconds; rows sum to e2e):")
    header = ["request", "e2e_s"] + list(PHASES)
    print("  " + "  ".join(f"{h:>9}" for h in header))
    for row in rows:
        cells = [f"{row['request_id']:>9}", f"{row['e2e_s']:>9.4f}"]
        cells += [f"{row[f'{phase}_s']:>9.4f}" for phase in PHASES]
        print("  " + "  ".join(cells))


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--system", default="liquidserve", choices=list_systems())
    parser.add_argument("--model", default="llama2-7b", choices=list_models())
    parser.add_argument("--device", default="H800")
    parser.add_argument("--mode", default="single",
                        choices=["single", "colocated", "disaggregated"])
    parser.add_argument("--num-replicas", type=int, default=None,
                        help="replica count for --mode colocated (default 2)")
    parser.add_argument("--num-prefill-replicas", type=int, default=None,
                        help="prefill replicas for --mode disaggregated (default 1)")
    parser.add_argument("--num-decode-replicas", type=int, default=None,
                        help="decode replicas for --mode disaggregated (default 1)")
    parser.add_argument("--router", default=None, choices=sorted(ROUTER_POLICIES),
                        help="router policy for the cluster modes (default: round-robin "
                             "for colocated, disaggregated for disaggregated)")
    parser.add_argument("--num-requests", type=int, default=200)
    parser.add_argument("--rate", type=float, default=10.0,
                        help="mean arrival rate (requests/s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scheduling", default="fcfs", choices=sorted(SCHEDULING_POLICIES))
    parser.add_argument("--preemption", default="recompute",
                        choices=sorted(PREEMPTION_POLICIES))
    parser.add_argument("--kv-budget-mb", type=int, default=None,
                        help="device KV pool override (MiB)")
    parser.add_argument("--host-kv-budget-mb", type=int, default=None,
                        help="host swap pool override (MiB)")
    parser.add_argument("--prefix-caching", action="store_true")
    parser.add_argument("--shared-prefix-tokens", type=int, default=0)
    parser.add_argument("--slo-ttft-s", type=float, default=2.0)
    parser.add_argument("--slo-tpot-s", type=float, default=0.1)
    parser.add_argument("--sample-interval-s", type=float, default=0.1,
                        help="gauge sampling period on the simulated clock")
    parser.add_argument("--label", default="trace")
    parser.add_argument("--trace-out", default="trace_timeline.json",
                        help="Chrome/Perfetto trace-event JSON output path")
    parser.add_argument("--summary-out", default=None,
                        help="summary JSON output path (default: no summary file)")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest requests to print in the critical-path table")
    args = parser.parse_args(argv)
    if args.router is not None and args.mode == "single":
        parser.error("--router applies to --mode colocated or disaggregated")

    run = run_traced(args)
    tracer = run["tracer"]
    breakdowns = request_breakdowns(tracer)
    summary = build_summary(tracer, run["stats"], breakdowns)
    write_chrome_trace(tracer, args.trace_out, breakdowns)
    if args.summary_out:
        write_summary(tracer, args.summary_out, run["stats"], breakdowns)
    _print_report(tracer, summary, args.top)
    print(f"\nchrome trace -> {args.trace_out}"
          + (f"\nsummary      -> {args.summary_out}" if args.summary_out else ""))
    print("open the trace at https://ui.perfetto.dev or chrome://tracing")


if __name__ == "__main__":
    main()
