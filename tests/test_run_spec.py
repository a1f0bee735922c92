"""The run spec: every serving entry point builds one ``RunSpec`` and serves it with ``run``.

Two contracts:

* **Goldens.** The values below were measured before ``simulate_serving``,
  ``simulate_cluster``, the sweep and ``python -m repro.trace`` were routed through
  ``RunSpec``/``run``; they pin that each still serves the same numbers on one small
  KV-pressured trace per shape (single, co-located 2, disaggregated 1p+1d).
* **Knobs are declared once.** ``ContinuousBatchingScheduler.__init__`` is the only
  signature that lists the scheduler's keyword options; every layer above forwards them by
  name, so a non-default value given at any entry point reaches every scheduler it builds.
"""

import contextlib
import inspect
import io
import json

import pytest

import repro.trace as trace_cli
from repro.core import RunSpec, WorkloadSpec, run, simulate_cluster, simulate_serving
from repro.serving import ClusterSpec, ContinuousBatchingScheduler, ServingCluster
from repro.sweep import SINGLE_REPLICA, SweepGrid, run_sweep

MB = 2**20
GB = 2**30

COLOCATED_2 = {"mode": "colocated", "num_replicas": 2}
DISAGGREGATED_1_1 = {"mode": "disaggregated", "num_prefill_replicas": 1,
                     "num_decode_replicas": 1}

# ---------------------------------------------------------------------- goldens
TRACE = dict(num_requests=40, arrival_rate_rps=20.0, seed=3)
PRESSURE = dict(kv_budget_bytes=512 * MB, host_kv_budget_bytes=GB, preemption_policy="swap")

#: (simulated_time_s, generated_tokens, iterations, preemptions, p99 TTFT) per shape;
#: iterations and preemptions are summed over replicas.
GOLDEN = {
    "single": (6.9647508462584575, 10670, 2966, 63, 3.443259173365548),
    "colocated-2": (4.969834325638106, 10670, 3494, 30, 0.6212931239258825),
    "disaggregated-1p+1d": (6.605907586293655, 10670, 2926, 39, 0.014374771898126278),
}
SHAPES = {
    "single": None,
    "colocated-2": ClusterSpec(**COLOCATED_2),
    "disaggregated-1p+1d": ClusterSpec(**DISAGGREGATED_1_1),
}


def _golden_fields(replica_stats, simulated_time_s, generated_tokens, slo):
    return (
        simulated_time_s,
        generated_tokens,
        sum(s.num_iterations for s in replica_stats),
        sum(s.preemptions for s in replica_stats),
        slo.p99_ttft_s,
    )


class TestGoldens:
    def test_simulate_serving(self):
        sim = simulate_serving("liquidserve", "llama2-7b", **TRACE, **PRESSURE)
        stats = sim.stats
        assert _golden_fields(
            [stats], stats.simulated_time_s, stats.generated_tokens, sim.slo
        ) == GOLDEN["single"]

    @pytest.mark.parametrize("label, shape", [
        ("colocated-2", COLOCATED_2), ("disaggregated-1p+1d", DISAGGREGATED_1_1),
    ])
    def test_simulate_cluster(self, label, shape):
        sim = simulate_cluster("liquidserve", "llama2-7b", **shape, **TRACE, **PRESSURE)
        result = sim.result
        assert _golden_fields(
            result.replica_stats, result.simulated_time_s, result.generated_tokens, sim.slo
        ) == GOLDEN[label]

    @pytest.mark.parametrize("label", sorted(GOLDEN))
    def test_run(self, label):
        spec = RunSpec(cluster=SHAPES[label], workload=WorkloadSpec(**TRACE),
                       scheduler_options=PRESSURE)
        result = run(spec)
        assert _golden_fields(
            result.replica_stats, result.simulated_time_s, result.generated_tokens,
            result.slo_report(spec.slo),
        ) == GOLDEN[label]
        cluster = SHAPES[label]
        assert result.mode == ("single" if cluster is None else cluster.mode)

    def test_sweep_rows(self):
        grid = SweepGrid(
            preemption_policies=("swap",),
            arrival_rates_rps=(60.0,),
            cluster_shapes=(SINGLE_REPLICA, COLOCATED_2, DISAGGREGATED_1_1),
            num_requests=30,
            kv_budget_bytes=GB,
            host_kv_budget_bytes=GB,
        )
        rows = run_sweep(grid, parallel=False)["cells"]
        assert [(r["cluster"]["label"], r["seed"], r["metrics"]) for r in rows] == [
            ("single", 2029497865, {
                "completed_requests": 30, "generated_tokens": 6760,
                "throughput_tokens_per_s": 2783.4, "simulated_time_s": 2.428659,
                "iterations": 979, "preemptions": 19, "p50_ttft_s": 0.012406,
                "p99_ttft_s": 0.604831, "p99_tpot_s": 0.0067282, "slo_attainment": 1.0,
                "goodput_rps": 12.352,
            }),
            ("colocated-2", 625013020, {
                "completed_requests": 30, "generated_tokens": 8714,
                "throughput_tokens_per_s": 4551.6, "simulated_time_s": 1.91449,
                "iterations": 1531, "preemptions": 14, "p50_ttft_s": 0.005118,
                "p99_ttft_s": 0.199555, "p99_tpot_s": 0.0039703, "slo_attainment": 1.0,
                "goodput_rps": 15.67,
            }),
            ("disaggregated-1p+1d", 2132826900, {
                "completed_requests": 30, "generated_tokens": 6850,
                "throughput_tokens_per_s": 2950.7, "simulated_time_s": 2.321513,
                "iterations": 994, "preemptions": 2, "p50_ttft_s": 0.002542,
                "p99_ttft_s": 0.017532, "p99_tpot_s": 0.0054127, "slo_attainment": 1.0,
                "goodput_rps": 12.923,
            }),
        ]

    TRACE_CLI_GOLDEN = {
        "single": (
            {"admit": 60, "arrive": 60, "chunk_prefill": 110, "decode_start": 60,
             "ff_decode": 159, "ff_mixed": 2, "finish": 60, "iteration": 177,
             "kv_oom": 117, "preempt": 73, "swap_in": 73, "swap_out": 73},
            {"queue": 28.263612540393392, "prefill": 3.370044515875789,
             "decode": 39.35196066139188, "preempted": 18.718073737093658,
             "transfer": 0.21297284101818903},
        ),
        "colocated": (
            {"admit": 60, "arrive": 60, "chunk_prefill": 89, "decode_start": 60,
             "ff_decode": 185, "ff_mixed": 14, "finish": 60, "iteration": 118,
             "kv_oom": 25, "preempt": 24, "route": 60, "swap_in": 24, "swap_out": 24},
            {"queue": 1.218997788473909, "prefill": 0.8482436073144658,
             "decode": 36.95043040465663, "preempted": 3.537899924569348,
             "transfer": 0.09360476858182043},
        ),
        "disaggregated": (
            {"admit": 120, "arrive": 60, "chunk_prefill": 88, "decode_start": 60,
             "enqueue": 60, "ff_decode": 221, "ff_mixed": 14, "finish": 120,
             "iteration": 185, "kv_oom": 37, "migrate": 60, "preempt": 37, "route": 120,
             "swap_in": 37, "swap_out": 37},
            {"queue": 40.25303171364351, "prefill": 0.35355407018729473,
             "decode": 37.659992614644075, "preempted": 13.458012378940836,
             "transfer": 0.3121766717090918},
        ),
    }

    @pytest.mark.parametrize("mode", sorted(TRACE_CLI_GOLDEN))
    def test_trace_cli_summary(self, mode, tmp_path):
        summary_out = tmp_path / "summary.json"
        with contextlib.redirect_stdout(io.StringIO()):
            trace_cli.main([
                "--mode", mode, "--num-requests", "60", "--rate", "20", "--seed", "3",
                "--preemption", "swap", "--kv-budget-mb", "1024",
                "--trace-out", str(tmp_path / "trace.json"),
                "--summary-out", str(summary_out),
            ])
        summary = json.loads(summary_out.read_text())
        counts, totals = self.TRACE_CLI_GOLDEN[mode]
        assert summary["event_counts"] == counts
        assert summary["requests"]["phase_totals_s"] == totals


# ---------------------------------------------------------------------- knob forwarding
#: One non-default value per keyword option of ContinuousBatchingScheduler.__init__.
KNOBS = {
    "max_batch_size": 8,
    "max_batched_tokens": 1024,
    "prefill_chunk_tokens": 128,
    "scheduling_policy": "sjf",
    "preemption_policy": "swap",
    "kv_budget_bytes": GB,
    "host_kv_budget_bytes": 2 * GB,
    "overlap_swap_transfers": True,
    "fast_forward": False,
    "prefix_caching": True,
}
SMALL = dict(num_requests=4, arrival_rate_rps=20.0, seed=1)

#: Entry point -> (call, schedulers it builds).
ENTRY_POINTS = {
    "simulate_serving": (lambda: simulate_serving(**SMALL, **KNOBS), 1),
    "simulate_cluster-colocated": (
        lambda: simulate_cluster(mode="colocated", **SMALL, **KNOBS), 2
    ),
    "simulate_cluster-disaggregated": (
        lambda: simulate_cluster(mode="disaggregated", **SMALL, **KNOBS), 2
    ),
    "ServingCluster": (
        lambda: ServingCluster(spec=ClusterSpec(num_replicas=3), **KNOBS), 3
    ),
    "run-single": (
        lambda: run(RunSpec(workload=WorkloadSpec(**SMALL), scheduler_options=KNOBS)), 1
    ),
    "run-fleet": (
        lambda: run(RunSpec(cluster=ClusterSpec(mode="disaggregated"),
                            workload=WorkloadSpec(**SMALL), scheduler_options=KNOBS)), 2
    ),
}


def test_knob_table_covers_every_scheduler_option():
    params = inspect.signature(ContinuousBatchingScheduler.__init__).parameters
    options = set(params) - {"self", "engine", "tracer", "trace_replica"}
    assert options == set(KNOBS)
    for name, value in KNOBS.items():
        assert value != params[name].default, name


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_knob_reaches_every_scheduler(entry, monkeypatch):
    built = []
    original = ContinuousBatchingScheduler.__init__

    def recording(self, engine, **kwargs):
        built.append(kwargs)
        original(self, engine, **kwargs)

    monkeypatch.setattr(ContinuousBatchingScheduler, "__init__", recording)
    call, schedulers = ENTRY_POINTS[entry]
    call()
    assert len(built) == schedulers
    for kwargs in built:
        assert {name: kwargs.get(name) for name in KNOBS} == KNOBS


def test_unknown_keyword_is_a_type_error():
    with pytest.raises(TypeError, match="max_batch"):
        simulate_serving(num_requests=2, max_batch=4)
