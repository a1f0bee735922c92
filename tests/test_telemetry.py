"""Telemetry subsystem unit tests: tracer, exporters, CLI, and the memo-cache hookup.

The exactness property (phase durations tiling end-to-end latency bit-for-bit) and the
tracing-on/off bit-identity contract live in ``test_telemetry_breakdown.py``; this module
covers the plumbing around them — event recording, the Chrome trace-event payload shape,
the schema-validated summary, preemption-reason accounting, the orphaned
``ServingEngine.cache_stats()`` hookup, and the ``python -m repro.trace`` CLI.
"""

import json

import pytest

import repro.trace as trace_cli
from repro.core import simulate_cluster, simulate_serving
from repro.reporting.schema import validate_payload
from repro.serving.engine import ServingEngine
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.telemetry import (
    PHASES,
    TELEMETRY_SUMMARY_SCHEMA,
    Tracer,
    build_summary,
    chrome_trace_payload,
    write_chrome_trace,
    write_summary,
)

MB = 2**20
GB = 2**30


class TestTracer:
    def test_emit_and_query(self):
        tracer = Tracer()
        tracer.emit("arrive", 0.5, request_id=1, prompt_tokens=10)
        tracer.emit("iteration", 0.5, end=0.7, decode_batch=3)
        tracer.emit("finish", 0.7, request_id=1)
        assert tracer.num_events == 3
        assert tracer.event_counts() == {"arrive": 1, "finish": 1, "iteration": 1}
        spans = list(tracer.events_of("iteration"))
        assert len(spans) == 1 and spans[0].duration_s == pytest.approx(0.2)
        instants = list(tracer.events_of("arrive", "finish"))
        assert [ev.kind for ev in instants] == ["arrive", "finish"]
        assert instants[0].args == {"prompt_tokens": 10}

    def test_counter_samples(self):
        tracer = Tracer()
        tracer.sample(0, 1.0, {"queue_depth": 4, "kv_utilization": 0.5})
        tracer.sample(0, 2.0, {"queue_depth": 2, "kv_utilization": 0.25})
        assert len(tracer.counters) == 2
        assert tracer.counters[0].values["queue_depth"] == 4

    def test_replica_roles(self):
        tracer = Tracer()
        tracer.set_replica_role(0, "prefill")
        tracer.set_replica_role(1, "decode")
        assert tracer.replica_roles == {0: "prefill", 1: "decode"}

    def test_engine_attach_is_identity_deduped(self):
        tracer = Tracer()
        engine = ServingEngine("liquidserve", "llama2-7b")
        ContinuousBatchingScheduler(engine, tracer=tracer)
        tracer.attach_engine(engine)  # a second replica sharing the engine does this again
        assert len(tracer._engines) == 1


class TestEngineMemoHookup:
    """Regression: ``ServingEngine.cache_stats()`` must feed the telemetry summary."""

    def test_cache_stats_reaches_summary(self):
        tracer = Tracer()
        sim = simulate_serving(
            "liquidserve", "llama2-7b", num_requests=20, arrival_rate_rps=20.0,
            seed=0, tracer=tracer,
        )
        memo = build_summary(tracer, sim.stats)["engine_memo_caches"]
        # Every memo the engine exposes is reported, and a real run populates them.
        assert set(memo) == set(
            ServingEngine("liquidserve", "llama2-7b").cache_stats()
        )
        assert set(memo) == {"step_coeffs"}
        assert memo["step_coeffs"]["entries"] > 0
        for stats in memo.values():
            assert set(stats) == {"entries", "max_entries", "evictions"}

    def test_multi_engine_merge(self):
        # A cluster's replicas share one engine; merging still has to handle several
        # distinct engines (e.g. two independent traced simulations, one tracer).
        tracer = Tracer()
        simulate_cluster(
            "liquidserve", "llama2-7b", mode="disaggregated",
            num_prefill_replicas=1, num_decode_replicas=1,
            num_requests=20, arrival_rate_rps=20.0, seed=0, tracer=tracer,
        )
        assert len(tracer._engines) == 1  # replicas share the cluster's engine
        single = tracer.engine_memo_stats()
        assert single["step_coeffs"]["entries"] > 0
        tracer.attach_engine(ServingEngine("liquidserve", "llama2-7b"))
        merged = tracer.engine_memo_stats()
        assert merged["step_coeffs"]["entries"] == single["step_coeffs"]["entries"]
        assert merged["step_coeffs"]["max_entries"] >= (
            single["step_coeffs"]["max_entries"]
        )


class TestPreemptionReasons:
    def test_kv_pressure_reason_recorded(self):
        tracer = Tracer()
        sim = simulate_serving(
            "liquidserve", "llama2-7b", num_requests=60, arrival_rate_rps=20.0,
            seed=3, preemption_policy="hybrid", kv_budget_bytes=GB,
            host_kv_budget_bytes=GB, tracer=tracer,
        )
        s = sim.stats
        assert s.preemptions > 0
        assert s.preemptions == s.preemptions_kv_pressure + s.preemptions_policy_victim
        assert s.preemptions_kv_pressure > 0
        # Reason travels on every preempt event too, and the two sources agree.
        reasons = [ev.args["reason"] for ev in tracer.events_of("preempt")]
        assert len(reasons) == s.preemptions
        assert reasons.count("kv_pressure") == s.preemptions_kv_pressure
        assert reasons.count("policy_victim") == s.preemptions_policy_victim

    def test_cache_evict_averts_are_counted(self):
        from repro.serving.scheduler import ContinuousBatchingScheduler
        from repro.workloads.traces import agent_swarm_trace

        tracer = Tracer()
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b"),
            prefix_caching=True, kv_budget_bytes=512 * MB,
            host_kv_budget_bytes=GB, preemption_policy="swap", tracer=tracer,
        )
        stats = scheduler.run(agent_swarm_trace(3, 4, 4, 12.0, seed=13))
        assert stats.preemptions_averted_by_cache > 0
        averted = sum(1 for _ in tracer.events_of("preempt_averted"))
        assert averted == stats.preemptions_averted_by_cache
        summary = build_summary(tracer, stats)
        assert summary["preemptions"]["averted_by_cache_evict"] == averted

    def test_summary_reasons_without_stats_fall_back_to_events(self):
        tracer = Tracer()
        sim = simulate_serving(
            "liquidserve", "llama2-7b", num_requests=60, arrival_rate_rps=20.0,
            seed=3, preemption_policy="recompute", kv_budget_bytes=GB,
            host_kv_budget_bytes=GB, tracer=tracer,
        )
        from_stats = build_summary(tracer, sim.stats)["preemptions"]
        from_events = build_summary(tracer)["preemptions"]
        assert from_stats == from_events
        assert from_events["total"] > 0


class TestSummaryExport:
    def _traced_sim(self):
        tracer = Tracer(sample_interval_s=0.2, label="unit")
        sim = simulate_serving(
            "liquidserve", "llama2-7b", num_requests=40, arrival_rate_rps=20.0,
            seed=0, tracer=tracer,
        )
        return tracer, sim

    def test_summary_is_schema_valid_and_complete(self):
        tracer, sim = self._traced_sim()
        summary = build_summary(tracer, sim.stats)
        validate_payload(summary, TELEMETRY_SUMMARY_SCHEMA)
        assert summary["telemetry"] == "repro.telemetry/v1"
        assert summary["label"] == "unit"
        assert summary["requests"]["completed"] == len(sim.per_request)
        assert summary["requests"]["breakdowns_exact"] is True
        assert set(summary["requests"]["phase_totals_s"]) == set(PHASES)
        assert summary["replicas"] == [{"replica": 0, "role": "single"}]
        # Counter statistics carry the sampled gauges with full min/max/mean/last.
        key = "replica0.queue_depth"
        assert set(summary["counters"][key]) == {
            "min", "max", "mean", "last", "samples"
        }

    def test_prefix_cache_section_present_only_with_stats(self):
        tracer = Tracer()
        sim = simulate_serving(
            "liquidserve", "llama2-7b", num_requests=30, arrival_rate_rps=20.0,
            seed=2, prefix_caching=True, shared_prefix_tokens=256, tracer=tracer,
        )
        summary = build_summary(tracer, sim.stats)
        assert summary["prefix_cache"]["hits"] == sim.stats.prefix_cache_hits
        assert "prefix_cache" not in build_summary(tracer)

    def test_write_summary_roundtrip(self, tmp_path):
        tracer, sim = self._traced_sim()
        path = tmp_path / "summary.json"
        payload = write_summary(tracer, str(path), sim.stats)
        assert json.loads(path.read_text()) == payload


class TestChromeTraceExport:
    def _payload(self, mode="single"):
        tracer = Tracer(sample_interval_s=0.2)
        if mode == "single":
            simulate_serving(
                "liquidserve", "llama2-7b", num_requests=40, arrival_rate_rps=20.0,
                seed=0, tracer=tracer,
            )
        else:
            simulate_cluster(
                "liquidserve", "llama2-7b", mode="disaggregated",
                num_prefill_replicas=1, num_decode_replicas=1,
                num_requests=40, arrival_rate_rps=20.0, seed=0, tracer=tracer,
            )
        return tracer, chrome_trace_payload(tracer)

    def test_payload_shape(self):
        _, payload = self._payload()
        events = payload["traceEvents"]
        phases = {ev["ph"] for ev in events}
        assert {"M", "X", "i", "C", "b", "e"} <= phases
        names = {ev["name"] for ev in events if ev["ph"] == "M"}
        assert names == {"process_name", "thread_name"}
        # Every event is Perfetto-consumable: µs timestamps, non-negative durations.
        for ev in events:
            if ev["ph"] == "M":
                continue
            assert ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0

    def test_async_tracks_are_balanced(self):
        _, payload = self._payload()
        opens = [e for e in payload["traceEvents"] if e["ph"] == "b"]
        closes = [e for e in payload["traceEvents"] if e["ph"] == "e"]
        assert len(opens) == len(closes) > 0
        assert {e["name"] for e in opens} <= set(PHASES)

    def test_disaggregated_adds_migration_flows(self):
        tracer, payload = self._payload("disaggregated")
        flows_s = [e for e in payload["traceEvents"] if e["ph"] == "s"]
        flows_f = [e for e in payload["traceEvents"] if e["ph"] == "f"]
        migrations = sum(1 for _ in tracer.events_of("migrate"))
        assert migrations > 0
        assert len(flows_s) == len(flows_f) == migrations
        # Arrows start on the prefill replica and land on the decode replica.
        roles = tracer.replica_roles
        assert {roles[e["pid"]] for e in flows_s} == {"prefill"}
        assert {roles[e["pid"]] for e in flows_f} == {"decode"}

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        tracer, _ = self._payload()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]


class TestTraceCli:
    def test_cli_writes_artifacts_and_reports(self, tmp_path, capsys):
        trace_out = tmp_path / "timeline.json"
        summary_out = tmp_path / "summary.json"
        trace_cli.main([
            "--num-requests", "30", "--rate", "20", "--seed", "1",
            "--trace-out", str(trace_out), "--summary-out", str(summary_out),
            "--top", "3",
        ])
        out = capsys.readouterr().out
        assert "aggregate critical path (exact tiling: True)" in out
        assert "slowest 3 requests" in out
        assert json.loads(trace_out.read_text())["traceEvents"]
        summary = json.loads(summary_out.read_text())
        validate_payload(summary, TELEMETRY_SUMMARY_SCHEMA)

    @pytest.mark.parametrize("mode", ["colocated", "disaggregated"])
    def test_cli_cluster_mode(self, mode, tmp_path, capsys):
        trace_cli.main([
            "--mode", mode, "--num-requests", "20", "--rate", "15",
            "--trace-out", str(tmp_path / "t.json"), "--top", "2",
        ])
        assert "exact tiling: True" in capsys.readouterr().out

    def test_cli_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            trace_cli.main(["--system", "definitely-not-a-system"])

    @pytest.mark.parametrize("flag", ["--scheduling", "--preemption"])
    def test_cli_rejects_unknown_policy_listing_known_ones(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            trace_cli.main([flag, "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        known = "'fcfs'" if flag == "--scheduling" else "'recompute'"
        assert "invalid choice: 'nope'" in err and known in err

    KV_PRESSURE = ["--num-requests", "60", "--rate", "20", "--seed", "3",
                   "--preemption", "swap", "--kv-budget-mb", "1024"]

    def _swaps_and_preemptions(self, tmp_path, *extra):
        summary_out = tmp_path / "summary.json"
        trace_cli.main(self.KV_PRESSURE + list(extra) + [
            "--trace-out", str(tmp_path / "t.json"), "--summary-out", str(summary_out),
        ])
        summary = json.loads(summary_out.read_text())
        return summary["event_counts"].get("swap_out", 0), summary["preemptions"]["total"]

    def test_cli_zero_host_budget_disables_swapping(self, tmp_path, capsys):
        """``--host-kv-budget-mb 0`` is a 0-byte swap pool, not "use the default"."""
        assert self._swaps_and_preemptions(tmp_path) == (73, 73)
        assert self._swaps_and_preemptions(tmp_path, "--host-kv-budget-mb", "0") == (0, 87)

    def test_cli_zero_kv_budget_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kv_budget_bytes must be positive"):
            trace_cli.main(["--num-requests", "5", "--kv-budget-mb", "0",
                            "--trace-out", str(tmp_path / "t.json")])


class TestSweepTracing:
    def test_traced_cells_write_artifacts_and_leave_metrics_identical(self, tmp_path):
        from repro.sweep import SweepGrid, run_sweep

        base = dict(num_requests=30, arrival_rates_rps=(15.0,))
        traced = run_sweep(
            SweepGrid(trace_cells=(0,), trace_dir=str(tmp_path), **base),
            parallel=False,
        )
        plain = run_sweep(SweepGrid(**base), parallel=False)
        row = traced["cells"][0]
        assert row["metrics"] == plain["cells"][0]["metrics"]
        assert "trace_files" not in plain["cells"][0]
        chrome = json.loads(open(row["trace_files"]["chrome_trace"]).read())
        assert chrome["traceEvents"]
        summary = json.loads(open(row["trace_files"]["summary"]).read())
        validate_payload(summary, TELEMETRY_SUMMARY_SCHEMA)
        assert summary["label"] == "cell000"

    def test_breakdowns_exact_is_test_enforced_in_artifacts(self, tmp_path):
        from repro.sweep import SweepGrid, run_sweep

        payload = run_sweep(
            SweepGrid(
                num_requests=30, arrival_rates_rps=(15.0,),
                cluster_shapes=(
                    {"mode": "disaggregated",
                     "num_prefill_replicas": 1, "num_decode_replicas": 1},
                ),
                trace_cells=(0,), trace_dir=str(tmp_path),
            ),
            parallel=False,
        )
        summary = json.loads(
            open(payload["cells"][0]["trace_files"]["summary"]).read()
        )
        assert summary["requests"]["breakdowns_exact"] is True
