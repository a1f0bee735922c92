"""Cluster-level serving tests: router-fed replicas on a shared clock, co-located vs.
single-replica equivalence, and the KV-handoff conservation invariants of disaggregated
prefill/decode."""

import pytest

from repro.core import simulate_cluster, simulate_serving
from repro.serving import (
    ClusterSpec,
    ContinuousBatchingScheduler,
    Request,
    ServingCluster,
    ServingEngine,
)
from repro.workloads.traces import merge_traces, sharegpt_trace


@pytest.fixture(scope="module")
def trace():
    return sharegpt_trace(40, rate_rps=20.0, seed=7)


class TestClusterSpec:
    def test_defaults(self):
        spec = ClusterSpec()
        assert spec.mode == "colocated"
        assert spec.total_replicas == 2
        assert spec.roles() == ["mixed", "mixed"]
        assert spec.default_router == "round-robin"

    def test_disaggregated_roles_and_totals(self):
        spec = ClusterSpec(mode="disaggregated", num_prefill_replicas=2,
                           num_decode_replicas=3)
        assert spec.total_replicas == 5
        assert spec.roles() == ["prefill", "prefill", "decode", "decode", "decode"]
        assert spec.default_router == "disaggregated"

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown cluster mode"):
            ClusterSpec(mode="sharded")
        with pytest.raises(ValueError, match="num_replicas"):
            ClusterSpec(num_replicas=0)
        with pytest.raises(ValueError, match="disaggregated mode needs"):
            ClusterSpec(mode="disaggregated", num_prefill_replicas=0)

    def test_num_replicas_rejected_in_disaggregated_mode(self):
        """A requested fleet size must never be silently ignored."""
        with pytest.raises(ValueError, match="colocated mode only"):
            ClusterSpec(mode="disaggregated", num_replicas=8)
        with pytest.raises(ValueError, match="colocated mode only"):
            simulate_cluster(mode="disaggregated", num_replicas=8, num_requests=2)


class TestColocatedEquivalence:
    def test_single_replica_cluster_matches_plain_scheduler(self, trace):
        """The acceptance criterion: N=1 co-located IS simulate_serving, bit for bit."""
        single = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b")
        ).run(trace)
        cluster = ServingCluster(
            "liquidserve", "llama2-7b", ClusterSpec(mode="colocated", num_replicas=1)
        ).run(trace)
        replica = cluster.replica_stats[0]
        assert cluster.simulated_time_s == single.simulated_time_s
        assert cluster.completed_requests == single.completed_requests
        assert cluster.generated_tokens == single.generated_tokens
        assert replica.mean_ttft_s == single.mean_ttft_s
        assert replica.p99_ttft_s == single.p99_ttft_s
        assert replica.mean_tpot_s == single.mean_tpot_s
        assert replica.num_iterations == single.num_iterations
        assert replica.prefill_chunks == single.prefill_chunks
        assert replica.preemptions == single.preemptions

    def test_simulate_cluster_n1_matches_simulate_serving(self):
        kwargs = dict(num_requests=40, arrival_rate_rps=20.0, seed=3)
        sim = simulate_serving("liquidserve", "llama2-7b", **kwargs)
        cl = simulate_cluster("liquidserve", "llama2-7b", mode="colocated",
                              num_replicas=1, **kwargs)
        assert cl.result.simulated_time_s == sim.stats.simulated_time_s
        assert cl.result.generated_tokens == sim.stats.generated_tokens
        assert cl.slo.p50_ttft_s == sim.slo.p50_ttft_s
        assert cl.slo.p99_ttft_s == sim.slo.p99_ttft_s
        assert cl.slo.mean_tpot_s == sim.slo.mean_tpot_s
        assert cl.slo.mean_queue_time_s == sim.slo.mean_queue_time_s

    def test_round_robin_spreads_requests(self, trace):
        cluster = ServingCluster(
            "liquidserve", "llama2-7b", ClusterSpec(mode="colocated", num_replicas=2)
        )
        result = cluster.run(trace)
        assert result.completed_requests == len(trace)
        per_replica = [s.completed_requests for s in result.replica_stats]
        assert all(n > 0 for n in per_replica)
        assert sum(per_replica) == len(trace)
        assert result.kv_handoffs == 0  # no migration in co-located mode

    def test_more_replicas_cut_makespan_under_load(self):
        heavy = sharegpt_trace(60, rate_rps=200.0, seed=5)  # near-simultaneous burst
        one = ServingCluster("liquidserve", "llama2-7b",
                             ClusterSpec(num_replicas=1)).run(heavy)
        four = ServingCluster("liquidserve", "llama2-7b",
                              ClusterSpec(num_replicas=4)).run(heavy)
        assert four.simulated_time_s < one.simulated_time_s


class TestDisaggregated:
    @pytest.fixture(scope="class")
    def cluster_and_result(self, trace):
        cluster = ServingCluster(
            "liquidserve", "llama2-7b",
            ClusterSpec(mode="disaggregated", num_prefill_replicas=1,
                        num_decode_replicas=1),
        )
        return cluster, cluster.run(trace)

    def test_all_requests_complete_with_merged_lifecycle(self, trace, cluster_and_result):
        _, result = cluster_and_result
        assert result.completed_requests == len(trace)
        assert result.generated_tokens == sum(r.output_tokens for r in trace)
        by_id = {r.request_id: r for r in result.requests}
        for r in trace:
            merged = by_id[r.request_id]
            assert merged.generated == r.output_tokens
            assert merged.first_scheduled_time_s is not None
            assert merged.first_token_time_s is not None
            assert merged.completion_time_s >= merged.first_token_time_s
            assert merged.first_token_time_s >= merged.arrival_time_s

    def test_kv_handoff_conservation(self, trace, cluster_and_result):
        """Every multi-token request migrates once; bytes match its prompt blocks; both
        replicas' pools drain to empty."""
        cluster, result = cluster_and_result
        migrating = [r for r in trace if r.output_tokens > 1]
        assert result.kv_handoffs == len(migrating)
        config = cluster.replicas[0].scheduler.kv_cache.config
        expected_bytes = sum(
            config.blocks_for_tokens(r.prompt_tokens) * config.bytes_per_block
            for r in migrating
        )
        assert result.kv_handoff_bytes == expected_bytes
        assert result.kv_handoff_s > 0.0
        for replica in cluster.replicas:
            assert replica.scheduler.kv_cache.num_used_blocks == 0
            assert replica.scheduler.kv_cache.num_used_host_blocks == 0

    def test_first_token_on_prefill_rest_on_decode(self, trace, cluster_and_result):
        """Token accounting splits exactly at the handoff: prefill replicas emit one token
        per request, decode replicas the remainder."""
        cluster, result = cluster_and_result
        prefill_tokens = sum(
            s.generated_tokens
            for s, rep in zip(result.replica_stats, cluster.replicas)
            if rep.role == "prefill"
        )
        decode_tokens = sum(
            s.generated_tokens
            for s, rep in zip(result.replica_stats, cluster.replicas)
            if rep.role == "decode"
        )
        assert prefill_tokens == len(trace)
        assert decode_tokens == sum(r.output_tokens - 1 for r in trace)

    def test_handoff_delay_reaches_decode_clock(self, trace, cluster_and_result):
        """A migrated sequence cannot start decoding before its KV transfer lands."""
        _, result = cluster_and_result
        interconnect_s = result.kv_handoff_s / max(1, result.kv_handoffs)
        assert interconnect_s > 0.0
        for merged in result.requests:
            if merged.output_tokens > 1:
                assert merged.completion_time_s > merged.first_token_time_s

    def test_rerun_is_deterministic(self, trace):
        spec = ClusterSpec(mode="disaggregated", num_prefill_replicas=1,
                           num_decode_replicas=1)
        first = ServingCluster("liquidserve", "llama2-7b", spec).run(trace)
        second = ServingCluster("liquidserve", "llama2-7b", spec).run(trace)
        assert second.simulated_time_s == pytest.approx(first.simulated_time_s)
        assert second.kv_handoff_bytes == first.kv_handoff_bytes
        assert second.completed_requests == first.completed_requests

    def test_survives_decode_kv_pressure(self):
        """Migrated sequences must coexist with preemption churn on the decode side."""
        trace = [Request(i, prompt_tokens=300, output_tokens=64, arrival_time_s=0.002 * i)
                 for i in range(12)]
        cluster = ServingCluster(
            "liquidserve", "llama2-7b",
            ClusterSpec(mode="disaggregated", num_prefill_replicas=1,
                        num_decode_replicas=1),
            kv_budget_bytes=256 * 2**20,
            host_kv_budget_bytes=512 * 2**20,
            preemption_policy="hybrid",
        )
        result = cluster.run(trace)
        assert result.completed_requests == 12
        assert result.generated_tokens == 12 * 64
        for replica in cluster.replicas:
            assert replica.scheduler.kv_cache.num_used_blocks == 0
            assert replica.scheduler.kv_cache.num_used_host_blocks == 0


class TestClusterValidation:
    def test_duplicate_request_ids_rejected(self, trace):
        cluster = ServingCluster("liquidserve", "llama2-7b", ClusterSpec(num_replicas=2))
        with pytest.raises(ValueError, match="unique request ids"):
            cluster.run([Request(1, 64, 8), Request(1, 64, 8)])

    def test_unservable_request_rejected_before_any_routing(self):
        cluster = ServingCluster("liquidserve", "llama2-7b", ClusterSpec(num_replicas=2),
                                 kv_budget_bytes=64 * 2**20)
        pool = cluster.replicas[0].scheduler.kv_cache.config
        too_big = pool.total_blocks * pool.block_tokens + 16
        with pytest.raises(ValueError, match="never be scheduled"):
            cluster.run([Request(0, prompt_tokens=too_big, output_tokens=4)])

    @pytest.mark.parametrize("mode", ["single", "colocated", "disaggregated"])
    def test_each_request_is_checked_once(self, trace, mode, monkeypatch):
        """``run`` checks every request up front; routing and arrival then take the
        unchecked submit paths, so no request is checked twice (nor its prefill clone,
        nor its resumed decode phase)."""
        checked = []
        check = ContinuousBatchingScheduler._check_servable

        def counting(scheduler, request):
            checked.append(request.request_id)
            check(scheduler, request)

        monkeypatch.setattr(ContinuousBatchingScheduler, "_check_servable", counting)
        if mode == "single":
            ContinuousBatchingScheduler(ServingEngine("liquidserve", "llama2-7b")).run(trace)
        else:
            ServingCluster("liquidserve", "llama2-7b", ClusterSpec(mode=mode)).run(trace)
        assert sorted(checked) == sorted(r.request_id for r in trace)

    def test_unknown_router_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown router policy"):
            ServingCluster("liquidserve", "llama2-7b",
                           ClusterSpec(num_replicas=2, router="magic"))


class TestMergeTraces:
    def test_fan_in_sorts_and_renumbers(self):
        a = sharegpt_trace(5, rate_rps=10.0, seed=0)
        b = sharegpt_trace(5, rate_rps=10.0, seed=1)
        merged = merge_traces(a, b)
        assert len(merged) == 10
        arrivals = [r.arrival_time_s for r in merged]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in merged] == list(range(10))
        # Inputs are untouched (copies are renumbered, not the originals).
        assert {r.request_id for r in a} == set(range(5))

    def test_duplicate_ids_without_reassign_rejected(self):
        a = sharegpt_trace(3, rate_rps=10.0, seed=0)
        b = sharegpt_trace(3, rate_rps=10.0, seed=1)
        with pytest.raises(ValueError, match="duplicate request ids"):
            merge_traces(a, b, reassign_ids=False)

    def test_disjoint_ids_pass_through(self):
        a = sharegpt_trace(3, rate_rps=10.0, seed=0)
        b = sharegpt_trace(3, rate_rps=10.0, seed=1)
        for i, r in enumerate(b):
            r.request_id = 100 + i
        merged = merge_traces(a, b, reassign_ids=False)
        assert len(merged) == 6
        assert merged[0] in a or merged[0] in b  # original objects, not copies

    def test_merged_trace_serves_on_a_cluster(self):
        merged = merge_traces(
            sharegpt_trace(6, rate_rps=30.0, seed=0),
            sharegpt_trace(6, rate_rps=30.0, seed=1),
        )
        result = ServingCluster(
            "liquidserve", "llama2-7b", ClusterSpec(num_replicas=2)
        ).run(merged)
        assert result.completed_requests == 12
