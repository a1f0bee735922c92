"""Tests for the pluggable scheduling (admission) and preemption policies."""

import pytest

from repro.gpu import H800
from repro.serving import (
    ContinuousBatchingScheduler,
    CostBasedPreemption,
    FcfsScheduling,
    MaxMinFairness,
    PriorityScheduling,
    Request,
    ServingEngine,
    ShortestJobFirst,
    SwapPreemption,
    get_preemption_policy,
    get_scheduling_policy,
)


@pytest.fixture(scope="module")
def engine():
    return ServingEngine("liquidserve", "llama2-7b")


class TestRegistries:
    def test_lookup_by_name(self):
        assert isinstance(get_scheduling_policy("fcfs"), FcfsScheduling)
        assert isinstance(get_scheduling_policy("SJF"), ShortestJobFirst)
        assert isinstance(get_preemption_policy("swap"), SwapPreemption)
        assert isinstance(get_preemption_policy("hybrid"), CostBasedPreemption)

    def test_instance_passthrough(self):
        policy = CostBasedPreemption(threshold=2.0)
        assert get_preemption_policy(policy) is policy
        scheduling = PriorityScheduling()
        assert get_scheduling_policy(scheduling) is scheduling

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError, match="unknown scheduling policy"):
            get_scheduling_policy("lifo")
        with pytest.raises(KeyError, match="unknown preemption policy"):
            get_preemption_policy("discard")

    def test_hybrid_threshold_validated(self):
        with pytest.raises(ValueError):
            CostBasedPreemption(threshold=0.0)


class TestSchedulingKeys:
    def test_fcfs_orders_by_arrival(self):
        a = Request(1, 64, 8, arrival_time_s=0.5)
        b = Request(0, 64, 8, arrival_time_s=0.1)
        policy = FcfsScheduling()
        assert policy.key(b) < policy.key(a)
        assert policy.select_victim([a, b]) is a  # latest arrival evicted first

    def test_priority_orders_by_priority_then_arrival(self):
        low_early = Request(0, 64, 8, arrival_time_s=0.0, priority=0)
        high_late = Request(1, 64, 8, arrival_time_s=1.0, priority=5)
        policy = PriorityScheduling()
        assert policy.key(high_late) < policy.key(low_early)
        assert policy.select_victim([low_early, high_late]) is low_early

    def test_sjf_orders_by_predicted_length(self):
        short = Request(0, 1000, 10, arrival_time_s=1.0)
        long = Request(1, 64, 2000, arrival_time_s=0.0)
        policy = ShortestJobFirst()
        assert policy.key(short) < policy.key(long)
        assert policy.select_victim([short, long]) is long

    def test_fairness_orders_by_attained_service(self):
        served = Request(0, 64, 100, arrival_time_s=0.0)
        served.generated = 50
        starved = Request(1, 64, 100, arrival_time_s=1.0)
        policy = MaxMinFairness()
        assert policy.key(starved) < policy.key(served)
        assert policy.select_victim([served, starved]) is served


class TestPriorityEndToEnd:
    def test_high_priority_admitted_before_earlier_low_priority(self, engine):
        """With one slot, a high-priority request jumps every waiting low-priority one."""
        requests = [
            Request(i, prompt_tokens=64, output_tokens=32, arrival_time_s=0.0, priority=0)
            for i in range(4)
        ] + [Request(9, prompt_tokens=64, output_tokens=32, arrival_time_s=0.001, priority=5)]
        stats = ContinuousBatchingScheduler(
            engine, max_batch_size=1, scheduling_policy="priority"
        ).run(requests)
        by_id = {r.request_id: r for r in stats.requests}
        # The priority-9 request outruns every request still waiting at its arrival (one
        # FCFS-admitted request may already occupy the single slot).
        beaten = [r for i, r in by_id.items() if i != 9
                  and r.first_token_time_s > by_id[9].first_token_time_s]
        assert len(beaten) >= 3


class TestSjfEndToEnd:
    def test_sjf_short_jobs_overtake_long_backlog(self, engine):
        long_jobs = [Request(i, prompt_tokens=2000, output_tokens=256, arrival_time_s=0.0)
                     for i in range(3)]
        short_jobs = [Request(10 + i, prompt_tokens=32, output_tokens=8,
                              arrival_time_s=0.001) for i in range(3)]
        fcfs = ContinuousBatchingScheduler(
            engine, max_batch_size=1, scheduling_policy="fcfs"
        ).run(long_jobs + short_jobs)
        sjf = ContinuousBatchingScheduler(
            engine, max_batch_size=1, scheduling_policy="sjf"
        ).run(long_jobs + short_jobs)
        def mean_short_ttft(stats):
            return sum(
                r.first_token_time_s - r.arrival_time_s
                for r in stats.requests if r.request_id >= 10
            ) / 3
        assert mean_short_ttft(sjf) < mean_short_ttft(fcfs) / 2
        assert sjf.completed_requests == fcfs.completed_requests == 6


class TestFairnessEndToEnd:
    def test_fairness_completes_and_conserves(self, engine):
        requests = [Request(i, prompt_tokens=100 + 50 * i, output_tokens=64,
                            arrival_time_s=0.002 * i) for i in range(8)]
        scheduler = ContinuousBatchingScheduler(
            engine, max_batch_size=4, scheduling_policy="fairness"
        )
        stats = scheduler.run(requests)
        assert stats.completed_requests == 8
        assert all(r.generated == r.output_tokens for r in stats.requests)
        assert scheduler.kv_cache.num_used_blocks == 0


class TestCostBasedDecision:
    def _victim_setup(self, tokens, host_link_bandwidth):
        spec = H800.with_overrides(host_link_bandwidth=host_link_bandwidth)
        engine = ServingEngine("trt-fp16", "llama2-7b", device=spec)
        scheduler = ContinuousBatchingScheduler(
            engine, kv_budget_bytes=2 * 2**30, host_kv_budget_bytes=2 * 2**30
        )
        victim = Request(0, prompt_tokens=tokens, output_tokens=4)
        victim.prefill_target = tokens
        victim.prefilled = tokens
        scheduler.kv_cache.add_sequence(0, tokens)
        return engine, scheduler, victim

    def test_fast_link_prefers_swap_slow_link_prefers_recompute(self):
        fast, sched_fast, victim = self._victim_setup(2048, host_link_bandwidth=200e9)
        assert CostBasedPreemption().decide(victim, fast, sched_fast.kv_cache) == "swap"

        slow, sched_slow, victim = self._victim_setup(2048, host_link_bandwidth=1e9)
        assert CostBasedPreemption().decide(victim, slow, sched_slow.kv_cache) == "recompute"

    def test_no_host_room_forces_recompute(self, engine):
        scheduler = ContinuousBatchingScheduler(
            engine, kv_budget_bytes=2 * 2**30, host_kv_budget_bytes=0
        )
        victim = Request(0, prompt_tokens=2048, output_tokens=4)
        scheduler.kv_cache.add_sequence(0, 2048)
        assert CostBasedPreemption().decide(victim, engine, scheduler.kv_cache) == "recompute"
        assert SwapPreemption().decide(victim, engine, scheduler.kv_cache) == "recompute"


class TestSchedulerOwnsNoOomContract:
    def test_policy_demanding_infeasible_swap_degrades_to_recompute(self, engine):
        """Regression: a policy answering 'swap' with no host room must not let
        KvCacheOutOfMemory escape run() — the no-OOM contract is the scheduler's."""
        from repro.serving import PreemptionPolicy

        class AlwaysSwap(PreemptionPolicy):
            name = "always-swap"

            def decide(self, victim, engine, kv_cache):
                return self.SWAP  # deliberately ignores host-pool feasibility

        scheduler = ContinuousBatchingScheduler(
            engine, max_batch_size=16, preemption_policy=AlwaysSwap(),
            kv_budget_bytes=256 * 2**20, host_kv_budget_bytes=2 * 2**20,
        )
        stats = scheduler.run([Request(i, 300, 64) for i in range(12)])
        assert stats.completed_requests == 12
        assert stats.preemptions > 0
        assert stats.recompute_preemptions == stats.preemptions  # degraded, not raised


class TestPolicyKnobsThroughCoreApi:
    def test_simulate_serving_accepts_policy_knobs(self):
        from repro.core import simulate_serving

        sim = simulate_serving(
            "liquidserve",
            "llama2-7b",
            num_requests=30,
            arrival_rate_rps=50.0,
            seed=1,
            scheduling_policy="sjf",
            preemption_policy="hybrid",
            kv_budget_bytes=2 * 2**30,
            host_kv_budget_bytes=2 * 2**30,
            num_priority_levels=3,
        )
        assert sim.stats.completed_requests == 30
        assert all(0 <= r.priority < 3 for r in sim.stats.requests)


class TestHybridEqualsSwapOnStockH800:
    """On the stock H800 (55 GB/s PCIe Gen5 host link) a W4A8 victim's swap round trip
    beats re-prefilling its context, priced by the iteration cost the scheduler charges
    (LiquidServe's GEMM kernel included).  So the hybrid policy swaps every victim and
    serves a KV-pressure trace exactly as swap-whenever-possible.
    """

    def _run(self, preemption_policy):
        from repro.workloads.traces import (
            ArrivalProcess,
            LengthDistribution,
            generate_trace,
        )

        trace = generate_trace(
            50,
            ArrivalProcess(16.0),
            LengthDistribution.lognormal(1024.0, 0.9, maximum=4096),
            LengthDistribution.lognormal(200.0, 0.8, maximum=1024),
            seed=0,
        )
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b"),
            kv_budget_bytes=2 * 2**30,
            host_kv_budget_bytes=4 * 2**30,
            preemption_policy=preemption_policy,
        )
        return scheduler.run(trace)

    def test_hybrid_serves_the_trace_exactly_as_swap(self):
        from test_fast_forward_equivalence import assert_stats_identical

        hybrid, swap = self._run("hybrid"), self._run("swap")
        assert swap.swap_preemptions > 0
        assert hybrid.recompute_preemptions == 0
        assert_stats_identical(swap, hybrid)


class TestHybridRecomputeEndToEnd:
    """Coverage for the hybrid policy's *recompute* branch under real scheduling.

    On the stock H800 (55 GB/s PCIe Gen5 host link) the swap round trip beats re-prefill
    for every W4A8 victim, so the hybrid policy equals swap-whenever-possible there
    (:class:`TestHybridEqualsSwapOnStockH800`).  A host link this slow (0.5 GB/s — think
    oversubscribed PCIe or a swap pool behind a fabric) flips the trade: re-prefilling a
    victim's context is cheaper than two transfers, and the cost model must pick recompute
    *with host-pool room available*.
    """

    def _slow_link_engine(self):
        spec = H800.with_overrides(name="H800-slow-host-link",
                                   host_link_bandwidth=0.5e9)
        return ServingEngine("liquidserve", "llama2-7b", device=spec)

    def _kv_pressure_trace(self):
        from repro.workloads.traces import (
            ArrivalProcess,
            LengthDistribution,
            generate_trace,
        )

        return generate_trace(
            40,
            ArrivalProcess(rate_rps=30.0),
            LengthDistribution.lognormal(median=400.0, sigma=0.9, maximum=2048),
            LengthDistribution.lognormal(median=160.0, sigma=0.9, maximum=1024),
            seed=11,
        )

    def _run(self, preemption_policy):
        import copy

        scheduler = ContinuousBatchingScheduler(
            self._slow_link_engine(),
            kv_budget_bytes=2 * 2**30,
            host_kv_budget_bytes=4 * 2**30,
            preemption_policy=preemption_policy,
        )
        stats = scheduler.run([copy.copy(r) for r in self._kv_pressure_trace()])
        return scheduler, stats

    def test_hybrid_genuinely_picks_recompute(self):
        scheduler, hybrid = self._run("hybrid")
        _, swap = self._run("swap")
        # The workload preempts, the host pool has room (the swap policy uses it), and
        # the hybrid still recomputes: the cost branch is exercised end to end.
        assert hybrid.preemptions > 0
        assert swap.swap_preemptions > 0
        assert hybrid.recompute_preemptions > 0
        assert hybrid.swap_preemptions == 0
        assert scheduler.kv_cache.num_free_host_blocks > 0  # room existed, cost said no
        # And the choice is visible end to end: the two policies produce different runs
        # (on the fast default link hybrid == swap byte-for-byte, which is exactly the
        # blind spot this scenario closes).
        assert (
            hybrid.kv_transfer_s,
            hybrid.simulated_time_s,
        ) != (swap.kv_transfer_s, swap.simulated_time_s)
        assert hybrid.kv_transfer_s == 0.0  # recompute moves no KV bytes

    def test_all_requests_still_complete(self):
        _, hybrid = self._run("hybrid")
        assert hybrid.completed_requests == 40
        assert all(r.generated == r.output_tokens for r in hybrid.requests)

    def test_fast_forward_equivalence_holds_on_the_recompute_regime(self):
        """The new workload doubles as an equivalence scenario: recompute-heavy churn
        with a slow host link must stay bit-identical under fast-forward."""
        import copy
        import dataclasses

        trace = self._kv_pressure_trace()
        results = {}
        for fast_forward in (False, True):
            scheduler = ContinuousBatchingScheduler(
                self._slow_link_engine(),
                kv_budget_bytes=2 * 2**30,
                host_kv_budget_bytes=4 * 2**30,
                preemption_policy="hybrid",
                fast_forward=fast_forward,
            )
            results[fast_forward] = scheduler.run([copy.copy(r) for r in trace])
        slow, fast = results[False], results[True]
        for field in dataclasses.fields(slow):
            if field.name == "requests":
                continue
            assert getattr(slow, field.name) == getattr(fast, field.name)
