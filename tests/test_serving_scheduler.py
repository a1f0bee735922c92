"""Tests for the request-level continuous-batching scheduler: mixed iterations with chunked
prefill, preemption-and-recompute under KV pressure, heap admission, and the ragged-batch
step-cost API it drives."""

import copy
import dataclasses

import pytest

from repro.core import simulate_serving
from repro.serving import (
    ContinuousBatchingScheduler,
    KvCacheConfig,
    PagedKvCache,
    PrefillChunk,
    Request,
    ServingCluster,
    ServingEngine,
    SloSpec,
    get_model,
    get_system,
)


@pytest.fixture(scope="module")
def engine():
    return ServingEngine("liquidserve", "llama2-7b")


def small_pool_scheduler(engine, budget_mb, **kwargs):
    """A scheduler whose KV pool is shrunk to force preemption churn."""
    scheduler = ContinuousBatchingScheduler(engine, **kwargs)
    config = KvCacheConfig(
        model=get_model("llama2-7b"),
        kv_format=engine.system.kv_format,
        memory_budget_bytes=budget_mb * 2**20,
    )
    scheduler.kv_cache = PagedKvCache(config)
    return scheduler


class TestRaggedStepApi:
    def test_uniform_context_matches_decode_step(self, engine):
        uniform = engine.decode_step_time(16, 512)
        ragged = engine.mixed_step_time([512] * 16)
        assert ragged == pytest.approx(uniform)

    def test_ragged_cheaper_than_batch_max(self, engine):
        """Per-sequence accounting must undercut charging every sequence at the max."""
        contexts = [64] * 15 + [4096]
        ragged = engine.mixed_step_time(contexts)
        at_max = engine.decode_step_time(16, 4096)
        assert ragged < at_max

    def test_mixed_step_adds_prefill_cost(self, engine):
        decode_only = engine.mixed_step_time([256] * 8)
        mixed = engine.mixed_step_time([256] * 8, [PrefillChunk(256, 0)])
        assert mixed > decode_only

    def test_chunked_prefill_time_positive_and_grows_with_context(self, engine):
        early = engine.mixed_step_time([], [PrefillChunk(256, context_start=0)])
        late = engine.mixed_step_time([], [PrefillChunk(256, context_start=2048)])
        assert 0 < early < late

    def test_empty_iteration_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.mixed_step_time([], [])


class TestSchedulerBasics:
    def test_completes_all_and_releases_blocks(self, engine):
        scheduler = ContinuousBatchingScheduler(engine, max_batch_size=8)
        requests = [Request(i, prompt_tokens=64, output_tokens=8) for i in range(12)]
        stats = scheduler.run(requests)
        assert stats.completed_requests == 12
        assert stats.generated_tokens == 12 * 8
        assert scheduler.kv_cache.num_used_blocks == 0
        assert stats.num_iterations > 0
        assert stats.prefill_chunks >= 12

    def test_single_output_token_request(self, engine):
        """A request whose answer is one token completes at prefill, never decoding."""
        scheduler = ContinuousBatchingScheduler(engine)
        stats = scheduler.run([Request(0, prompt_tokens=100, output_tokens=1)])
        assert stats.completed_requests == 1
        assert stats.generated_tokens == 1
        request = stats.requests[0]
        assert request.first_token_time_s == request.completion_time_s

    def test_long_prompt_split_into_chunks(self, engine):
        scheduler = ContinuousBatchingScheduler(engine, prefill_chunk_tokens=256)
        stats = scheduler.run([Request(0, prompt_tokens=1000, output_tokens=4)])
        assert stats.completed_requests == 1
        assert stats.prefill_chunks == 4  # ceil(1000 / 256)

    def test_chunked_prefill_interleaves_with_decode(self, engine):
        """A huge late prompt must not stall an early stream of short decodes."""
        early = [Request(i, prompt_tokens=32, output_tokens=200, arrival_time_s=0.0)
                 for i in range(4)]
        late = [Request(99, prompt_tokens=4000, output_tokens=4, arrival_time_s=0.0)]
        serial_prefill = engine.prefill_time(1, 4000)
        stats = ContinuousBatchingScheduler(
            engine, prefill_chunk_tokens=256, max_batched_tokens=512
        ).run(early + late)
        assert stats.completed_requests == 5
        # While the long prompt chunks through, the early requests keep emitting tokens:
        # their mean TPOT stays far below one serial full prefill per token.
        early_reqs = [r for r in stats.requests if r.request_id != 99]
        for r in early_reqs:
            tpot = (r.completion_time_s - r.first_token_time_s) / (r.output_tokens - 1)
            assert tpot < serial_prefill / 2

    def test_invalid_requests_rejected(self, engine):
        scheduler = ContinuousBatchingScheduler(engine)
        with pytest.raises(ValueError):
            scheduler.run([Request(0, prompt_tokens=0, output_tokens=4)])
        with pytest.raises(ValueError):
            scheduler.run([Request(0, prompt_tokens=16, output_tokens=0)])

    def test_unservable_request_rejected_up_front(self, engine):
        scheduler = small_pool_scheduler(engine, budget_mb=64)
        pool_tokens = scheduler.kv_cache.config.total_blocks * scheduler.kv_cache.config.block_tokens
        with pytest.raises(ValueError, match="never be scheduled"):
            scheduler.run([Request(0, prompt_tokens=pool_tokens + 16, output_tokens=4)])

    def test_oversized_model_raises(self):
        engine70 = ServingEngine("trt-fp16", "llama2-70b")
        with pytest.raises(Exception):
            ContinuousBatchingScheduler(engine70)

    def test_unsupported_system_model_combo_raises(self):
        """Table 1 'NA' cells must not silently simulate (trt-w8a8 lacks MoE support)."""
        engine = ServingEngine("trt-w8a8", "mixtral-8x7b")
        with pytest.raises(ValueError, match="does not support"):
            ContinuousBatchingScheduler(engine)

    def test_rerunning_same_trace_is_deterministic(self, engine):
        """run() resets scheduler-owned request state, so traces can be A/B-reused."""
        requests = [Request(i, prompt_tokens=64, output_tokens=8, arrival_time_s=0.01 * i)
                    for i in range(10)]
        first = ContinuousBatchingScheduler(engine, max_batch_size=4).run(requests)
        second = ContinuousBatchingScheduler(engine, max_batch_size=4).run(requests)
        assert second.completed_requests == first.completed_requests == 10
        assert second.generated_tokens == first.generated_tokens == 80
        assert second.simulated_time_s == pytest.approx(first.simulated_time_s)
        assert second.mean_ttft_s == pytest.approx(first.mean_ttft_s)

    def test_stats_survive_rerun_of_same_trace(self, engine):
        """Stats snapshot the requests: a later run must not rewrite an earlier report."""
        requests = [Request(i, prompt_tokens=64, output_tokens=8, arrival_time_s=0.01 * i)
                    for i in range(10)]
        slow = ContinuousBatchingScheduler(engine, max_batch_size=1).run(requests)
        slow_p50_before = slow.slo_report().p50_ttft_s
        ContinuousBatchingScheduler(engine, max_batch_size=8).run(requests)
        assert slow.slo_report().p50_ttft_s == pytest.approx(slow_p50_before)


class TestBatchLimitValidation:
    """A batch limit below 1 is an error that names the knob, at construction, on every
    entry point; ``None`` (and only ``None``) means the system profile's default."""

    @pytest.mark.parametrize("knob", ["max_batch_size", "max_batched_tokens"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_scheduler_rejects(self, engine, knob, value):
        with pytest.raises(ValueError, match=knob):
            ContinuousBatchingScheduler(engine, **{knob: value})

    @pytest.mark.parametrize("knob", ["max_batch_size", "max_batched_tokens"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_cluster_rejects(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            ServingCluster("liquidserve", "llama2-7b", **{knob: value})

    @pytest.mark.parametrize("knob", ["max_batch_size", "max_batched_tokens"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_simulate_serving_rejects(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            simulate_serving("liquidserve", "llama2-7b", num_requests=4, **{knob: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_system_profile_rejects_batch_size(self, value):
        with pytest.raises(ValueError, match="max_batch_size"):
            get_system("liquidserve").derive(max_batch_size=value)

    def test_none_means_system_default(self, engine):
        scheduler = ContinuousBatchingScheduler(engine)
        assert scheduler.max_batch_size == engine.system.max_batch_size
        assert scheduler.max_batched_tokens == engine.system.max_batched_tokens
        scheduler = ContinuousBatchingScheduler(engine, max_batch_size=1,
                                                max_batched_tokens=1)
        assert scheduler.max_batch_size == 1
        assert scheduler.max_batched_tokens == scheduler.prefill_chunk_tokens == 1


class TestHeapAdmission:
    def test_unsorted_arrivals_admitted_in_arrival_order(self, engine):
        # Deliberately shuffled arrival times; ids encode the arrival rank.
        arrivals = [0.4, 0.0, 0.3, 0.1, 0.2]
        requests = [Request(i, prompt_tokens=64, output_tokens=4, arrival_time_s=t)
                    for i, t in enumerate(arrivals)]
        stats = ContinuousBatchingScheduler(engine, max_batch_size=1).run(requests)
        assert stats.completed_requests == 5
        by_id = {r.request_id: r for r in stats.requests}
        ranked = sorted(range(5), key=lambda i: arrivals[i])
        first_tokens = [by_id[i].first_token_time_s for i in ranked]
        assert first_tokens == sorted(first_tokens)

    def test_idle_gap_advances_clock(self, engine):
        requests = [
            Request(0, prompt_tokens=32, output_tokens=2, arrival_time_s=0.0),
            Request(1, prompt_tokens=32, output_tokens=2, arrival_time_s=100.0),
        ]
        stats = ContinuousBatchingScheduler(engine).run(requests)
        assert stats.completed_requests == 2
        assert stats.simulated_time_s > 100.0
        # TTFT is measured from arrival, so the late request is not charged the idle gap.
        assert stats.p99_ttft_s < 1.0


class TestPreemption:
    def test_kv_exhaustion_never_propagates(self, engine):
        """Regression: mid-decode KvCacheOutOfMemory used to crash the simulation."""
        scheduler = small_pool_scheduler(engine, budget_mb=256, max_batch_size=16)
        assert scheduler.kv_cache.config.total_blocks == 64
        requests = [Request(i, prompt_tokens=300, output_tokens=64) for i in range(12)]
        stats = scheduler.run(requests)  # must not raise
        assert stats.completed_requests == 12
        assert stats.generated_tokens == 12 * 64
        assert stats.preemptions > 0
        assert scheduler.kv_cache.num_used_blocks == 0

    def test_preempted_requests_record_preemption_and_keep_tokens(self, engine):
        scheduler = small_pool_scheduler(engine, budget_mb=256, max_batch_size=16)
        requests = [Request(i, prompt_tokens=300, output_tokens=64) for i in range(12)]
        stats = scheduler.run(requests)
        assert sum(r.preemptions for r in stats.requests) == stats.preemptions
        for r in stats.requests:
            assert r.generated == r.output_tokens
            assert r.first_token_time_s is not None
            assert r.completion_time_s >= r.first_token_time_s

    def test_staggered_arrivals_under_pressure(self, engine):
        scheduler = small_pool_scheduler(engine, budget_mb=192, max_batch_size=8)
        requests = [Request(i, prompt_tokens=200, output_tokens=48,
                            arrival_time_s=0.01 * i) for i in range(10)]
        stats = scheduler.run(requests)
        assert stats.completed_requests == 10
        assert scheduler.kv_cache.num_used_blocks == 0


class TestPeakKvUtilization:
    def test_peak_sampled_before_completed_blocks_are_freed(self, engine):
        """Regression: the peak used to be sampled after decode bookkeeping freed completed
        sequences, so a run whose only resident finished that iteration reported ~0."""
        scheduler = ContinuousBatchingScheduler(engine, prefill_chunk_tokens=4096)
        stats = scheduler.run([Request(0, prompt_tokens=1000, output_tokens=1)])
        config = scheduler.kv_cache.config
        expected = config.blocks_for_tokens(1000) / config.total_blocks
        assert stats.peak_kv_utilization == pytest.approx(expected)

    def test_peak_covers_mid_iteration_residency(self, engine):
        scheduler = small_pool_scheduler(engine, budget_mb=256, max_batch_size=16)
        stats = scheduler.run(
            [Request(i, prompt_tokens=300, output_tokens=64) for i in range(12)]
        )
        assert stats.peak_kv_utilization > 0.9  # the pool saturates under this pressure
        assert stats.peak_kv_utilization <= 1.0


class TestConservationInvariants:
    """After any run(): tokens conserved, both KV pools drained, preemptions add up."""

    @pytest.mark.parametrize("preemption_policy", ["recompute", "swap", "hybrid"])
    def test_preemption_paths_conserve(self, engine, preemption_policy):
        scheduler = ContinuousBatchingScheduler(
            engine,
            max_batch_size=16,
            preemption_policy=preemption_policy,
            kv_budget_bytes=256 * 2**20,
            host_kv_budget_bytes=512 * 2**20,
        )
        requests = [Request(i, prompt_tokens=300, output_tokens=64,
                            arrival_time_s=0.005 * i) for i in range(12)]
        stats = scheduler.run(requests)
        assert stats.completed_requests == 12
        assert stats.preemptions > 0  # the shrunken pool must actually churn
        for r in stats.requests:
            assert r.generated == r.output_tokens
        assert stats.generated_tokens == sum(r.output_tokens for r in stats.requests)
        assert scheduler.kv_cache.num_used_blocks == 0
        assert scheduler.kv_cache.num_used_host_blocks == 0
        assert scheduler.kv_cache.num_swapped_sequences == 0
        assert sum(r.preemptions for r in stats.requests) == stats.preemptions
        assert stats.swap_preemptions + stats.recompute_preemptions == stats.preemptions

    def test_swap_policy_actually_swaps_and_charges_transfers(self, engine):
        scheduler = ContinuousBatchingScheduler(
            engine,
            max_batch_size=16,
            preemption_policy="swap",
            kv_budget_bytes=256 * 2**20,
            host_kv_budget_bytes=512 * 2**20,
        )
        requests = [Request(i, prompt_tokens=300, output_tokens=64) for i in range(12)]
        stats = scheduler.run(requests)
        assert stats.swap_preemptions > 0
        assert stats.swap_ins == stats.swap_preemptions  # every victim came back
        assert stats.kv_transfer_s > 0.0
        assert 0.0 < stats.peak_host_kv_utilization <= 1.0

    def test_swap_with_zero_host_budget_degrades_to_recompute(self, engine):
        scheduler = ContinuousBatchingScheduler(
            engine,
            max_batch_size=16,
            preemption_policy="swap",
            kv_budget_bytes=256 * 2**20,
            host_kv_budget_bytes=0,
        )
        requests = [Request(i, prompt_tokens=300, output_tokens=64) for i in range(12)]
        stats = scheduler.run(requests)
        assert stats.completed_requests == 12
        assert stats.preemptions > 0
        assert stats.swap_preemptions == 0
        assert stats.recompute_preemptions == stats.preemptions

    def test_swap_in_never_starves_blocked_prefills(self, engine):
        """Regression: with both residents stalled mid-prefill, a no-progress eviction
        freed blocks that the next iteration's swap-in pass immediately reclaimed — the
        blocked prefill never extended and run() cycled swap-out/swap-in forever."""
        bpb = engine.kv_cache_config().bytes_per_block
        scheduler = ContinuousBatchingScheduler(
            engine,
            preemption_policy="swap",
            kv_budget_bytes=40 * bpb,
            host_kv_budget_bytes=40 * bpb,
        )
        stats = scheduler.run([Request(0, 500, 2), Request(1, 500, 2)])
        assert stats.completed_requests == 2
        assert scheduler.kv_cache.num_used_blocks == 0
        assert scheduler.kv_cache.num_used_host_blocks == 0

    def test_rerun_with_swap_policy_is_deterministic(self, engine):
        requests = [Request(i, prompt_tokens=300, output_tokens=32) for i in range(10)]
        kwargs = dict(max_batch_size=16, preemption_policy="swap",
                      kv_budget_bytes=256 * 2**20, host_kv_budget_bytes=512 * 2**20)
        first = ContinuousBatchingScheduler(engine, **kwargs).run(requests)
        second = ContinuousBatchingScheduler(engine, **kwargs).run(requests)
        assert second.simulated_time_s == pytest.approx(first.simulated_time_s)
        assert second.swap_preemptions == first.swap_preemptions
        assert second.kv_transfer_s == pytest.approx(first.kv_transfer_s)


class TestOverlappedSwapTransfers:
    """`overlap_swap_transfers` charges max(compute, transfers) per iteration instead of
    their sum — the makespan must never be worse than the serialized model."""

    #: Arrival-free KV-pressure workload: identical scheduling decisions under both
    #: transfer models (clock values never feed back into admission order), so the
    #: serialized-vs-overlapped comparison is apples to apples.
    WORKLOAD = dict(max_batch_size=16, preemption_policy="swap",
                    kv_budget_bytes=256 * 2**20, host_kv_budget_bytes=512 * 2**20)

    @staticmethod
    def _trace():
        return [Request(i, prompt_tokens=300, output_tokens=64) for i in range(12)]

    def test_overlap_never_slower_than_serialized(self, engine):
        serialized = ContinuousBatchingScheduler(engine, **self.WORKLOAD).run(self._trace())
        overlapped = ContinuousBatchingScheduler(
            engine, overlap_swap_transfers=True, **self.WORKLOAD
        ).run(self._trace())
        assert serialized.swap_preemptions > 0  # the comparison must exercise transfers
        assert overlapped.completed_requests == serialized.completed_requests == 12
        assert overlapped.swap_preemptions == serialized.swap_preemptions
        assert overlapped.kv_transfer_s == pytest.approx(serialized.kv_transfer_s)
        assert overlapped.simulated_time_s <= serialized.simulated_time_s

    def test_overlap_strictly_hides_some_transfer_time(self, engine):
        """On this workload compute dominates every transfer, so overlap should hide
        traffic and beat the serialized clock outright."""
        serialized = ContinuousBatchingScheduler(engine, **self.WORKLOAD).run(self._trace())
        overlapped = ContinuousBatchingScheduler(
            engine, overlap_swap_transfers=True, **self.WORKLOAD
        ).run(self._trace())
        assert overlapped.simulated_time_s < serialized.simulated_time_s

    def test_no_swaps_means_identical_timelines(self, engine):
        trace = [Request(i, prompt_tokens=64, output_tokens=8) for i in range(6)]
        plain = ContinuousBatchingScheduler(engine, max_batch_size=8).run(trace)
        overlapped = ContinuousBatchingScheduler(
            engine, max_batch_size=8, overlap_swap_transfers=True
        ).run(trace)
        assert overlapped.kv_transfer_s == 0.0
        assert overlapped.simulated_time_s == plain.simulated_time_s

    def test_mid_session_stats_polling_is_side_effect_free(self, engine):
        """stats() is a pure snapshot: observing an overlapped session between steps must
        not serialize pending swap transfers into the clock."""
        polled = ContinuousBatchingScheduler(
            engine, overlap_swap_transfers=True, **self.WORKLOAD
        )
        polled.begin()
        for request in self._trace():
            polled.submit(request)
        while polled.has_work:
            polled.step()
            polled.stats()  # a progress poll, as a cluster dashboard would issue
        unpolled = ContinuousBatchingScheduler(
            engine, overlap_swap_transfers=True, **self.WORKLOAD
        ).run(self._trace())
        assert polled.stats().simulated_time_s == pytest.approx(
            unpolled.simulated_time_s
        )

    def test_overlap_flag_threads_through_simulate_serving(self):
        from repro.core import simulate_serving
        sim = simulate_serving(
            "liquidserve", "llama2-7b", num_requests=12, arrival_rate_rps=1000.0,
            seed=0, preemption_policy="swap", kv_budget_bytes=2 * 2**30,
            host_kv_budget_bytes=4 * 2**30, overlap_swap_transfers=True,
        )
        assert sim.stats.completed_requests == 12


class TestSchedulerStats:
    def test_latency_percentiles_and_slo(self, engine):
        scheduler = ContinuousBatchingScheduler(engine, max_batch_size=16)
        requests = [Request(i, prompt_tokens=64, output_tokens=16,
                            arrival_time_s=0.005 * i) for i in range(32)]
        stats = scheduler.run(requests)
        assert stats.mean_ttft_s <= stats.mean_latency_s
        assert stats.p50_ttft_s <= stats.p99_ttft_s
        assert 0 < stats.mean_tpot_s <= stats.p99_tpot_s
        report = stats.slo_report(SloSpec(ttft_s=1e9, tpot_s=1e9))
        assert report.completed == 32
        assert report.attainment == 1.0
        assert report.goodput_rps == pytest.approx(32 / stats.simulated_time_s)
        strict = stats.slo_report(SloSpec(ttft_s=0.0, tpot_s=0.0))
        assert strict.attainment == 0.0 and strict.goodput_rps == 0.0

    def test_throughput_positive(self, engine):
        stats = ContinuousBatchingScheduler(engine, max_batch_size=4).run(
            [Request(i, 32, 4) for i in range(4)]
        )
        assert stats.throughput_tokens_per_s > 0


@dataclasses.dataclass(eq=False, slots=True)
class _TaggedRequest(Request):
    """A request type with one field more than :class:`Request`."""

    tag: str = "untagged"


class TestRequestCopy:
    """``copy.copy`` of a request goes through the constructor (``Request.__copy__``)."""

    @pytest.mark.parametrize("cls", [Request, _TaggedRequest])
    def test_every_field_is_copied(self, cls):
        original = cls(request_id=1, prompt_tokens=10, output_tokens=5)
        names = [f.name for f in dataclasses.fields(cls)]
        for name in names:  # a distinct object per field, whatever its type
            setattr(original, name, object())
        duplicate = copy.copy(original)
        assert type(duplicate) is cls
        for name in names:
            assert getattr(duplicate, name) is getattr(original, name), name

    def test_copy_is_a_distinct_object_and_mutating_it_leaves_the_original(self):
        original = Request(request_id=3, prompt_tokens=40, output_tokens=8,
                           arrival_time_s=0.25, prefix_group=1,
                           prefix_segments=((7, 16),))
        original.generated = 2
        before = {f.name: getattr(original, f.name) for f in dataclasses.fields(Request)}
        duplicate = copy.copy(original)
        assert duplicate is not original
        for f in dataclasses.fields(Request):
            setattr(duplicate, f.name, None)
        duplicate.reset_scheduler_state()
        assert {f.name: getattr(original, f.name) for f in dataclasses.fields(Request)} == before
