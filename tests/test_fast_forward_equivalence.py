"""Fast-forward vs. stepwise equivalence: the contract the perf work must never break.

Analytic decode fast-forward (`ContinuousBatchingScheduler.fast_forward`) exists purely to
make the simulator faster; it must be *bit-identical* to looping `step()` — every clock,
every stat, every per-request timestamp.  These tests pin that equivalence:

* a hypothesis property test drives randomized traces (arrival patterns, long-tail lengths,
  KV budgets tight enough to force preemption, every preemption/scheduling policy) through
  both execution modes and asserts identical `SchedulerStats`, identical per-request
  `RequestMetrics`, and identical final clocks;
* cluster-level tests do the same for co-located and disaggregated fleets;
* unit tests cover the fast path's decision points (steady-state detection, the horizon
  cut, the KV-exhaustion bailout) and the incremental `outstanding_tokens` counter.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import simulate_cluster, simulate_serving
from repro.serving import SYSTEMS, get_model, list_models
from repro.serving.attention import (
    _ATTENTION_LAUNCH_OVERHEAD_S,
    AttentionCost,
    chunked_prefill_attention_cost,
    decode_attention_cost_from_totals,
)
from repro.serving.engine import _EPOCH_ARRAY_ITERATIONS, ServingEngine
from repro.serving.metrics import request_metrics
from repro.serving.scheduler import ContinuousBatchingScheduler, Request
from repro.workloads.traces import (
    SHAREGPT_OUTPUTS,
    SHAREGPT_PROMPTS,
    ArrivalProcess,
    LengthDistribution,
    agent_swarm_trace,
    generate_trace,
    multi_turn_chat_trace,
    rag_trace,
    tenant_mix_trace,
)

MB = 2**20
GB = 2**30


def _request_fields(request):
    return {f.name: getattr(request, f.name) for f in dataclasses.fields(Request)}


def assert_stats_identical(stepwise, fast):
    """Every field of two SchedulerStats must match bit-for-bit (requests by id).

    Fields whose metadata opts out of the contract (code-path diagnostics such as
    averted-preemption counts, which group identical evicted blocks differently
    between stepwise and fast-forward runs) are skipped.
    """
    for f in dataclasses.fields(stepwise):
        if f.name == "requests":
            continue
        if not f.metadata.get("fast_forward_invariant", True):
            continue
        assert getattr(stepwise, f.name) == getattr(fast, f.name), (
            f"SchedulerStats.{f.name}: "
            f"{getattr(stepwise, f.name)!r} != {getattr(fast, f.name)!r}"
        )
    lhs = sorted(stepwise.requests, key=lambda r: r.request_id)
    rhs = sorted(fast.requests, key=lambda r: r.request_id)
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert _request_fields(a) == _request_fields(b)
    # Per-request latency decompositions (frozen dataclasses: == is field equality).
    assert sorted(request_metrics(lhs), key=lambda m: m.request_id) == sorted(
        request_metrics(rhs), key=lambda m: m.request_id
    )


def _in_steady_decode(scheduler):
    """Every resident decodes, nothing is queued and the pool holds only the residents:
    the state a decode-only fast-forward epoch starts from."""
    return bool(
        scheduler._running
        and not scheduler._waiting
        and not scheduler._imported
        and not scheduler._prefilling
        and not scheduler._swapped
        and scheduler._pending_transfer_s == 0.0
        and scheduler.kv_cache.num_sequences == len(scheduler._running)
    )


def _run(trace, fast_forward, **kwargs):
    scheduler = ContinuousBatchingScheduler(
        ServingEngine("liquidserve", "llama2-7b"),
        fast_forward=fast_forward,
        **kwargs,
    )
    stats = scheduler.run([copy.copy(r) for r in trace])
    return scheduler, stats


@st.composite
def random_traces(draw):
    n = draw(st.integers(min_value=1, max_value=18))
    requests = []
    for i in range(n):
        requests.append(
            Request(
                request_id=i,
                prompt_tokens=draw(st.integers(min_value=1, max_value=600)),
                output_tokens=draw(st.integers(min_value=1, max_value=60)),
                arrival_time_s=draw(
                    st.floats(
                        min_value=0.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False,
                    )
                ),
                priority=draw(st.integers(min_value=0, max_value=3)),
            )
        )
    return requests


class TestSchedulerEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        trace=random_traces(),
        kv_budget=st.sampled_from([256 * MB, 512 * MB, 2 * GB, None]),
        host_budget=st.sampled_from([0, 512 * MB]),
        preemption=st.sampled_from(["recompute", "swap", "hybrid"]),
        scheduling=st.sampled_from(["fcfs", "priority", "sjf", "fairness"]),
        overlap=st.booleans(),
    )
    def test_random_traces_bit_identical(
        self, trace, kv_budget, host_budget, preemption, scheduling, overlap
    ):
        kwargs = dict(
            kv_budget_bytes=kv_budget,
            host_kv_budget_bytes=host_budget,
            preemption_policy=preemption,
            scheduling_policy=scheduling,
            overlap_swap_transfers=overlap,
        )
        sched_a, stepwise = _run(trace, fast_forward=False, **kwargs)
        sched_b, fast = _run(trace, fast_forward=True, **kwargs)
        assert sched_a.clock == sched_b.clock  # final virtual clocks, bit for bit
        assert_stats_identical(stepwise, fast)

    def test_sharegpt_trace_bit_identical(self):
        trace = generate_trace(
            120, ArrivalProcess(rate_rps=20.0), SHAREGPT_PROMPTS, SHAREGPT_OUTPUTS,
            seed=7,
        )
        sched_a, stepwise = _run(trace, fast_forward=False)
        sched_b, fast = _run(trace, fast_forward=True)
        assert sched_a.clock == sched_b.clock
        assert_stats_identical(stepwise, fast)
        assert fast.num_iterations > 1000  # the jump accounting must count them all

    def test_kv_constrained_trace_bit_identical(self):
        """Preemption churn interleaves with decode phases; jumps must stop at OOM."""
        trace = generate_trace(
            60, ArrivalProcess(rate_rps=20.0), SHAREGPT_PROMPTS, SHAREGPT_OUTPUTS,
            seed=3,
        )
        kwargs = dict(kv_budget_bytes=GB, host_kv_budget_bytes=GB,
                      preemption_policy="hybrid")
        _, stepwise = _run(trace, fast_forward=False, **kwargs)
        _, fast = _run(trace, fast_forward=True, **kwargs)
        assert stepwise.preemptions > 0  # the scenario actually exercises preemption
        assert_stats_identical(stepwise, fast)

    def test_simulate_serving_flag_threads_through(self):
        kwargs = dict(num_requests=40, arrival_rate_rps=25.0, seed=5)
        fast = simulate_serving("liquidserve", "llama2-7b", **kwargs)
        slow = simulate_serving(
            "liquidserve", "llama2-7b", fast_forward=False, **kwargs
        )
        assert fast.stats.simulated_time_s == slow.stats.simulated_time_s
        assert fast.stats.num_iterations == slow.stats.num_iterations
        assert fast.slo == slow.slo


class TestMixedPhaseEquivalence:
    """The mixed prefill+decode fast path: pinned-epoch jumps must be bit-identical on
    exactly the workloads PR 4's decode-only fast-forward could not touch — prefill-heavy
    traces, KV-pressure traces with starved chunks and parked swapped sequences, and the
    chunk schedules a small ``prefill_chunk_tokens`` produces."""

    @settings(max_examples=20, deadline=None)
    @given(
        trace=random_traces(),
        prefill_chunk=st.sampled_from([32, 64, 256]),
        max_batched_tokens=st.sampled_from([256, 512, None]),
        kv_budget=st.sampled_from([256 * MB, GB, None]),
        preemption=st.sampled_from(["recompute", "swap", "hybrid"]),
    )
    def test_random_chunk_schedules_bit_identical(
        self, trace, prefill_chunk, max_batched_tokens, kv_budget, preemption
    ):
        kwargs = dict(
            prefill_chunk_tokens=prefill_chunk,
            max_batched_tokens=max_batched_tokens,
            kv_budget_bytes=kv_budget,
            host_kv_budget_bytes=GB,
            preemption_policy=preemption,
        )
        sched_a, stepwise = _run(trace, fast_forward=False, **kwargs)
        sched_b, fast = _run(trace, fast_forward=True, **kwargs)
        assert sched_a.clock == sched_b.clock
        assert_stats_identical(stepwise, fast)

    @settings(max_examples=12, deadline=None)
    @given(
        prompt_scale=st.integers(min_value=2, max_value=12),
        kv_budget=st.sampled_from([2 * GB, 4 * GB, None]),
        scheduling=st.sampled_from(["fcfs", "sjf", "fairness"]),
    )
    def test_prefill_heavy_traces_bit_identical(
        self, prompt_scale, kv_budget, scheduling
    ):
        """Long prompts, short answers: the regime where almost every iteration carries
        prefill chunks and the decode-only fast path never fired."""
        trace = generate_trace(
            30,
            ArrivalProcess(rate_rps=25.0),
            LengthDistribution.lognormal(
                median=180.0 * prompt_scale, sigma=1.1, maximum=4096
            ),
            LengthDistribution.lognormal(median=40.0, sigma=0.9, maximum=512),
            seed=prompt_scale,
        )
        kwargs = dict(
            kv_budget_bytes=kv_budget,
            host_kv_budget_bytes=GB,
            preemption_policy="hybrid",
            scheduling_policy=scheduling,
        )
        _, stepwise = _run(trace, fast_forward=False, **kwargs)
        _, fast = _run(trace, fast_forward=True, **kwargs)
        assert_stats_identical(stepwise, fast)

    def test_kv_pressure_prefill_heavy_bit_identical(self):
        """The acceptance workload shape: KV-constrained, prefill-heavy, hybrid
        preemption — starved chunks, parked swapped sequences and preemption churn all
        interleave with the jumps."""
        trace = generate_trace(
            80,
            ArrivalProcess(rate_rps=16.0),
            LengthDistribution.lognormal(median=1024.0, sigma=0.9, maximum=4096),
            LengthDistribution.lognormal(median=200.0, sigma=0.8, maximum=1024),
            seed=3,
        )
        kwargs = dict(
            kv_budget_bytes=2 * GB, host_kv_budget_bytes=4 * GB,
            preemption_policy="hybrid",
        )
        sched_a, stepwise = _run(trace, fast_forward=False, **kwargs)
        sched_b, fast = _run(trace, fast_forward=True, **kwargs)
        assert stepwise.preemptions > 0  # the scenario actually exercises churn
        assert stepwise.prefill_chunks > len(trace)  # ...and real chunk schedules
        assert sched_a.clock == sched_b.clock
        assert_stats_identical(stepwise, fast)

    def test_mixed_jump_matches_stepwise_twin(self):
        """Drive two schedulers into the same mixed prefill+decode state; one jumps,
        the other steps the same number of iterations — every observable must match."""

        def build():
            scheduler = ContinuousBatchingScheduler(
                ServingEngine("liquidserve", "llama2-7b"), fast_forward=True
            )
            # One long prefill alongside three decoding residents.
            for i in range(3):
                scheduler.submit(Request(request_id=i, prompt_tokens=64,
                                         output_tokens=400))
            while not _in_steady_decode(scheduler):
                scheduler.step()
            scheduler.submit(Request(request_id=99, prompt_tokens=4096,
                                     output_tokens=4))
            scheduler.step()  # admit: the mixed phase begins
            assert scheduler._prefilling
            return scheduler

        fast = build()
        step = build()
        advanced = fast.fast_forward()
        assert advanced > 1
        for _ in range(advanced):
            step.step()
        assert fast.clock == step.clock
        assert fast.kv_cache.num_free_blocks == step.kv_cache.num_free_blocks
        assert_stats_identical(step.stats(), fast.stats())

    def test_mixed_epoch_stops_before_prefill_completion(self):
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b"), fast_forward=True
        )
        scheduler.submit(Request(request_id=0, prompt_tokens=1000, output_tokens=4))
        scheduler.step()  # admit + first chunk (256 of 1000)
        # Remaining 744 at chunk 256: two full chunks are safe, the third completes.
        assert scheduler.fast_forward() == 2
        assert scheduler.fast_forward() == 0  # completing chunk: step only
        scheduler.step()
        assert scheduler._prefilling == [] and scheduler._running


@st.composite
def shared_prefix_traces(draw):
    """Random traces whose requests carry shareable prefix segments in a few groups."""
    n = draw(st.integers(min_value=1, max_value=14))
    requests = []
    for i in range(n):
        group = draw(st.integers(min_value=0, max_value=2))
        shared = draw(st.sampled_from([0, 48, 128, 512]))
        requests.append(
            Request(
                request_id=i,
                prompt_tokens=shared + draw(st.integers(min_value=1, max_value=400)),
                output_tokens=draw(st.integers(min_value=1, max_value=40)),
                arrival_time_s=draw(
                    st.floats(
                        min_value=0.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False,
                    )
                ),
                prefix_group=group,
                prefix_segments=((group, shared),) if shared else (),
            )
        )
    return requests


class TestPrefixCacheEquivalence:
    """Fast-forward must stay bit-identical with the prefix cache enabled.

    Every cache mutation (insert / hit / evict) happens inside ``step()``, so the
    parked-queue proofs extend rather than bail: these tests pin that the analytic
    jumps see exactly the stepwise trie at every decision point — including under
    tight KV budgets where admission-time eviction and preemption interleave."""

    @settings(max_examples=20, deadline=None)
    @given(
        trace=shared_prefix_traces(),
        kv_budget=st.sampled_from([256 * MB, GB, None]),
        host_budget=st.sampled_from([0, GB]),
        preemption=st.sampled_from(["recompute", "swap", "hybrid"]),
        scheduling=st.sampled_from(["fcfs", "priority", "sjf"]),
    )
    def test_random_shared_prefix_traces_bit_identical(
        self, trace, kv_budget, host_budget, preemption, scheduling
    ):
        kwargs = dict(
            prefix_caching=True,
            kv_budget_bytes=kv_budget,
            host_kv_budget_bytes=host_budget,
            preemption_policy=preemption,
            scheduling_policy=scheduling,
        )
        sched_a, stepwise = _run(trace, fast_forward=False, **kwargs)
        sched_b, fast = _run(trace, fast_forward=True, **kwargs)
        assert sched_a.clock == sched_b.clock
        assert_stats_identical(stepwise, fast)

    @pytest.mark.parametrize("trace", [
        pytest.param(
            multi_turn_chat_trace(6, 4, 8.0, seed=5), id="chat",
        ),
        pytest.param(
            agent_swarm_trace(3, 5, 4, 6.0, seed=9), id="swarm",
        ),
        pytest.param(
            rag_trace(40, 20.0, seed=2), id="rag",
        ),
        pytest.param(
            tenant_mix_trace(12, 10.0, seed=4), id="tenants",
        ),
    ])
    def test_agentic_traces_bit_identical(self, trace):
        kwargs = dict(prefix_caching=True)
        sched_a, stepwise = _run(trace, fast_forward=False, **kwargs)
        sched_b, fast = _run(trace, fast_forward=True, **kwargs)
        assert stepwise.prefix_cache_hits > 0  # the workload actually shares prefixes
        assert sched_a.clock == sched_b.clock
        assert_stats_identical(stepwise, fast)

    @pytest.mark.parametrize("preemption", ["recompute", "swap", "hybrid"])
    def test_tight_kv_eviction_churn_bit_identical(self, preemption):
        """Small device pool: admission-time eviction, preemption and cache re-publish
        all interleave; the jumps must stop at exactly the same iterations."""
        trace = agent_swarm_trace(3, 4, 4, 12.0, seed=13)
        kwargs = dict(
            prefix_caching=True,
            kv_budget_bytes=512 * MB,
            host_kv_budget_bytes=GB,
            preemption_policy=preemption,
        )
        _, stepwise = _run(trace, fast_forward=False, **kwargs)
        _, fast = _run(trace, fast_forward=True, **kwargs)
        assert stepwise.prefix_blocks_evicted > 0  # eviction actually exercised
        assert_stats_identical(stepwise, fast)

    def test_cache_off_is_seed_identical(self):
        """The default path must be byte-identical to a scheduler with no cache at all."""
        trace = generate_trace(
            50, ArrivalProcess(rate_rps=20.0), SHAREGPT_PROMPTS, SHAREGPT_OUTPUTS,
            seed=21, shared_prefix_tokens=256,
        )
        _, without = _run(trace, fast_forward=True)
        _, explicit_off = _run(trace, fast_forward=True, prefix_caching=False)
        assert_stats_identical(without, explicit_off)
        assert without.prefix_cache_hits == 0
        assert without.prefix_saved_tokens == 0

    def test_cluster_cache_affinity_bit_identical(self):
        kwargs = dict(
            mode="colocated", num_replicas=2, router="cache-affinity",
            num_requests=60, arrival_rate_rps=30.0, seed=17,
            prefix_caching=True, shared_prefix_tokens=256,
        )
        fast = simulate_cluster("liquidserve", "llama2-7b", **kwargs)
        slow = simulate_cluster(
            "liquidserve", "llama2-7b", fast_forward=False, **kwargs
        )
        assert fast.result.simulated_time_s == slow.result.simulated_time_s
        for a, b in zip(fast.replica_stats, slow.replica_stats):
            assert_stats_identical(b, a)
        assert sum(s.prefix_cache_hits for s in fast.replica_stats) > 0
        assert fast.slo == slow.slo
        assert fast.per_request == slow.per_request


class TestMixedStepTimesVectorization:
    """engine.iteration_time: one implementation, three entry shapes — the scalar step
    path (mixed_step_time), the scalar epoch path and the vectorized epoch path must
    agree bit for bit or fast-forward drifts from stepwise."""

    @pytest.mark.parametrize("system,model,tp", [
        ("liquidserve", "llama2-7b", 1),
        ("trt-fp16", "llama2-13b", 1),
        ("liquidserve", "llama2-70b", 4),
    ])
    def test_vectorized_matches_scalar_mixed_step(self, system, model, tp):
        from repro.serving.engine import PrefillChunk

        engine = ServingEngine(system, model, tp_degree=tp)
        k, batch = 9, 5
        import numpy as np

        steps = np.arange(k, dtype=np.int64)
        totals = 2000 + steps * batch
        runs = [(256, 512 + steps * 256), (96, 64 + steps * 96)]
        vectorized = engine.iteration_time(batch, totals, runs, batch)
        contexts = [100, 200, 300, 400, 1000]
        for i in range(k):
            chunks = [PrefillChunk(256, 512 + i * 256), PrefillChunk(96, 64 + i * 96)]
            scalar = engine.mixed_step_time([c + i for c in contexts], chunks)
            assert scalar == float(vectorized[i])
            assert scalar == engine.iteration_time(
                batch, 2000 + i * batch, [(256, 512 + i * 256), (96, 64 + i * 96)],
                batch,
            )

    def test_pure_prefill_epoch(self):
        from repro.serving.engine import PrefillChunk
        import numpy as np

        engine = ServingEngine("liquidserve", "llama2-7b")
        steps = np.arange(6, dtype=np.int64)
        vectorized = engine.iteration_time(0, 0, [(256, steps * 256)], 0)
        for i in range(6):
            assert float(vectorized[i]) == engine.mixed_step_time(
                [], [PrefillChunk(256, i * 256)]
            )

    def test_no_chunks_delegates_to_decode_closed_form(self):
        import numpy as np

        engine = ServingEngine("liquidserve", "llama2-7b")
        totals = 3000 + np.arange(4, dtype=np.int64) * 7
        vectorized = engine.iteration_time(7, totals, [], 7)
        for i, total in enumerate(totals):
            assert float(vectorized[i]) == engine.iteration_time(7, int(total), (), 7)
        with pytest.raises(ValueError):
            engine.iteration_time(0, 0, [], 0)
        with pytest.raises(ValueError, match="chunk_tokens"):
            engine.iteration_time(7, 3000, [(0, 512)], 7)


class TestFastForwardUnit:
    def _steady_scheduler(self, num_requests=3, output_tokens=50):
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b"), fast_forward=True
        )
        for i in range(num_requests):
            scheduler.submit(Request(request_id=i, prompt_tokens=64,
                                     output_tokens=output_tokens))
        while not _in_steady_decode(scheduler):
            scheduler.step()
        return scheduler

    def test_not_applicable_returns_zero(self):
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b")
        )
        assert scheduler.fast_forward() == 0  # idle: nothing to advance
        scheduler.submit(Request(request_id=0, prompt_tokens=32, output_tokens=4))
        assert not _in_steady_decode(scheduler)  # prefill pending
        assert scheduler.fast_forward() == 0

    def test_disabled_scheduler_never_jumps(self):
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b"), fast_forward=False
        )
        scheduler.submit(Request(request_id=0, prompt_tokens=32, output_tokens=8))
        while not _in_steady_decode(scheduler):
            scheduler.step()
        assert scheduler.fast_forward() == 0

    def test_jump_matches_stepwise_twin(self):
        fast = self._steady_scheduler()
        step = self._steady_scheduler()
        advanced = fast.fast_forward()
        assert advanced > 0
        for _ in range(advanced):
            step.step()
        assert fast.clock == step.clock
        assert_stats_identical(step.stats(), fast.stats())

    def test_stop_before_bounds_the_jump(self):
        probe = self._steady_scheduler()
        full = probe.fast_forward()
        assert full > 1
        horizon_clock = probe.clock

        fast = self._steady_scheduler()
        start = fast.clock
        horizon = start + (horizon_clock - start) * 0.25
        advanced = fast.fast_forward(stop_before=horizon)
        assert 0 < advanced < full
        # Every advanced iteration started before the horizon; the next would not have.
        step = self._steady_scheduler()
        for _ in range(advanced - 1):
            step.step()
        assert step.clock < horizon
        step.step()
        assert step.clock == fast.clock
        assert step.clock >= horizon or advanced == full

    def test_parked_check_sees_the_budget_the_batch_leaves(self):
        """A decode-only batch of 10 under a 24-token iteration budget leaves admission
        14 tokens.  A new arrival's first chunk of 14 tokens fits the one free block, so
        the queue is not parked and fast-forward declines before planning: step() is
        due.  (A 24-token chunk would need two blocks.)"""

        def build(kv_budget_bytes=None):
            scheduler = ContinuousBatchingScheduler(
                ServingEngine("liquidserve", "llama2-7b"), max_batched_tokens=24,
                prefill_chunk_tokens=24, kv_budget_bytes=kv_budget_bytes,
            )
            for i in range(10):
                scheduler.submit(Request(request_id=i, prompt_tokens=16,
                                         output_tokens=200))
            while not _in_steady_decode(scheduler):
                scheduler.step()
            return scheduler

        probe = build()
        # Blocks only grow until the first completion, so a pool one block larger than
        # the steady state's never runs dry on the way there.
        kv = probe.kv_cache
        scheduler = build((kv.num_used_blocks + 1) * kv.config.bytes_per_block)
        assert scheduler.kv_cache.num_free_blocks == 1
        scheduler.submit(Request(request_id=99, prompt_tokens=64, output_tokens=4))
        assert scheduler.fast_forward() == 0

    def test_horizon_already_passed_returns_zero(self):
        scheduler = self._steady_scheduler()
        assert scheduler.fast_forward(stop_before=scheduler.clock) == 0

    def test_completion_retires_requests_and_frees_blocks(self):
        scheduler = self._steady_scheduler(num_requests=2, output_tokens=10)
        advanced = scheduler.fast_forward()
        assert advanced > 0
        assert not scheduler.has_work  # both finished inside the chained jump
        assert scheduler.kv_cache.num_used_blocks == 0
        stats = scheduler.stats()
        assert stats.completed_requests == 2
        assert stats.generated_tokens == 20


#: (model, TP degree) pairs the property tests draw: every model at every degree that
#: shards it (llama1-30b's 52 heads rule out 8).
_SHARDINGS = [
    (model, tp)
    for model in list_models()
    for tp in (1, 2, 4, 8)
    if get_model(model).num_heads % tp == 0 and get_model(model).intermediate_size % tp == 0
]


@st.composite
def pinned_epochs(draw):
    """An engine configuration and one pinned epoch: its decode batch and summed context,
    0-3 prefill chunks, a length on either side of the scalar/array crossover and a
    horizon anywhere in it (or none)."""
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    model, tp = draw(st.sampled_from(_SHARDINGS))
    batch = draw(st.integers(min_value=0, max_value=96))
    total = batch * draw(st.integers(min_value=1, max_value=6000))
    chunks = draw(st.lists(
        st.tuples(st.integers(1, 1024), st.integers(0, 16384)),
        min_size=0 if batch else 1, max_size=3,
    ))
    iterations = draw(st.integers(1, 2 * _EPOCH_ARRAY_ITERATIONS + 8))
    # The horizon falls inside iteration ``at`` (at its start when the fraction is 0: a
    # tie), or past the epoch's end when ``at == iterations``.
    horizon = draw(st.one_of(st.none(), st.tuples(
        st.integers(min_value=0, max_value=iterations),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )))
    return system, model, tp, batch, total, chunks, iterations, horizon


class TestPricingClosedForms:
    """The two closed forms fast-forward rests on, against their one-call references.

    ``price_epoch`` must return exactly the iteration count and clock that adding
    :meth:`ServingEngine.iteration_time` iteration by iteration gives, on both sides of
    its scalar/array crossover and at any horizon, and the engine's
    :class:`AttentionLine` must price exactly what the public attention forms return, for
    scalars and elementwise over int64 arrays."""

    @settings(max_examples=120, deadline=None)
    @given(epoch=pinned_epochs(), start=st.floats(min_value=0.0, max_value=1e4))
    def test_epoch_matches_sequential_iteration_time(self, epoch, start):
        system, model, tp, batch, total, chunks, iterations, horizon = epoch
        engine = ServingEngine(system, model, tp_degree=tp)

        def iteration(i):
            return engine.iteration_time(
                batch, total + i * batch,
                [(tokens, begin + i * tokens) for tokens, begin in chunks], batch,
            )

        def sequential(stop_before, count=iterations):
            clock, done = start, 0
            while done < count:
                if stop_before is not None and not clock < stop_before:
                    break
                clock += iteration(done)
                done += 1
            return done, clock

        stop_before = None
        if horizon is not None:
            at, fraction = horizon
            stop_before = sequential(None, at)[1] + fraction * iteration(at)
        expected = sequential(stop_before)
        result = engine.price_epoch(batch, total, chunks, iterations, start, stop_before)
        assert result == expected
        assert isinstance(result[0], int) and isinstance(result[1], float)

    @settings(max_examples=120, deadline=None)
    @given(
        system=st.sampled_from(sorted(SYSTEMS)),
        sharding=st.sampled_from(_SHARDINGS),
        batch=st.integers(min_value=1, max_value=256),
        context=st.integers(min_value=1, max_value=8192),
        chunk_tokens=st.integers(min_value=1, max_value=2048),
        context_start=st.integers(min_value=0, max_value=32768),
        span=st.integers(min_value=1, max_value=12),
    )
    def test_attention_line_matches_attention_cost_forms(
        self, system, sharding, batch, context, chunk_tokens, context_start, span
    ):
        model, tp = sharding
        engine = ServingEngine(system, model, tp_degree=tp)
        line = engine._attention_line
        forms = dict(
            kv_bytes_per_element=engine.backend.kv_bytes_per_element,
            attention_efficiency=engine.backend.attention_efficiency,
            tp_degree=tp,
        )
        total = batch * context
        decode = decode_attention_cost_from_totals(
            engine.model, engine.gpu, batch, total, **forms
        )
        chunk = chunked_prefill_attention_cost(
            engine.model, engine.gpu, chunk_tokens, context_start, **forms
        )
        assert line.decode_cost(batch, total) == decode
        assert line.decode(batch, total) == decode.total
        assert engine.layer_attention_time(batch, context) == decode.total
        assert line.chunk_cost(chunk_tokens, context_start) == chunk
        assert line.chunk(chunk_tokens, context_start) == chunk.total
        # A decode-only iteration is the per-layer composition over the decode form.
        per_layer = (
            engine.layer_gemm_time(batch) + decode.total + engine.layer_others_time(batch)
            + 2.0 * engine.allreduce_time(batch)
        )
        assert engine.iteration_time(batch, total, (), batch) == (
            per_layer * engine.model.num_layers + engine.lm_head_time(batch)
        )
        # Elementwise over int64 arrays, each element equals the scalar form.
        steps = np.arange(span, dtype=np.int64)
        totals = total + steps * batch
        starts = context_start + steps * chunk_tokens
        decode_array = line.decode(batch, totals)
        chunk_array = line.chunk(chunk_tokens, starts)
        chunk_form = chunked_prefill_attention_cost(
            engine.model, engine.gpu, chunk_tokens, starts, **forms
        ).total
        for i in range(span):
            assert float(decode_array[i]) == decode_attention_cost_from_totals(
                engine.model, engine.gpu, batch, int(totals[i]), **forms
            ).total
            assert float(chunk_array[i]) == float(chunk_form[i]) == chunked_prefill_attention_cost(
                engine.model, engine.gpu, chunk_tokens, int(starts[i]), **forms
            ).total


class TestAttentionLineFolding:
    """:class:`AttentionLine` multiplies token counts by two folded per-token constants
    (``2 * kv_dim * kv_bytes`` and ``8 * heads * head_dim``).  Its decode and chunk forms,
    and each term of their splits, must equal the left-to-right formulas written out,
    bit for bit, on every system, model and TP sharding, for contexts up to 2**31, as
    scalars and elementwise over int64 arrays."""

    @pytest.fixture(scope="class")
    def lines(self):
        return [ServingEngine(system, model, tp_degree=tp)._attention_line
                for system in sorted(SYSTEMS) for model, tp in _SHARDINGS]

    @staticmethod
    def _unfolded(line, batch, total, chunk_tokens, start):
        """The decode and chunk terms in the operand order the forms were written in."""
        kv_dim, kv_bytes, bw = line.kv_dim, line.kv_bytes_per_element, line._effective_bw
        heads, head_dim = line.heads, line.head_dim
        attended = chunk_tokens * start + chunk_tokens * (chunk_tokens + 1) / 2.0
        decode = (2.0 * total * kv_dim * kv_bytes / bw, 2.0 * batch * kv_dim * kv_bytes / bw,
                  8.0 * total * heads * head_dim / line._decode_tc)
        chunk = (2.0 * start * kv_dim * kv_bytes / bw, 2.0 * chunk_tokens * kv_dim * kv_bytes / bw,
                 8.0 * attended * heads * head_dim / line._chunk_tc)
        return decode, chunk

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=4096),
        total=st.integers(min_value=0, max_value=2**31),
        chunk_tokens=st.integers(min_value=1, max_value=8192),
        start=st.integers(min_value=0, max_value=2**31),
        span=st.integers(min_value=1, max_value=6),
    )
    def test_folded_forms_equal_the_unfolded_formulas(
        self, lines, batch, total, chunk_tokens, start, span
    ):
        launch = _ATTENTION_LAUNCH_OVERHEAD_S
        steps = np.arange(span, dtype=np.int64)
        totals, starts = total + steps * batch, start + steps * chunk_tokens
        for line in lines:
            (read, write, compute), (c_read, c_write, c_compute) = self._unfolded(
                line, batch, total, chunk_tokens, start
            )
            assert line.decode(batch, total) == read + write + compute + launch
            assert line.decode_cost(batch, total) == AttentionCost(read, write, compute, launch)
            assert line.chunk(chunk_tokens, start) == c_read + c_write + c_compute + launch
            assert line.chunk_cost(chunk_tokens, start) == AttentionCost(
                c_read, c_write, c_compute, launch
            )
            (read, write, compute), (c_read, c_write, c_compute) = self._unfolded(
                line, batch, totals, chunk_tokens, starts
            )
            decode, chunk = line.decode(batch, totals), line.chunk(chunk_tokens, starts)
            assert np.array_equal(decode, read + write + compute + launch)
            assert np.array_equal(chunk, c_read + c_write + c_compute + launch)
            for i in range(span):
                assert float(decode[i]) == line.decode(batch, int(totals[i]))
                assert float(chunk[i]) == line.chunk(chunk_tokens, int(starts[i]))


class TestOutstandingTokensCounter:
    @settings(max_examples=15, deadline=None)
    @given(
        trace=random_traces(),
        kv_budget=st.sampled_from([256 * MB, GB, None]),
        preemption=st.sampled_from(["recompute", "swap", "hybrid"]),
    )
    def test_counter_matches_scan_at_every_step(self, trace, kv_budget, preemption):
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b"),
            kv_budget_bytes=kv_budget,
            host_kv_budget_bytes=GB,
            preemption_policy=preemption,
            fast_forward=False,
        )
        for request in sorted(trace, key=lambda r: r.arrival_time_s):
            scheduler.submit(copy.copy(request))
            assert scheduler.outstanding_tokens == scheduler._outstanding_tokens_scan()
        while scheduler.has_work:
            scheduler.step()
            assert scheduler.outstanding_tokens == scheduler._outstanding_tokens_scan()
        assert scheduler.outstanding_tokens == 0

    def test_counter_tracks_fast_forward_jumps(self):
        scheduler = ContinuousBatchingScheduler(
            ServingEngine("liquidserve", "llama2-7b")
        )
        scheduler.submit(Request(request_id=0, prompt_tokens=64, output_tokens=30))
        while not _in_steady_decode(scheduler):
            scheduler.step()
            assert scheduler.outstanding_tokens == scheduler._outstanding_tokens_scan()
        assert scheduler.fast_forward() > 0
        assert scheduler.outstanding_tokens == scheduler._outstanding_tokens_scan() == 0


class TestClusterEquivalence:
    @pytest.mark.parametrize("router", ["round-robin", "least-tokens", "least-kv"])
    def test_colocated_cluster_bit_identical(self, router):
        kwargs = dict(
            mode="colocated", num_replicas=3, router=router,
            num_requests=60, arrival_rate_rps=40.0, seed=11,
        )
        fast = simulate_cluster("liquidserve", "llama2-7b", **kwargs)
        slow = simulate_cluster(
            "liquidserve", "llama2-7b", fast_forward=False, **kwargs
        )
        assert fast.result.simulated_time_s == slow.result.simulated_time_s
        assert fast.result.generated_tokens == slow.result.generated_tokens
        assert fast.result.completed_requests == slow.result.completed_requests
        for a, b in zip(fast.replica_stats, slow.replica_stats):
            assert_stats_identical(b, a)
        # The merged request order is canonical, so the order-sensitive float sums of the
        # cluster-level SLO report (and the per-request list itself) match bit for bit —
        # not just after sorting.
        assert fast.slo == slow.slo
        assert fast.per_request == slow.per_request
        assert [r.request_id for r in fast.result.requests] == [
            r.request_id for r in slow.result.requests
        ]

    def test_disaggregated_cluster_bit_identical(self):
        kwargs = dict(
            mode="disaggregated", num_prefill_replicas=1, num_decode_replicas=2,
            num_requests=50, arrival_rate_rps=30.0, seed=13,
        )
        fast = simulate_cluster("liquidserve", "llama2-7b", **kwargs)
        slow = simulate_cluster(
            "liquidserve", "llama2-7b", fast_forward=False, **kwargs
        )
        assert fast.result.simulated_time_s == slow.result.simulated_time_s
        assert fast.result.kv_handoffs == slow.result.kv_handoffs
        assert fast.result.kv_handoff_s == slow.result.kv_handoff_s
        for a, b in zip(fast.replica_stats, slow.replica_stats):
            assert_stats_identical(b, a)
        assert fast.slo == slow.slo
        assert fast.per_request == slow.per_request

    @pytest.mark.parametrize("mode_kwargs", [
        dict(mode="colocated", num_replicas=3, router="least-tokens"),
        dict(mode="disaggregated", num_prefill_replicas=2, num_decode_replicas=2),
    ])
    def test_prefill_heavy_cluster_bit_identical(self, mode_kwargs):
        """Mixed-phase jumps under the cluster drivers: prefill-heavy traffic keeps the
        prefill replicas (and, co-located, every replica) inside chunk schedules, the
        regime the event-indexed horizons must bound exactly."""
        kwargs = dict(
            num_requests=60, arrival_rate_rps=24.0, seed=7,
            prompt_lengths=LengthDistribution.lognormal(
                median=1024.0, sigma=0.9, maximum=4096
            ),
            output_lengths=LengthDistribution.lognormal(
                median=64.0, sigma=0.8, maximum=512
            ),
            **mode_kwargs,
        )
        fast = simulate_cluster("liquidserve", "llama2-7b", **kwargs)
        slow = simulate_cluster(
            "liquidserve", "llama2-7b", fast_forward=False, **kwargs
        )
        assert fast.result.simulated_time_s == slow.result.simulated_time_s
        assert fast.result.kv_handoff_s == slow.result.kv_handoff_s
        for a, b in zip(fast.replica_stats, slow.replica_stats):
            assert_stats_identical(b, a)
        assert fast.slo == slow.slo
        assert fast.per_request == slow.per_request

    def test_colocated_cluster_merged_slo_bit_identical_under_load(self):
        """The regression scenario from review: a jumping replica used to drain a whole
        batch of completions past other replicas' clocks, reordering the merged
        population and flipping the last ULP of its mean latencies."""
        kwargs = dict(
            mode="colocated", num_replicas=3, router="least-tokens",
            num_requests=80, arrival_rate_rps=60.0, seed=11,
        )
        fast = simulate_cluster("liquidserve", "llama2-7b", **kwargs)
        slow = simulate_cluster(
            "liquidserve", "llama2-7b", fast_forward=False, **kwargs
        )
        assert fast.slo == slow.slo
        assert fast.slo.mean_latency_s == slow.slo.mean_latency_s
