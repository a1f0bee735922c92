"""Decode-slot reservation: the bulk path against the per-sequence loop it replaced.

``step()`` reserves every running sequence's decode slot in one
:meth:`PagedKvCache.reserve_decode_slots` call and walks only the slots that open a
block after the pool ran dry (:meth:`ContinuousBatchingScheduler._reserve_decode_slots`).
The fast-forward equivalence tests cannot catch a wrong reservation, because both of
their sides run ``step()``.  Here the reference is the per-sequence loop itself, kept in
this file: two schedulers serve the same trace in lockstep, one reserving in bulk and
one per sequence, and after every driver action their pools (free list in order, block
lists, reference counts, token counts, host pool), queues, victims, prefix caches and
:class:`SchedulerStats` must be equal.
"""

import copy
import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import ContinuousBatchingScheduler, Request, ServingEngine
from repro.serving.kvcache import KvCacheOutOfMemory
from test_fast_forward_equivalence import assert_stats_identical

MB = 2**20
GB = 2**30


class PerSequenceReservation(ContinuousBatchingScheduler):
    """The scheduler with the per-sequence decode-slot loop ``step()`` used to run: one
    ``sequence`` + ``extend_state`` call per running sequence, and the guarded,
    preempting walk over the whole batch whenever the free pool is smaller than it."""

    def _reserve_decode_slots(self):
        preemptions_before = self._preemption_count
        kv = self.kv_cache
        if kv.num_free_blocks >= len(self._running):
            contexts = []
            for request in self._running:
                state = kv.sequence(request.request_id)
                contexts.append(state.num_tokens)
                kv.extend_state(state, 1)
            return contexts
        reserved = {}
        for request in list(self._running):
            if self._preemption_count != preemptions_before and request not in self._running:
                continue
            while True:
                state = kv.sequence(request.request_id)
                context = state.num_tokens
                try:
                    kv.extend_state(state, 1)
                    reserved[request.request_id] = context
                    break
                except KvCacheOutOfMemory:
                    if not self._preempt_one(exclude=request, reason="kv_pressure"):
                        raise RuntimeError("no victim") from None
        return [reserved[r.request_id] for r in self._running]


def _pool(kv):
    def states(table):
        return {seq_id: (s.num_tokens, list(s.blocks)) for seq_id, s in table.items()}

    return {
        "free": list(kv._free_blocks),
        "sequences": states(kv._sequences),
        "ref_counts": dict(kv._ref_counts),
        "shared": kv._shared_blocks,
        "host_free": list(kv._free_host_blocks),
        "swapped": states(kv._swapped),
    }


def _queues(scheduler):
    def ids(requests):
        return [r.request_id for r in requests]

    return {
        "clock": scheduler.clock,
        "pending_transfer_s": scheduler._pending_transfer_s,
        "running": ids(scheduler._running),
        "prefilling": ids(scheduler._prefilling),
        "swapped": ids(scheduler._swapped),
        "waiting": sorted(ids(entry[2] for entry in scheduler._waiting)),
        "completed": ids(scheduler._completed),
        "outstanding": scheduler.outstanding_tokens,
    }


def _cache(scheduler):
    cache = scheduler.prefix_cache
    if cache is None:
        return None
    return (
        sorted((str(key), node.block) for key, node in cache._nodes.items()),
        cache.hits, cache.misses, cache.inserted_blocks, cache.evicted_blocks,
    )


def _advance(scheduler, arrivals, fast_forward):
    """One driver action, as ``run()`` takes them: submit what has arrived, then jump
    to the next arrival, fast-forward or step.  Returns what it did (None: done)."""
    while arrivals and arrivals[0][0] <= scheduler.clock:
        scheduler.submit(heapq.heappop(arrivals)[2])
    if not scheduler.has_work:
        if not arrivals:
            return None
        arrival, _, request = heapq.heappop(arrivals)
        scheduler.submit(request, now=arrival)
        return ("arrive", request.request_id)
    if fast_forward:
        advanced = scheduler.fast_forward(arrivals[0][0] if arrivals else None)
        if advanced:
            return ("fast_forward", advanced)
    scheduler.step()
    return ("step",)


def serve_in_lockstep(trace, fast_forward=False, **options):
    """Serve ``trace`` on a bulk-reserving and a per-sequence-reserving scheduler side
    by side, asserting equal state after every driver action.  Returns the bulk side's
    final stats and, per bulk call, the number of slots it left to the guarded walk."""
    engine = ServingEngine("liquidserve", "llama2-7b")
    subject = ContinuousBatchingScheduler(engine, fast_forward=fast_forward, **options)
    reference = PerSequenceReservation(engine, fast_forward=fast_forward, **options)
    skipped = []
    bulk = subject.kv_cache.reserve_decode_slots

    def counted(seq_ids):
        contexts, left = bulk(seq_ids)
        skipped.append(len(left))
        return contexts, left

    subject.kv_cache.reserve_decode_slots = counted
    sides = []
    for scheduler in (subject, reference):
        arrivals = [(r.arrival_time_s, r.request_id, copy.copy(r)) for r in trace]
        heapq.heapify(arrivals)
        sides.append((scheduler, arrivals))
    while True:
        actions = [_advance(scheduler, arrivals, fast_forward) for scheduler, arrivals in sides]
        assert actions[0] == actions[1]
        assert _pool(subject.kv_cache) == _pool(reference.kv_cache)
        assert _queues(subject) == _queues(reference)
        assert _cache(subject) == _cache(reference)
        assert_stats_identical(reference.stats(), subject.stats())
        if actions[0] is None:
            break
    stats = subject.stats()
    assert stats.completed_requests == len(trace)
    return stats, skipped


@st.composite
def traces(draw):
    """Up to 12 requests; some share a prefix whose length is not a block multiple, so a
    published prefix ends inside a sequence's block list, and some prompts end exactly
    on their shared prefix, so the decode tail block is itself cached."""
    n = draw(st.integers(min_value=1, max_value=12))
    requests = []
    for i in range(n):
        group = draw(st.integers(min_value=0, max_value=1))
        shared = draw(st.sampled_from([0, 20, 48, 100, 256]))
        requests.append(Request(
            request_id=i,
            prompt_tokens=shared + draw(st.integers(min_value=0 if shared else 1,
                                                    max_value=300)),
            output_tokens=draw(st.integers(min_value=1, max_value=48)),
            arrival_time_s=draw(st.floats(min_value=0.0, max_value=1.0,
                                          allow_nan=False, allow_infinity=False)),
            priority=draw(st.integers(min_value=0, max_value=2)),
            prefix_group=group,
            prefix_segments=((group, shared),) if shared else (),
        ))
    return requests


class TestBulkReservationMatchesPerSequenceLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        trace=traces(),
        kv_budget=st.sampled_from([160 * MB, 256 * MB, 512 * MB, None]),
        host_budget=st.sampled_from([0, 64 * MB, GB]),
        preemption=st.sampled_from(["recompute", "swap", "hybrid"]),
        scheduling=st.sampled_from(["fcfs", "priority", "sjf"]),
        overlap=st.booleans(),
        prefix_caching=st.booleans(),
        fast_forward=st.booleans(),
        prefill_chunk=st.sampled_from([32, 256]),
    )
    def test_random_traces_in_lockstep(self, trace, kv_budget, host_budget, preemption,
                                       scheduling, overlap, prefix_caching, fast_forward,
                                       prefill_chunk):
        serve_in_lockstep(
            trace, fast_forward=fast_forward, kv_budget_bytes=kv_budget,
            host_kv_budget_bytes=host_budget, preemption_policy=preemption,
            scheduling_policy=scheduling, overlap_swap_transfers=overlap,
            prefix_caching=prefix_caching, prefill_chunk_tokens=prefill_chunk,
        )

    @pytest.mark.parametrize("preemption,host_budget,victims", [
        ("recompute", 0, "recompute_preemptions"),
        ("swap", GB, "swap_preemptions"),
    ])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_exhausted_pool_preempts_identically(self, preemption, host_budget, victims,
                                                 overlap):
        """A pool of 40 blocks under 12 long decodes: the bulk call leaves slots to the
        guarded walk, which preempts victims of the named kind."""
        trace = [
            Request(request_id=i, prompt_tokens=60 + 7 * i, output_tokens=64,
                    arrival_time_s=0.001 * i)
            for i in range(12)
        ]
        stats, skipped = serve_in_lockstep(
            trace, kv_budget_bytes=160 * MB, host_kv_budget_bytes=host_budget,
            preemption_policy=preemption, overlap_swap_transfers=overlap,
        )
        assert sum(skipped) > 0
        assert getattr(stats, victims) > 0
        assert stats.preemptions_kv_pressure > 0

    def test_prefix_cache_forks_with_cached_decode_tails(self):
        """Prompts that end on their 48-token shared prefix decode from a cached tail
        block; later arrivals fork the published blocks, and the pool runs dry."""
        trace = [
            Request(request_id=i, prompt_tokens=48 + (i % 3) * 20, output_tokens=40,
                    arrival_time_s=0.002 * i, prefix_group=0,
                    prefix_segments=((0, 48),))
            for i in range(14)
        ]
        stats, skipped = serve_in_lockstep(
            trace, kv_budget_bytes=160 * MB, prefix_caching=True,
            preemption_policy="hybrid", host_kv_budget_bytes=GB,
        )
        assert stats.prefix_cache_hits > 0
        assert sum(skipped) > 0

    def test_ample_pool_never_walks_a_slot(self):
        trace = [
            Request(request_id=i, prompt_tokens=100 + i, output_tokens=40,
                    arrival_time_s=0.01 * i)
            for i in range(8)
        ]
        stats, skipped = serve_in_lockstep(trace)
        assert sum(skipped) == 0
        assert stats.preemptions == 0

    @pytest.mark.parametrize("preemption,host_budget", [("recompute", 0), ("swap", GB)])
    def test_victim_later_in_the_batch_loses_its_turn(self, preemption, host_budget):
        """Eight 64-token prompts admitted together open their blocks on the same
        iterations.  With the pool dry, the first walked slot evicts the latest arrival,
        whose own slot was also left to the walk: the walk must pass it over."""
        trace = [
            Request(request_id=i, prompt_tokens=64, output_tokens=40) for i in range(8)
        ]
        stats, skipped = serve_in_lockstep(
            trace, kv_budget_bytes=160 * MB, host_kv_budget_bytes=host_budget,
            preemption_policy=preemption,
        )
        assert max(skipped) >= 2
        assert stats.preemptions_kv_pressure > 0
