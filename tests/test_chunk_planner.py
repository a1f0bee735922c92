"""Chunk planning: the planner against the probing walk it replaced.

``step()`` and ``fast_forward()`` take an iteration's prefill chunks from one planner,
:meth:`ContinuousBatchingScheduler._plan_chunks`, which reads the pool without touching
it; ``step()`` then allocates the planned chunks and reports each starved chunk as the
``kv_oom`` event its failed allocation used to emit.  The fast-forward equivalence tests
cannot catch a wrong plan, because both of their sides run ``step()``.  Here the
reference is the walk ``step()`` ran before, kept in this file: each chunk probed with
``extend_sequence`` and skipped when the probe raised.  On random pools of resident
prefills, some forked from whole cached blocks and some holding a partially filled tail
block, the planned chunks followed by their allocation must leave the same pool and the
same budget as the probing walk, and the planner's ``(needed, free)`` pairs must equal
the fields of the ``kv_oom`` events the failed probes emit.
"""

from hypothesis import given, settings, strategies as st

from repro.serving import ContinuousBatchingScheduler, Request, ServingEngine
from repro.serving.kvcache import KvCacheOutOfMemory
from repro.telemetry import Tracer
from test_slot_reservation import _pool

ENGINE = ServingEngine("liquidserve", "llama2-7b")
BLOCK_BYTES = ENGINE.kv_cache_config().bytes_per_block
BLOCK_TOKENS = ENGINE.kv_cache_config().block_tokens
#: Sequence ids of the cached-prefix holder and of the decoding residents.
HOLDER = 10_000
RUNNING = 20_000


def probing_walk(scheduler, budget):
    """The chunk walk ``step()`` ran before it had a planner: probe each resident
    prefill's chunk with ``extend_sequence`` and skip it when the pool cannot supply
    it.  Returns ``(request id, take)`` per allocated chunk and the budget left."""
    takes = []
    for request in list(scheduler._prefilling):
        if budget <= 0:
            break
        take = min(request.prefill_target - request.prefilled,
                   scheduler.prefill_chunk_tokens, budget)
        if take <= 0:
            continue
        try:
            scheduler.kv_cache.extend_sequence(request.request_id, take)
        except KvCacheOutOfMemory:
            continue  # resume this prefill once decode churn frees blocks
        takes.append((request.request_id, take))
        budget -= take
    return takes, budget


def planned_walk(scheduler, budget):
    """The planner's chunks, allocated as ``step()`` allocates them.  Returns
    ``(request id, take)`` per chunk, the budget left and the starved pairs."""
    takes, budget, starved = scheduler._plan_chunks(budget,
                                                    scheduler.kv_cache.num_free_blocks)
    for _, state, take in takes:
        scheduler.kv_cache.extend_state(state, take)
    return [(request.request_id, take) for request, _, take in takes], budget, starved


def build(total_blocks, chunk_tokens, cached_blocks, prefills, running):
    """A scheduler whose pool holds a cached prefix of ``cached_blocks`` whole blocks,
    the decoding residents ``running`` (token counts) and the resident prefills
    ``prefills``: ``(forked blocks, tokens past them, tokens still to prefill)``.  A
    sequence the pool cannot hold is left out."""
    scheduler = ContinuousBatchingScheduler(
        ENGINE, kv_budget_bytes=total_blocks * BLOCK_BYTES,
        prefill_chunk_tokens=chunk_tokens,
    )
    kv = scheduler.kv_cache
    holder = kv.add_sequence(HOLDER, min(cached_blocks, total_blocks) * BLOCK_TOKENS)
    for offset, tokens in enumerate(running):
        if kv.can_admit(tokens):
            kv.add_sequence(RUNNING + offset, tokens)
    for request_id, (forked, extra, left) in enumerate(prefills):
        forked = min(forked, len(holder.blocks))
        if kv.config.blocks_for_tokens(extra) > kv.num_free_blocks:
            continue
        if forked:
            kv.fork_from_blocks(request_id, holder.blocks[:forked])
            kv.extend_sequence(request_id, extra)
        else:
            kv.add_sequence(request_id, extra)
        prefilled = forked * BLOCK_TOKENS + extra
        request = Request(request_id=request_id, prompt_tokens=prefilled + left,
                          output_tokens=1)
        request.prefill_target = prefilled + left
        request.prefilled = prefilled
        scheduler._prefilling.append(request)
    return scheduler


class _OomRecorder:
    """A pool tracer keeping the ``(needed_blocks, free_blocks)`` of each ``kv_oom``."""

    def __init__(self):
        self.ooms = []

    def emit(self, kind, ts, *, replica=0, needed_blocks, free_blocks):
        assert kind == "kv_oom"
        self.ooms.append((needed_blocks, free_blocks))


def assert_plan_matches_probing_walk(spec, budget):
    reference, subject = build(*spec), build(*spec)
    recorder = _OomRecorder()
    reference.kv_cache.bind_tracer(recorder)
    assert _pool(reference.kv_cache) == _pool(subject.kv_cache)
    expected_takes, expected_budget = probing_walk(reference, budget)
    takes, budget_left, starved = planned_walk(subject, budget)
    assert takes == expected_takes
    assert budget_left == expected_budget
    assert starved == recorder.ooms
    assert _pool(subject.kv_cache) == _pool(reference.kv_cache)
    return takes, starved


@st.composite
def pools(draw):
    total_blocks = draw(st.integers(min_value=4, max_value=96))
    chunk_tokens = draw(st.sampled_from([16, 40, 128, 256]))
    cached_blocks = draw(st.integers(min_value=0, max_value=6))
    prefills = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=1, max_value=700),
        ),
        max_size=10,
    ))
    running = draw(st.lists(st.integers(min_value=1, max_value=400), max_size=6))
    return total_blocks, chunk_tokens, cached_blocks, prefills, running


class TestPlannerMatchesProbingWalk:
    @settings(max_examples=150, deadline=None)
    @given(spec=pools(), budget=st.integers(min_value=0, max_value=2_048))
    def test_random_pools(self, spec, budget):
        assert_plan_matches_probing_walk(spec, budget)

    def test_starved_chunk_keeps_its_budget_for_a_later_one(self):
        """8 blocks: two running sequences hold 5, so 3 are free.  The first prefill's
        256-token chunk needs 16 blocks and is starved; the second's 20 tokens open 2
        blocks and take the budget the first left."""
        spec = (8, 256, 0, [(0, 0, 600), (0, 0, 20)], [48, 20])
        takes, starved = assert_plan_matches_probing_walk(spec, 300)
        assert takes == [(1, 20)]
        assert starved == [(16, 3)]

    def test_forked_prefill_grows_past_its_cached_blocks(self):
        """A prefill forked from 2 cached blocks with 5 tokens past them: its 128-token
        chunk fills its tail block and opens 8 more, and no shared block is copied."""
        spec = (40, 128, 3, [(2, 5, 400)], [])
        takes, starved = assert_plan_matches_probing_walk(spec, 512)
        assert takes == [(0, 128)] and starved == []

    def test_planner_never_touches_the_pool(self):
        scheduler = build(24, 128, 2, [(1, 3, 500), (0, 7, 90), (0, 0, 300)], [33, 70])
        before = _pool(scheduler.kv_cache)
        takes, _, starved = scheduler._plan_chunks(1_000, scheduler.kv_cache.num_free_blocks)
        assert takes and starved
        assert _pool(scheduler.kv_cache) == before


def test_stepped_starved_chunk_is_traced_as_kv_oom():
    """``step()`` reports a starved chunk as the ``kv_oom`` event the failed probe
    raised: at the iteration's clock, with the blocks it needed and the blocks left.
    On a 38-block pool, request 0's 100-token prompt (7 blocks) and request 1's first
    256-token chunk (16 blocks) are admitted together, leaving 15 blocks.  Next
    iteration request 0's decode slot fits its tail block, and request 1's next chunk,
    16 blocks, is starved."""
    tracer = Tracer()
    scheduler = ContinuousBatchingScheduler(
        ENGINE, kv_budget_bytes=38 * BLOCK_BYTES, tracer=tracer,
    )
    scheduler.submit(Request(request_id=0, prompt_tokens=100, output_tokens=8))
    scheduler.submit(Request(request_id=1, prompt_tokens=600, output_tokens=8))
    scheduler.step()
    assert scheduler.kv_cache.num_free_blocks == 15
    clock = scheduler.clock
    scheduler.step()
    assert [(ev.ts, ev.args) for ev in tracer.events_of("kv_oom")] == [
        (clock, {"needed_blocks": 16, "free_blocks": 15}),
    ]
    assert scheduler.stats().prefill_chunks == 2
