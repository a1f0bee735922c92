"""Tests for radix-tree prefix caching: the trie index itself (match / insert / LRU
eviction / can_free), the prefix-key table a cluster run shares across replicas (its
resumed chains against a from-scratch reference walk), its fork-on-admit integration with the scheduler (saved prefill, hit-rate counters, eviction
under KV pressure), input validation of prefix streams, swap-aware victim selection
around shared blocks, the shared-prefix trace generators, and cache-affinity cluster
routing."""

import pytest
from hypothesis import given, strategies as st

from repro.serving import (
    ContinuousBatchingScheduler,
    KvCacheConfig,
    PagedKvCache,
    PrefixCache,
    PreemptionPolicy,
    Request,
    ServingCluster,
    ServingEngine,
    get_model,
)
from repro.serving.prefixcache import PrefixKeyTable
from repro.serving.systems import ClusterSpec
from repro.workloads import (
    SHAREGPT_OUTPUTS,
    SHAREGPT_PROMPTS,
    ArrivalProcess,
    LengthDistribution,
    agent_swarm_trace,
    generate_trace,
    merge_traces,
    multi_turn_chat_trace,
    rag_trace,
    tenant_mix_trace,
)

SHORT = LengthDistribution.uniform(16, 64)


@pytest.fixture(scope="module")
def engine():
    return ServingEngine("liquidserve", "llama2-7b")


def block_contents(segments, block_tokens, max_blocks):
    """Reference walk: the content of each *full* block covering a segment stream, built
    from the stream's first segment on every call.

    Segment boundaries may fall mid-block, so a block's content is the tuple of
    ``(segment_id, start_offset, end_offset)`` pieces filling it.  The trailing partial
    block (if any) is never yielded, and at most ``max_blocks`` blocks are.
    """
    if max_blocks <= 0:
        return
    pieces = []
    filled = 0
    emitted = 0
    for seg_id, seg_tokens in segments:
        offset = 0
        while offset < seg_tokens:
            take = min(seg_tokens - offset, block_tokens - filled)
            pieces.append((seg_id, offset, offset + take))
            filled += take
            offset += take
            if filled == block_tokens:
                yield tuple(pieces)
                pieces = []
                filled = 0
                emitted += 1
                if emitted >= max_blocks:
                    return


def reference_chain(keys, group, segments, block_tokens, max_blocks=None):
    """Keys of a stream's full blocks by the reference walk, interned in ``keys`` the way
    :class:`PrefixKeyTable` interns them (a group's root under ``(None, group)``)."""
    if max_blocks is None:
        max_blocks = sum(tokens for _, tokens in segments) // block_tokens
    key = keys.setdefault((None, group), len(keys))
    chain = []
    for content in block_contents(segments, block_tokens, max_blocks):
        key = keys.setdefault((key, content), len(keys))
        chain.append(key)
    return tuple(chain)


def make_config(budget_mb=64, block_tokens=16, host_budget_mb=0):
    return KvCacheConfig(
        model=get_model("llama2-7b"),
        kv_format="int8",
        block_tokens=block_tokens,
        memory_budget_bytes=budget_mb * 2**20,
        host_memory_budget_bytes=host_budget_mb * 2**20,
    )


def shared_request(request_id, shared=64, private=16, output=8, group=0):
    """A request whose first ``shared`` prompt tokens are one shareable segment."""
    return Request(
        request_id,
        prompt_tokens=shared + private,
        output_tokens=output,
        prefix_group=group,
        prefix_segments=((0, shared),),
    )


def publish(cache, kv, seq_id, request):
    """Prefill ``request`` onto ``kv`` as ``seq_id`` and publish its prefix."""
    state = kv.add_sequence(seq_id, request.prompt_tokens)
    cache.insert(request, state.blocks)
    return state


class TestBlockContents:
    def test_whole_blocks_only(self):
        contents = list(block_contents(((0, 40),), block_tokens=16, max_blocks=10))
        # 40 tokens = 2 full blocks + a 8-token partial that must never be yielded.
        assert contents == [(((0, 0, 16),)), (((0, 16, 32),))]

    def test_segment_boundary_mid_block(self):
        contents = list(block_contents(((0, 10), (1, 22)), block_tokens=16, max_blocks=10))
        assert contents == [
            ((0, 0, 10), (1, 0, 6)),
            ((1, 6, 22),),
        ]

    def test_max_blocks_caps_output(self):
        contents = list(block_contents(((0, 64),), block_tokens=16, max_blocks=2))
        assert len(contents) == 2

    def test_identical_streams_produce_identical_keys(self):
        a = list(block_contents(((3, 16), (7, 16)), 16, 4))
        b = list(block_contents(((3, 16), (7, 16)), 16, 4))
        assert a == b
        # A diverging second segment changes only the diverging block's key.
        c = list(block_contents(((3, 16), (8, 16)), 16, 4))
        assert c[0] == a[0] and c[1] != a[1]


class TestPrefixCacheIndex:
    def test_miss_then_insert_then_hit(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        request = shared_request(0, shared=64)
        assert cache.match_blocks(request, request.prompt_tokens) == []
        state = publish(cache, kv, 0, request)
        assert cache.num_blocks == 4  # 64 shareable tokens / 16 per block
        assert cache.match_blocks(shared_request(1, shared=64), 64) == state.blocks[:4]
        # Cached blocks now carry the cache's extra reference.
        assert all(kv.block_ref_count(b) == 2 for b in state.blocks[:4])

    def test_match_is_block_granular_and_capped(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        publish(cache, kv, 0, shared_request(0, shared=64))
        probe = shared_request(1, shared=64)
        assert len(cache.match_blocks(probe, 64)) == 4
        assert len(cache.match_blocks(probe, 63)) == 3  # cap rounds down to whole blocks
        assert cache.match_tokens(probe, 64) == 64

    def test_groups_are_isolated(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        publish(cache, kv, 0, shared_request(0, shared=64, group=0))
        assert cache.match_blocks(shared_request(1, shared=64, group=1), 64) == []
        assert cache.match_blocks(shared_request(2, shared=64, group=0), 64) != []

    def test_no_segments_never_matches_or_inserts(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        plain = Request(0, prompt_tokens=80, output_tokens=4)
        state = kv.add_sequence(0, 80)
        assert cache.insert(plain, state.blocks) == 0
        assert cache.match_blocks(plain, 80) == []
        assert cache.num_blocks == 0

    def test_first_writer_wins_on_duplicate_insert(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        first = publish(cache, kv, 0, shared_request(0, shared=64))
        added = cache.insert(shared_request(1, shared=64),
                             kv.add_sequence(1, 80).blocks)
        assert added == 0
        assert cache.match_blocks(shared_request(2, shared=64), 64) == first.blocks[:4]

    def test_divergent_continuations_share_the_common_prefix(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        a = Request(0, prompt_tokens=64, output_tokens=4,
                    prefix_group=0, prefix_segments=((0, 32), (1, 32)))
        b = Request(1, prompt_tokens=64, output_tokens=4,
                    prefix_group=0, prefix_segments=((0, 32), (2, 32)))
        publish(cache, kv, 0, a)
        publish(cache, kv, 1, b)
        # 2 shared blocks + 2 per divergent tail = 6 cached blocks, not 8.
        assert cache.num_blocks == 6
        assert len(cache.match_blocks(a, 64)) == 4
        assert len(cache.match_blocks(b, 64)) == 4

    def test_match_follows_the_stream_not_the_request_id(self):
        """Regression: a match memo keyed by request id served one stream's blocks to
        another request that reused the id."""
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        published = Request(7, prompt_tokens=80, output_tokens=4,
                            prefix_group=0, prefix_segments=((0, 64),))
        state = publish(cache, kv, 0, published)
        assert cache.match_blocks(published, 64) == state.blocks[:4]
        other = Request(7, prompt_tokens=80, output_tokens=4,
                        prefix_group=0, prefix_segments=((1, 64),))
        assert cache.match_blocks(other, 64) == []

    def test_cache_survives_prefiller_completion(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        state = publish(cache, kv, 0, shared_request(0, shared=64))
        kv.free_sequence(0)
        assert all(kv.block_ref_count(b) == 1 for b in state.blocks[:4])
        assert len(cache.match_blocks(shared_request(1, shared=64), 64)) == 4


class TestSharedKeyTable:
    def test_caches_sharing_a_table_keep_separate_tries(self):
        keys = PrefixKeyTable(16)
        kv_a, kv_b = PagedKvCache(make_config()), PagedKvCache(make_config())
        cache_a, cache_b = PrefixCache(kv_a, keys), PrefixCache(kv_b, keys)
        probe = shared_request(9, shared=64)
        state_a = publish(cache_a, kv_a, 0, shared_request(0, shared=64))
        assert cache_a.match_blocks(probe, 64) == state_a.blocks[:4]
        assert cache_b.match_blocks(probe, 64) == []  # published on A only
        state_b = publish(cache_b, kv_b, 0, shared_request(1, shared=64))
        kv_a.free_sequence(0)
        assert cache_a.evict(4) == 4
        assert cache_a.match_blocks(probe, 64) == []
        assert cache_b.match_blocks(probe, 64) == state_b.blocks[:4]  # B's trie intact
        assert cache_b.num_blocks == 4 and cache_b.stats().evicted_blocks == 0

    def test_table_for_another_block_size_is_rejected(self):
        with pytest.raises(ValueError, match="32-token blocks"):
            PrefixCache(PagedKvCache(make_config(block_tokens=16)), PrefixKeyTable(32))


#: Segments from a small alphabet of ids with lengths crossing block boundaries, so two
#: streams often agree for a few blocks and then diverge mid-block.
SEGMENTS = st.tuples(st.integers(min_value=0, max_value=3),
                     st.integers(min_value=1, max_value=40))


@st.composite
def related_streams(draw):
    """``(group, segments)`` streams where each may extend, branch from or cut back an
    earlier one (any segment prefix of it, plus fresh segments) in either group; the
    list is then shuffled, so a stream may come before the streams it is a prefix of."""
    streams = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        head = ()
        if streams and draw(st.booleans()):
            _, base = draw(st.sampled_from(streams))
            head = base[:draw(st.integers(min_value=0, max_value=len(base)))]
        tail = tuple(draw(st.lists(SEGMENTS, max_size=3)))
        streams.append((draw(st.integers(min_value=0, max_value=1)), head + tail))
    return draw(st.permutations(streams))


class TestResumedChains:
    @given(streams=related_streams(), block_tokens=st.sampled_from((1, 4, 16)))
    def test_chains_equal_the_reference_walk(self, streams, block_tokens):
        """A resumed chain holds the keys, key ints included, that a walk from the
        stream's first segment interns, whatever order the streams come in."""
        table = PrefixKeyTable(block_tokens)
        ref_keys = {}
        for i, (group, segments) in enumerate(streams):
            request = Request(i, prompt_tokens=sum(t for _, t in segments) + 1,
                              output_tokens=1, prefix_group=group,
                              prefix_segments=segments)
            assert table._chain(request) == reference_chain(
                ref_keys, group, segments, block_tokens
            )
        assert table._keys == ref_keys


class TestLruEviction:
    def test_evicts_lru_leaf_first(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        old = Request(0, prompt_tokens=16, output_tokens=4,
                      prefix_group=0, prefix_segments=((0, 16),))
        new = Request(1, prompt_tokens=16, output_tokens=4,
                      prefix_group=0, prefix_segments=((1, 16),))
        old_state = publish(cache, kv, 0, old)
        new_state = publish(cache, kv, 1, new)
        kv.free_sequence(0)
        kv.free_sequence(1)
        cache.commit_hit(new, 1)  # refresh `new`'s LRU stamp
        assert cache.evict(1) == 1
        assert cache.match_blocks(old, 16) == []          # the stale chain went first
        assert cache.match_blocks(new, 16) == new_state.blocks
        assert kv.block_ref_count(old_state.blocks[0]) == 0

    def test_never_evicts_blocks_a_live_sequence_shares(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        request = shared_request(0, shared=64)
        publish(cache, kv, 0, request)  # sequence 0 stays live
        assert cache.evict(10) == 0
        assert cache.num_blocks == 4
        kv.free_sequence(0)
        assert cache.evict(10) == 4
        assert cache.num_blocks == 0
        assert kv.num_used_blocks == 0

    def test_eviction_unwinds_chains_leaf_first(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        publish(cache, kv, 0, shared_request(0, shared=64))
        kv.free_sequence(0)
        assert cache.evict(2) == 2
        # The surviving depth still matches as a shorter prefix.
        assert len(cache.match_blocks(shared_request(1, shared=64), 64)) == 2

    def test_prunes_pinned_leaf_to_reach_idle_interior(self):
        """A live holder pinning only the deepest block must not strand the idle
        interior: eviction drops the pinned leaf (free of charge) to reach it."""
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        state = publish(cache, kv, 0, shared_request(0, shared=64))
        kv.free_sequence(0)
        leaf_block = state.blocks[3]
        kv.retain_block(leaf_block)  # stand-in for a live sequence sharing the leaf
        assert cache.can_free()  # the idle interior is reachable
        assert cache.evict(4) == 3  # the pinned leaf itself frees nothing
        assert cache.num_blocks == 0
        assert not cache.can_free()
        assert kv.block_ref_count(leaf_block) == 1  # the live holder keeps its copy
        kv.release_block(leaf_block)
        assert kv.num_used_blocks == 0

    def test_can_free_mirrors_evict(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        request = shared_request(0, shared=64)
        publish(cache, kv, 0, request)
        assert not cache.can_free()         # prefiller still live: nothing evictable
        assert cache.evict(4) == 0
        assert cache.num_blocks == 4        # ...and the trie is left untouched
        kv.free_sequence(0)
        assert cache.can_free()
        assert cache.evict(4) == 4
        assert not cache.can_free()

    def test_reset_releases_everything(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        publish(cache, kv, 0, shared_request(0, shared=64))
        kv.free_sequence(0)
        cache.reset()
        assert cache.num_blocks == 0
        assert kv.num_used_blocks == 0
        assert cache.stats().hits == 0


class TestFmtStats:
    def test_counters_and_hit_rate(self):
        kv = PagedKvCache(make_config())
        cache = PrefixCache(kv)
        request = shared_request(0, shared=64)
        cache.record_miss()
        publish(cache, kv, 0, request)
        cache.commit_hit(shared_request(1, shared=64), 4)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.saved_tokens == 64
        assert stats.inserted_blocks == 4
        assert stats.cached_blocks == 4


class TestSchedulerIntegration:
    def test_cache_saves_prefill_and_preserves_tokens(self, engine):
        trace = agent_swarm_trace(2, 4, 3, 2.0, seed=3)
        scheduler_on = ContinuousBatchingScheduler(engine, prefix_caching=True)
        scheduler_off = ContinuousBatchingScheduler(engine)
        on = scheduler_on.run(trace)
        off = scheduler_off.run(trace)
        assert on.completed_requests == off.completed_requests == len(trace)
        assert on.generated_tokens == off.generated_tokens
        assert on.prefix_cache_hits > 0
        assert on.prefix_saved_tokens > 0
        assert on.prefix_hit_rate > 0.5
        assert off.prefix_cache_hits == 0 and off.prefix_saved_tokens == 0
        # Skipping cached prefill must strictly reduce simulated time and TTFT.
        assert on.simulated_time_s < off.simulated_time_s
        assert on.slo_report().p99_ttft_s < off.slo_report().p99_ttft_s

    def test_slo_report_carries_prefix_fields(self, engine):
        trace = rag_trace(30, 10.0, template_tokens=512, num_templates=2, seed=5)
        stats = ContinuousBatchingScheduler(engine, prefix_caching=True).run(trace)
        report = stats.slo_report()
        assert report.prefix_hit_rate > 0.5
        assert report.prefix_saved_tokens == stats.prefix_saved_tokens > 0
        off = ContinuousBatchingScheduler(engine).run(trace)
        assert off.slo_report().prefix_hit_rate == 0.0
        assert off.slo_report().prefix_saved_tokens == 0

    def test_pool_drains_and_rerun_is_cold(self, engine):
        trace = multi_turn_chat_trace(3, 3, 5.0, seed=7)
        scheduler = ContinuousBatchingScheduler(engine, prefix_caching=True)
        first = scheduler.run(trace)
        # Cached blocks outlive the run inside the session, but a re-run must rebuild
        # the cache from scratch (A/B discipline) and reproduce the exact numbers.
        second = scheduler.run(trace)
        assert second.prefix_cache_hits == first.prefix_cache_hits
        assert second.prefix_saved_tokens == first.prefix_saved_tokens
        assert second.simulated_time_s == first.simulated_time_s
        assert scheduler.kv_cache.num_sequences == 0

    def test_eviction_under_kv_pressure(self, engine):
        """A pool far too small to keep every prefix cached must evict, not deadlock."""
        scheduler = ContinuousBatchingScheduler(engine, prefix_caching=True)
        scheduler.kv_cache = PagedKvCache(make_config(budget_mb=256))
        trace = multi_turn_chat_trace(
            4, 3, 20.0, system_prompt_tokens=256,
            message_lengths=SHORT, reply_lengths=SHORT, seed=11,
        )
        stats = scheduler.run(trace)
        assert stats.completed_requests == len(trace)
        assert stats.prefix_blocks_evicted > 0
        assert scheduler.kv_cache.num_used_blocks == scheduler.prefix_cache.num_blocks

    def test_cached_prefix_tokens_recorded_per_request(self, engine):
        trace = rag_trace(20, 10.0, template_tokens=512, num_templates=1, seed=2)
        stats = ContinuousBatchingScheduler(engine, prefix_caching=True).run(trace)
        cached = [r.cached_prefix_tokens for r in stats.requests]
        assert sum(cached) == stats.prefix_saved_tokens
        hits = [c for c in cached if c > 0]
        assert hits and all(c % 16 == 0 for c in cached)  # block-granular
        assert all(c <= 512 for c in cached)              # never beyond the template


def tenant_mix_cluster(engine):
    """Four colocated replicas behind the cache-affinity router, 2 GiB KV pools."""
    return ServingCluster(
        spec=ClusterSpec(mode="colocated", num_replicas=4, router="cache-affinity"),
        kv_budget_bytes=2 * 2**30,
        preemption_policy="hybrid",
        prefix_caching=True,
        engine=engine,
    )


def test_cluster_run_builds_each_block_key_once_and_binary_searches(engine, monkeypatch):
    """One key table serves every replica of a run and each new stream resumes from its
    longest segment prefix already walked, so each distinct block key is built once (a
    walk from every stream's first segment built 2,245 here).  The router's probes
    binary-search the prefix-closed trie: at most ceil(log2(n + 1)) lookups for an
    n-block chain (a node-by-node walk made 4,267).  The simulated outcome is unchanged."""
    built = []
    probe = {"on": False, "lookups": 0, "bound": 0}

    class CountingKeys(dict):
        def setdefault(self, link, key):
            if link[0] is not None:  # a block's key, not a group's root
                built.append(link)
            return super().setdefault(link, key)

    class CountingNodes(dict):
        def _count(self):
            if probe["on"]:
                probe["lookups"] += 1

        def __contains__(self, key):
            self._count()
            return super().__contains__(key)

        def __getitem__(self, key):
            self._count()
            return super().__getitem__(key)

        def get(self, key, default=None):
            self._count()
            return super().get(key, default)

    table_init, cache_init = PrefixKeyTable.__init__, PrefixCache.__init__
    match_tokens = PrefixCache.match_tokens

    def counting_table_init(self, block_tokens):
        table_init(self, block_tokens)
        self._keys = CountingKeys()

    def counting_cache_init(self, kv_cache, keys=None):
        cache_init(self, kv_cache, keys)
        self._nodes = CountingNodes()

    def counting_match_tokens(self, request, max_tokens):
        block_tokens = self.kv_cache.config.block_tokens
        n = len(list(block_contents(request.prefix_segments, block_tokens,
                                    max_tokens // block_tokens)))
        probe["bound"] += n.bit_length()  # ceil(log2(n + 1))
        probe["on"] = True
        try:
            return match_tokens(self, request, max_tokens)
        finally:
            probe["on"] = False

    monkeypatch.setattr(PrefixKeyTable, "__init__", counting_table_init)
    monkeypatch.setattr(PrefixCache, "__init__", counting_cache_init)
    monkeypatch.setattr(PrefixCache, "match_tokens", counting_match_tokens)
    result = tenant_mix_cluster(engine).run(tenant_mix_trace(30, 3.0, seed=0))
    assert len(built) == len(set(built)) == 780
    assert probe["bound"] == 2160
    assert probe["lookups"] <= probe["bound"]
    # Goldens recorded from the per-replica walk: sharing the table moves no number.
    assert result.simulated_time_s == 40.361296461177126
    assert result.generated_tokens == 14221
    assert [
        (s.num_iterations, s.prefix_cache_hits, s.prefix_blocks_inserted,
         s.prefix_blocks_evicted)
        for s in result.replica_stats
    ] == [(6121, 52, 598, 111), (1822, 12, 128, 0), (1151, 11, 64, 0), (0, 0, 0, 0)]


#: Prefix streams that cannot key the shared table: a list of segments, a list segment,
#: and an unhashable group.
UNHASHABLE_STREAMS = [
    (0, [(0, 64)]),
    (0, ((0, 32), [1, 32])),
    ([0], ((0, 64),)),
]

#: Hashable prefix streams whose segments are not ``(id, tokens)`` pairs with an integer
#: token count: a fractional count, a 1-item and a 3-item segment, a string count, one
#: pair missing its enclosing tuple, and segments that are not a tuple.
MALFORMED_STREAMS = [
    (0, ((0, 64.5),)),
    (0, ((0,),)),
    (0, ((0, 64, 1),)),
    (0, ((0, "64"),)),
    (0, (0, 64)),
    (0, "ab"),
]


def rejected_request(request_id, stream):
    group, segments = stream
    request = Request(request_id, prompt_tokens=80, output_tokens=8,
                      prefix_group=group, prefix_segments=segments)
    request.generated = 3  # scheduler-owned: a reset on entry would zero it
    return request


class _RejectedAtEveryEntryPoint:
    """Each entry point names the request and raises before any state changes."""

    #: Pattern of the error message after the request's name.
    reason = ""

    def test_scheduler_run(self, engine, stream):
        scheduler = ContinuousBatchingScheduler(engine, prefix_caching=True)
        trace = rag_trace(4, 10.0, template_tokens=64, num_templates=1, seed=0)
        before = scheduler.run(trace)
        bad = rejected_request(99, stream)
        with pytest.raises(ValueError, match=f"request 99: .*{self.reason}"):
            scheduler.run(trace + [bad])
        after = scheduler.stats()
        assert after.completed_requests == before.completed_requests == len(trace)
        assert after.simulated_time_s == before.simulated_time_s
        assert bad.generated == 3

    def test_scheduler_submit(self, engine, stream):
        scheduler = ContinuousBatchingScheduler(engine, prefix_caching=True)
        scheduler.submit(shared_request(0))
        bad = rejected_request(99, stream)
        with pytest.raises(ValueError, match=f"request 99: .*{self.reason}"):
            scheduler.submit(bad)
        assert scheduler.queue_depth == 1
        assert scheduler.outstanding_tokens == shared_request(0).remaining_tokens()
        assert bad.generated == 3

    def test_cluster_run(self, engine, stream):
        cluster = ServingCluster(
            spec=ClusterSpec(mode="colocated", num_replicas=2, router="cache-affinity"),
            prefix_caching=True,
            engine=engine,
        )
        trace = rag_trace(4, 10.0, template_tokens=64, num_templates=1, seed=0)
        cluster.run(trace)
        before = [r.scheduler.stats() for r in cluster.replicas]
        bad = rejected_request(99, stream)
        with pytest.raises(ValueError, match=f"request 99: .*{self.reason}"):
            cluster.run(trace + [bad])
        after = [r.scheduler.stats() for r in cluster.replicas]
        assert [s.completed_requests for s in after] == [s.completed_requests for s in before]
        assert [s.simulated_time_s for s in after] == [s.simulated_time_s for s in before]
        assert sum(s.completed_requests for s in after) == len(trace)
        assert bad.generated == 3


class TestUnhashableStreamsRejected(_RejectedAtEveryEntryPoint):
    reason = "hashable"

    @pytest.fixture(params=UNHASHABLE_STREAMS)
    def stream(self, request):
        return request.param


class TestMalformedSegmentsRejected(_RejectedAtEveryEntryPoint):
    """The key table's block arithmetic needs each segment to be an ``(id, tokens)`` pair
    with an integer count >= 1.  Regression: a fractional count was served (a 3-request
    run with ``((0, 64.5),)`` reported 2 hits and 128 cached tokens)."""

    reason = "prefix segment"

    @pytest.fixture(params=MALFORMED_STREAMS)
    def stream(self, request):
        return request.param


class TestSwapVictimSelection:
    """Regression: swap-leaning preemption must steer around shared-block residents."""

    def _pressured_scheduler(self, engine, policy):
        scheduler = ContinuousBatchingScheduler(
            engine, prefix_caching=True, preemption_policy=policy,
            max_batched_tokens=512, prefill_chunk_tokens=128,
        )
        scheduler.kv_cache = PagedKvCache(make_config(budget_mb=256, host_budget_mb=256))
        return scheduler

    @pytest.mark.parametrize("policy", ["swap", "hybrid"])
    def test_no_crash_with_shared_blocks(self, engine, policy):
        """Before the fix, picking a cache-seeded victim could aim swap_out at shared
        blocks; the run must complete without a ValueError escaping."""
        trace = agent_swarm_trace(
            2, 4, 2, 8.0, base_context_tokens=512, step_tokens=128,
            scratch_lengths=SHORT, output_lengths=SHORT, seed=13,
        )
        stats = self._pressured_scheduler(engine, policy).run(trace)
        assert stats.completed_requests == len(trace)

    def test_unshared_victim_preferred(self, engine):
        scheduler = ContinuousBatchingScheduler(engine, preemption_policy="swap")
        scheduler.kv_cache = PagedKvCache(make_config(host_budget_mb=64))
        scheduler.begin()
        unshared = Request(0, prompt_tokens=64, output_tokens=32)
        shared = Request(1, prompt_tokens=64, output_tokens=32)
        scheduler.submit(unshared)
        scheduler.submit(shared)
        while not scheduler._running or scheduler._prefilling:
            scheduler.step()
        # Fork the later arrival's blocks (a prefix-cache seed does exactly this).
        scheduler.kv_cache.fork_from_blocks(99, scheduler.kv_cache.sequence(1).blocks)
        # FCFS alone would evict the latest arrival — the shared one; the swap-aware
        # filter must steer to the unshared resident instead.
        assert scheduler._pick_victim() is unshared
        scheduler.kv_cache.free_sequence(99)
        assert scheduler._pick_victim() is shared

    def test_all_shared_degrades_to_recompute(self, engine):
        """With every resident sharing blocks, swap preemption must fall back to
        recompute rather than raise out of swap_out."""

        class AlwaysSwap(PreemptionPolicy):
            name = "always-swap"
            prefers_swap = True

            def decide(self, victim, engine, kv_cache):
                return self.SWAP

        scheduler = ContinuousBatchingScheduler(
            engine, preemption_policy=AlwaysSwap()
        )
        scheduler.kv_cache = PagedKvCache(make_config(host_budget_mb=64))
        scheduler.begin()
        resident = Request(0, prompt_tokens=64, output_tokens=32)
        scheduler.submit(resident)
        while not scheduler._running:
            scheduler.step()
        scheduler.kv_cache.fork_from_blocks(99, scheduler.kv_cache.sequence(0).blocks)
        assert scheduler._preempt_one()
        stats = scheduler.stats()
        assert stats.recompute_preemptions == 1
        assert stats.swap_preemptions == 0


class TestSharedPrefixTraces:
    def test_generate_trace_shared_prefix(self):
        args = (20, ArrivalProcess(rate_rps=5.0), SHAREGPT_PROMPTS, SHAREGPT_OUTPUTS)
        trace = generate_trace(*args, seed=0, shared_prefix_tokens=128)
        assert all(r.prefix_segments == ((0, 128),) for r in trace)
        assert all(r.prompt_tokens > 128 for r in trace)
        baseline = generate_trace(*args, seed=0)
        # The shared-prefix variant must not perturb the RNG draw order.
        assert [r.arrival_time_s for r in trace] == [r.arrival_time_s for r in baseline]
        assert all(r.prefix_segments == () for r in baseline)

    @pytest.mark.parametrize("maker", [
        lambda: multi_turn_chat_trace(3, 4, 5.0, seed=1),
        lambda: rag_trace(24, 5.0, seed=1),
        lambda: agent_swarm_trace(2, 3, 3, 2.0, seed=1),
        lambda: tenant_mix_trace(12, 6.0, seed=1),
    ])
    def test_generator_sanity(self, maker):
        trace = maker()
        assert trace
        arrivals = [r.arrival_time_s for r in trace]
        assert arrivals == sorted(arrivals)
        ids = [r.request_id for r in trace]
        assert len(set(ids)) == len(ids)
        for r in trace:
            assert r.prompt_tokens >= 1 and r.output_tokens >= 1
            assert r.shareable_prefix_tokens <= r.prompt_tokens
            assert all(tokens >= 1 for _, tokens in r.prefix_segments)

    def test_chat_turns_extend_history(self):
        trace = multi_turn_chat_trace(1, 3, 5.0, seed=0)
        by_turn = sorted(trace, key=lambda r: r.request_id)
        for earlier, later in zip(by_turn, by_turn[1:]):
            assert later.prefix_segments[: len(earlier.prefix_segments)] == \
                earlier.prefix_segments
        assert all(r.prefix_segments[0] == (0, 512) for r in by_turn)

    def test_tenant_mix_isolates_groups_and_priorities(self):
        trace = tenant_mix_trace(10, 5.0, num_tenants=3, seed=0)
        groups = {r.prefix_group for r in trace}
        assert groups == {0, 1, 2}
        for r in trace:
            assert r.priority == r.prefix_group  # default: priority = tenant index

    def test_merge_traces_preserves_prefix_identity(self):
        """Regression: renumbering must not detach requests from their prefix groups."""
        a = rag_trace(8, 5.0, seed=0, prefix_group=7)
        b = multi_turn_chat_trace(2, 2, 5.0, seed=1, prefix_group=9)
        merged = merge_traces(a, b)
        assert [r.request_id for r in merged] == list(range(len(merged)))
        assert {r.prefix_group for r in merged} == {7, 9}
        by_group = {g: [r for r in merged if r.prefix_group == g] for g in (7, 9)}
        originals = {7: a, 9: b}
        for group, requests in by_group.items():
            assert sorted(r.prefix_segments for r in requests) == \
                sorted(r.prefix_segments for r in originals[group])
        # The un-renumbered path returns the original objects untouched.
        c = rag_trace(4, 5.0, seed=2, start_id=1000, prefix_group=1)
        kept = merge_traces(a, c, reassign_ids=False)
        assert set(kept) == set(a) | set(c)


class TestCacheAffinityRouting:
    def test_cluster_with_cache_affinity_router(self, engine):
        trace = rag_trace(40, 20.0, template_tokens=512, num_templates=2, seed=4)
        cluster = ServingCluster(
            spec=ClusterSpec(mode="colocated", num_replicas=2, router="cache-affinity"),
            prefix_caching=True,
            engine=engine,
        )
        result = cluster.run(trace)
        assert result.completed_requests == len(trace)
        assert result.router == "cache-affinity"
        hits = sum(s.prefix_cache_hits for s in result.replica_stats)
        assert hits > 0
        assert result.slo_report().prefix_hit_rate > 0

    def test_affinity_beats_round_robin_on_hit_rate(self, engine):
        """Sticky placement should serve more requests from cache than spraying the
        same trace over the replicas blindly."""
        trace = rag_trace(60, 30.0, template_tokens=1024, num_templates=2, seed=8)

        def hit_rate(router):
            cluster = ServingCluster(
                spec=ClusterSpec(mode="colocated", num_replicas=2, router=router),
                prefix_caching=True,
                engine=engine,
            )
            return cluster.run(trace).slo_report().prefix_hit_rate

        assert hit_rate("cache-affinity") >= hit_rate("round-robin")
