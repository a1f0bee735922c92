"""Tests for the paged KV-cache allocator, including property-based allocator invariants."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.serving import (
    KvCacheConfig,
    KvCacheOutOfMemory,
    PagedKvCache,
    PrefixCache,
    Request,
    SequenceState,
    get_model,
)
from repro.serving.scheduler import _blocks_to_grow
from test_prefix_cache import reference_chain


def make_config(budget_mb=64, kv_format="int8", block_tokens=16, model="llama2-7b",
                host_budget_mb=0):
    return KvCacheConfig(
        model=get_model(model),
        kv_format=kv_format,
        block_tokens=block_tokens,
        memory_budget_bytes=budget_mb * 2**20,
        host_memory_budget_bytes=host_budget_mb * 2**20,
    )


class TestKvCacheConfig:
    def test_bytes_per_token_matches_model(self):
        cfg = make_config()
        assert cfg.bytes_per_token == pytest.approx(2 * 4096 * 32)

    def test_int4_halves_bytes(self):
        assert make_config(kv_format="int4").bytes_per_token == pytest.approx(
            make_config(kv_format="int8").bytes_per_token / 2
        )

    def test_blocks_for_tokens(self):
        cfg = make_config(block_tokens=16)
        assert cfg.blocks_for_tokens(1) == 1
        assert cfg.blocks_for_tokens(16) == 1
        assert cfg.blocks_for_tokens(17) == 2

    def test_total_blocks(self):
        cfg = make_config(budget_mb=64)
        assert cfg.total_blocks == (64 * 2**20) // cfg.bytes_per_block


class TestPagedKvCache:
    def test_requires_budget(self):
        with pytest.raises(ValueError):
            PagedKvCache(make_config(budget_mb=0))

    def test_add_and_free_sequence(self):
        cache = PagedKvCache(make_config())
        state = cache.add_sequence(1, prompt_tokens=100)
        assert state.num_blocks == math.ceil(100 / 16)
        assert cache.num_used_blocks == state.num_blocks
        freed = cache.free_sequence(1)
        assert freed == state.num_blocks
        assert cache.num_used_blocks == 0

    def test_duplicate_sequence_rejected(self):
        cache = PagedKvCache(make_config())
        cache.add_sequence(1, 10)
        with pytest.raises(ValueError):
            cache.add_sequence(1, 10)

    def test_append_allocates_new_block_on_boundary(self):
        cache = PagedKvCache(make_config(block_tokens=16))
        cache.add_sequence(1, 16)
        assert cache.sequence(1).num_blocks == 1
        cache.append_token(1)
        assert cache.sequence(1).num_blocks == 2

    def test_oom_on_admission(self):
        cfg = make_config(budget_mb=8)
        cache = PagedKvCache(cfg)
        too_big = (cfg.total_blocks + 1) * cfg.block_tokens
        with pytest.raises(KvCacheOutOfMemory):
            cache.add_sequence(1, too_big)

    def test_oom_on_append(self):
        cfg = make_config(budget_mb=1, block_tokens=16)
        cache = PagedKvCache(cfg)
        cache.add_sequence(1, cfg.total_blocks * 16)  # exactly fills the pool
        with pytest.raises(KvCacheOutOfMemory):
            cache.append_token(1)

    def test_unknown_sequence(self):
        cache = PagedKvCache(make_config())
        with pytest.raises(KeyError):
            cache.append_token(42)
        with pytest.raises(KeyError):
            cache.free_sequence(42)

    def test_can_admit(self):
        cfg = make_config(budget_mb=8)
        cache = PagedKvCache(cfg)
        assert cache.can_admit(16)
        assert not cache.can_admit((cfg.total_blocks + 1) * 16)

    def test_max_batch_size(self):
        cfg = make_config(budget_mb=512)
        per_seq_blocks = cfg.blocks_for_tokens(1536)
        assert PagedKvCache.max_batch_size(cfg, 1536) == cfg.total_blocks // per_seq_blocks

    def test_utilization_range(self):
        cache = PagedKvCache(make_config())
        assert cache.utilization() == 0.0
        cache.add_sequence(1, 100)
        assert 0.0 < cache.utilization() <= 1.0

    def test_extend_sequence_chunked(self):
        cache = PagedKvCache(make_config(block_tokens=16))
        cache.add_sequence(1, 0)
        cache.extend_sequence(1, 100)
        assert cache.sequence(1).num_tokens == 100
        assert cache.sequence(1).num_blocks == math.ceil(100 / 16)
        cache.extend_sequence(1, 0)  # no-op growth is legal
        assert cache.sequence(1).num_tokens == 100

    def test_extend_sequence_all_or_nothing_on_oom(self):
        cfg = make_config(budget_mb=8, block_tokens=16)
        cache = PagedKvCache(cfg)
        cache.add_sequence(1, (cfg.total_blocks - 1) * 16)
        free_before = cache.num_free_blocks
        with pytest.raises(KvCacheOutOfMemory):
            cache.extend_sequence(1, 64)  # needs more than the 1 free block
        assert cache.num_free_blocks == free_before
        assert cache.sequence(1).num_tokens == (cfg.total_blocks - 1) * 16

    def test_tp_shard_shrinks_bytes_per_token(self):
        full = make_config(model="llama2-70b")
        shard = KvCacheConfig(
            model=get_model("llama2-70b"), kv_format="int8",
            memory_budget_bytes=64 * 2**20, tp_degree=4,
        )
        assert shard.bytes_per_token == pytest.approx(full.bytes_per_token / 4)


class _PerBlockSwapCache(PagedKvCache):
    """Reference allocator: admissions and swaps claim and release one block at a time.
    The allocator's slice-at-a-time paths must leave identical pools."""

    def _claim_blocks(self, count: int) -> list:
        blocks = []
        for _ in range(count):
            block = self._free_blocks.pop()
            self._ref_counts[block] = 1
            blocks.append(block)
        return blocks

    def swap_out(self, seq_id: int) -> int:
        state = self._sequences.pop(seq_id)
        host_blocks = [self._free_host_blocks.pop() for _ in state.blocks]
        for block in state.blocks:
            self._release_block(block)
        self._swapped[seq_id] = SequenceState(seq_id, state.num_tokens, host_blocks)
        return len(host_blocks) * self.config.bytes_per_block

    def swap_in(self, seq_id: int) -> int:
        state = self._swapped.pop(seq_id)
        device_blocks = self._claim_blocks(len(state.blocks))
        self._free_host_blocks.extend(state.blocks)
        self._sequences[seq_id] = SequenceState(seq_id, state.num_tokens, device_blocks)
        return len(device_blocks) * self.config.bytes_per_block


def _pools(cache: PagedKvCache) -> tuple:
    """Every block id the allocator holds, in order: free lists, per-sequence lists,
    swapped lists and reference counts."""
    return (
        list(cache._free_blocks),
        list(cache._free_host_blocks),
        {i: list(s.blocks) for i, s in cache._sequences.items()},
        {i: list(s.blocks) for i, s in cache._swapped.items()},
        list(cache._ref_counts.items()),
    )


class TestHostSwap:
    def test_swap_out_moves_blocks_to_host(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        state = cache.add_sequence(1, 100)
        held = state.num_blocks
        moved = cache.swap_out(1)
        assert moved == held * cache.config.bytes_per_block
        assert cache.num_used_blocks == 0
        assert cache.num_used_host_blocks == held
        assert cache.is_swapped(1)
        assert cache.num_swapped_sequences == 1
        assert cache.swapped_sequence(1).num_tokens == 100
        with pytest.raises(KeyError):
            cache.sequence(1)

    def test_swap_round_trip_restores_sequence(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        cache.add_sequence(1, 100)
        cache.swap_out(1)
        moved = cache.swap_in(1)
        assert moved == cache.sequence(1).num_blocks * cache.config.bytes_per_block
        assert cache.sequence(1).num_tokens == 100
        assert not cache.is_swapped(1)
        assert cache.num_used_host_blocks == 0
        cache.append_token(1)  # the restored sequence is fully usable
        assert cache.sequence(1).num_tokens == 101

    def test_swap_out_oom_when_host_pool_too_small(self):
        cfg = make_config(budget_mb=64, host_budget_mb=0)
        cache = PagedKvCache(cfg)
        cache.add_sequence(1, 100)
        assert not cache.can_swap_out(1)
        with pytest.raises(KvCacheOutOfMemory):
            cache.swap_out(1)
        assert cache.sequence(1).num_tokens == 100  # unchanged on failure

    def test_swap_in_oom_when_device_full(self):
        cfg = make_config(budget_mb=8, host_budget_mb=64, block_tokens=16)
        cache = PagedKvCache(cfg)
        cache.add_sequence(1, 32)
        cache.swap_out(1)
        cache.add_sequence(2, cfg.total_blocks * 16)  # refill the device pool
        assert not cache.can_swap_in(1)
        with pytest.raises(KvCacheOutOfMemory):
            cache.swap_in(1)
        assert cache.is_swapped(1)  # unchanged on failure
        cache.free_sequence(2)
        cache.swap_in(1)
        assert cache.sequence(1).num_tokens == 32

    def test_free_swapped_sequence_releases_host_blocks(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        cache.add_sequence(1, 100)
        held = cache.sequence(1).num_blocks
        cache.swap_out(1)
        assert cache.free_sequence(1) == held
        assert cache.num_used_host_blocks == 0
        assert cache.num_swapped_sequences == 0

    def test_swapped_id_cannot_be_readded(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        cache.add_sequence(1, 16)
        cache.swap_out(1)
        with pytest.raises(ValueError):
            cache.add_sequence(1, 16)

    def test_unknown_sequence_swap_errors(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        with pytest.raises(KeyError):
            cache.swap_out(42)
        with pytest.raises(KeyError):
            cache.swap_in(42)
        assert not cache.can_swap_out(42)
        assert not cache.can_swap_in(42)

    def test_host_utilization_range(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        assert cache.host_utilization() == 0.0
        cache.add_sequence(1, 100)
        cache.swap_out(1)
        assert 0.0 < cache.host_utilization() <= 1.0
        # No host pool configured -> utilization is defined as 0.
        assert PagedKvCache(make_config(host_budget_mb=0)).host_utilization() == 0.0

    @given(
        ops=st.lists(
            st.tuples(
                # Swaps weighted up: a run must admit a sequence before it can swap it.
                st.sampled_from(["add", "add", "grow", "out", "out", "in", "in", "free"]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=64),
            ),
            max_size=40,
        )
    )
    @example(ops=[("add", 1, 40), ("add", 2, 20), ("out", 1, 0), ("add", 3, 50),
                  ("out", 2, 0), ("in", 1, 0), ("out", 3, 0), ("in", 2, 0)])
    @settings(max_examples=100, deadline=None)
    def test_property_bulk_swap_matches_per_block_order(self, ops):
        """Any run of admissions, growth, swaps and frees leaves the bulk allocator's
        block ids, free lists and reference counts equal to the per-block reference's."""
        cache = PagedKvCache(make_config(budget_mb=64, host_budget_mb=64))
        reference = _PerBlockSwapCache(make_config(budget_mb=64, host_budget_mb=64))
        for op, seq_id, tokens in ops:
            resident = seq_id in cache._sequences
            swapped = cache.is_swapped(seq_id)
            if op == "add" and not resident and not swapped and cache.can_admit(tokens):
                call = ("add_sequence", seq_id, tokens)
            elif op == "grow" and resident and (
                _blocks_to_grow(cache.sequence(seq_id), tokens, cache.config.block_tokens)
                <= cache.num_free_blocks
            ):
                call = ("extend_sequence", seq_id, tokens)
            elif op == "out" and cache.can_swap_out(seq_id):
                call = ("swap_out", seq_id)
            elif op == "in" and cache.can_swap_in(seq_id):
                call = ("swap_in", seq_id)
            elif op == "free" and (resident or swapped):
                call = ("free_sequence", seq_id)
            else:
                continue
            name, *args = call
            assert getattr(cache, name)(*args) == getattr(reference, name)(*args)
            assert _pools(cache) == _pools(reference)

    @given(
        prompts=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        swap_mask=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_swap_round_trip_preserves_state(self, prompts, swap_mask):
        """Swapping any subset out and back leaves every sequence and both pools intact."""
        # 16 device + 16 host blocks; each sequence needs at most 2 blocks, so 8 always fit.
        cache = PagedKvCache(make_config(budget_mb=64, host_budget_mb=64))
        for seq_id, prompt in enumerate(prompts):
            cache.add_sequence(seq_id, prompt)
        blocks_before = {i: cache.sequence(i).num_blocks for i in range(len(prompts))}
        used_before = cache.num_used_blocks
        swapped = [i for i in range(len(prompts)) if swap_mask[i] and cache.can_swap_out(i)]
        for seq_id in swapped:
            cache.swap_out(seq_id)
        assert cache.num_used_host_blocks == sum(blocks_before[i] for i in swapped)
        for seq_id in swapped:
            assert cache.swap_in(seq_id)  # bytes moved is positive for non-empty seqs
        assert cache.num_used_blocks == used_before
        assert cache.num_used_host_blocks == 0
        for seq_id, prompt in enumerate(prompts):
            assert cache.sequence(seq_id).num_tokens == prompt
            assert cache.sequence(seq_id).num_blocks == blocks_before[seq_id]
        for seq_id in range(len(prompts)):
            cache.free_sequence(seq_id)
        assert cache.num_used_blocks == 0 and cache.num_used_host_blocks == 0


class TestCopyOnFork:
    def test_fork_shares_blocks(self):
        cache = PagedKvCache(make_config())
        parent = cache.add_sequence(1, 100)
        child = cache.fork_sequence(1, 2)
        assert child.num_tokens == 100
        assert child.blocks == parent.blocks
        # Sharing is free: no new physical blocks were allocated.
        assert cache.num_used_blocks == parent.num_blocks

    def test_free_parent_keeps_child_blocks_alive(self):
        cache = PagedKvCache(make_config())
        cache.add_sequence(1, 100)
        cache.fork_sequence(1, 2)
        assert cache.free_sequence(1) == 0  # every block still referenced by the child
        held = cache.sequence(2).num_blocks
        assert cache.num_used_blocks == held
        assert cache.free_sequence(2) == held
        assert cache.num_used_blocks == 0

    def test_append_to_fork_copies_shared_tail(self):
        cache = PagedKvCache(make_config(block_tokens=16))
        parent = cache.add_sequence(1, 24)  # 2 blocks, tail half full
        child = cache.fork_sequence(1, 2)
        used_before = cache.num_used_blocks
        cache.append_token(2)
        # The shared partial tail was copied before the write (copy-on-write).
        assert cache.sequence(2).blocks[-1] != parent.blocks[-1]
        assert cache.sequence(2).blocks[0] == parent.blocks[0]
        assert cache.num_used_blocks == used_before + 1
        assert parent.num_tokens == 24  # parent untouched
        assert child.num_tokens == 25

    def test_append_to_fork_with_full_tail_shares_prefix(self):
        cache = PagedKvCache(make_config(block_tokens=16))
        parent = cache.add_sequence(1, 32)  # 2 full blocks
        cache.fork_sequence(1, 2)
        cache.append_token(2)
        # No copy needed: the new token opens a fresh block, the full prefix stays shared.
        assert cache.sequence(2).blocks[:2] == parent.blocks
        assert cache.sequence(2).num_blocks == 3

    def test_cow_is_all_or_nothing_on_oom(self):
        cfg = make_config(budget_mb=8, block_tokens=16)
        cache = PagedKvCache(cfg)
        cache.add_sequence(1, cfg.total_blocks * 16 - 8)  # fills the pool, tail half full
        cache.fork_sequence(1, 2)
        with pytest.raises(KvCacheOutOfMemory):
            cache.append_token(2)  # needs a CoW block and the pool is empty
        assert cache.sequence(2).num_tokens == cfg.total_blocks * 16 - 8
        assert cache.sequence(2).blocks == cache.sequence(1).blocks

    def test_fork_validation(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        cache.add_sequence(1, 16)
        with pytest.raises(KeyError):
            cache.fork_sequence(42, 2)
        with pytest.raises(ValueError):
            cache.fork_sequence(1, 1)
        cache.swap_out(1)
        with pytest.raises(KeyError):
            cache.fork_sequence(1, 2)  # swapped-out parents cannot fork

    def test_forked_sequence_cannot_swap(self):
        cache = PagedKvCache(make_config(host_budget_mb=64))
        cache.add_sequence(1, 100)
        cache.fork_sequence(1, 2)
        assert not cache.can_swap_out(1)
        with pytest.raises(ValueError):
            cache.swap_out(1)

    def test_shared_block_count_follows_forks_seeds_and_frees(self):
        cache = PagedKvCache(make_config(block_tokens=16, host_budget_mb=64))
        cache.add_sequence(1, 64)  # 4 full blocks
        assert cache._shared_blocks == 0 and not cache.shares_blocks(1)
        cache.fork_sequence(1, 2)
        assert cache._shared_blocks == 4
        assert cache.shares_blocks(1) and cache.shares_blocks(2)
        # A prefix seed over already-shared blocks shares no new block; a cache-style
        # extra reference on an unshared one does.
        cache.fork_from_blocks(3, cache.sequence(1).blocks[:2])
        cache.add_sequence(4, 16)
        cache.retain_block(cache.sequence(4).blocks[0])
        assert cache._shared_blocks == 5
        assert cache.shares_blocks(3) and cache.shares_blocks(4)
        cache.free_sequence(2)
        assert cache._shared_blocks == 3  # seq 3 still shares seq 1's first two
        assert cache.shares_blocks(1) and not cache.can_swap_out(1)
        with pytest.raises(ValueError):
            cache.swap_out(1)
        cache.free_sequence(3)
        cache.free_sequence(4)  # the retained block survives with one holder
        assert cache._shared_blocks == 0
        assert not cache.shares_blocks(1) and cache.can_swap_out(1)
        cache.free_sequence(1)
        assert cache.num_used_blocks == 1 and cache._shared_blocks == 0

    def test_truncate_releases_blocks(self):
        cache = PagedKvCache(make_config(block_tokens=16))
        cache.add_sequence(1, 100)
        cache.truncate_sequence(1, 33)
        assert cache.sequence(1).num_tokens == 33
        assert cache.sequence(1).num_blocks == 3
        cache.truncate_sequence(1, 0)
        assert cache.sequence(1).num_blocks == 0
        with pytest.raises(ValueError):
            cache.truncate_sequence(1, 1)  # cannot grow via truncate
        with pytest.raises(KeyError):
            cache.truncate_sequence(42, 0)


class KvCacheMachine(RuleBasedStateMachine):
    """Stateful property test: the allocator never double-books or leaks blocks."""

    def __init__(self):
        super().__init__()
        self.config = make_config(budget_mb=16, block_tokens=16)
        self.cache = PagedKvCache(self.config)
        self.model_tokens = {}
        self.next_id = 0

    @rule(prompt=st.integers(min_value=0, max_value=600))
    def add(self, prompt):
        seq_id = self.next_id
        self.next_id += 1
        try:
            self.cache.add_sequence(seq_id, prompt)
        except KvCacheOutOfMemory:
            assert self.config.blocks_for_tokens(prompt) > self.cache.num_free_blocks
        else:
            self.model_tokens[seq_id] = prompt

    @precondition(lambda self: self.model_tokens)
    @rule(data=st.data())
    def append(self, data):
        seq_id = data.draw(st.sampled_from(sorted(self.model_tokens)))
        try:
            self.cache.append_token(seq_id)
        except KvCacheOutOfMemory:
            assert self.cache.num_free_blocks == 0
        else:
            self.model_tokens[seq_id] += 1

    @precondition(lambda self: self.model_tokens)
    @rule(data=st.data(), chunk=st.integers(min_value=0, max_value=300))
    def extend(self, data, chunk):
        """Chunked-prefill growth: extend by a whole chunk, all-or-nothing."""
        seq_id = data.draw(st.sampled_from(sorted(self.model_tokens)))
        tokens = self.model_tokens[seq_id]
        needed = (self.config.blocks_for_tokens(tokens + chunk)
                  - self.config.blocks_for_tokens(tokens))
        try:
            self.cache.extend_sequence(seq_id, chunk)
        except KvCacheOutOfMemory:
            assert needed > self.cache.num_free_blocks
        else:
            assert needed <= self.cache.config.total_blocks
            self.model_tokens[seq_id] += chunk

    @precondition(lambda self: self.model_tokens)
    @rule(data=st.data())
    def free(self, data):
        """Every block a sequence held must come back to the pool on free."""
        seq_id = data.draw(st.sampled_from(sorted(self.model_tokens)))
        held = self.cache.sequence(seq_id).num_blocks
        free_before = self.cache.num_free_blocks
        returned = self.cache.free_sequence(seq_id)
        assert returned == held
        assert self.cache.num_free_blocks == free_before + held
        del self.model_tokens[seq_id]

    @invariant()
    def block_accounting_consistent(self):
        used = sum(self.cache.sequence(s).num_blocks for s in self.model_tokens)
        assert used == self.cache.num_used_blocks
        assert used + self.cache.num_free_blocks == self.config.total_blocks

    @invariant()
    def blocks_match_token_counts(self):
        for seq_id, tokens in self.model_tokens.items():
            state = self.cache.sequence(seq_id)
            assert state.num_tokens == tokens
            assert state.num_blocks == self.config.blocks_for_tokens(tokens) if tokens else True

    @invariant()
    def no_block_shared_between_sequences(self):
        seen = set()
        for seq_id in self.model_tokens:
            for block in self.cache.sequence(seq_id).blocks:
                assert block not in seen
                seen.add(block)

    @invariant()
    def free_list_disjoint_from_used_and_duplicate_free(self):
        free = self.cache._free_blocks
        free_set = set(free)
        assert len(free_set) == len(free)  # no block listed free twice
        used = {block for seq_id in self.model_tokens
                for block in self.cache.sequence(seq_id).blocks}
        assert not (free_set & used)  # a block is never free and allocated at once
        assert free_set | used == set(range(self.config.total_blocks))


TestKvCacheStateMachine = KvCacheMachine.TestCase


class KvForkSwapMachine(RuleBasedStateMachine):
    """Stateful property test over the full API: fork/CoW, swap, truncate interleavings.

    Unlike :class:`KvCacheMachine` (which asserts the stricter unshared-blocks invariants
    of the plain workload), this machine models reference counting explicitly: a device
    block's refcount must always equal the number of resident sequences holding it, both
    pools must conserve blocks, and a swapped sequence must round-trip intact.
    """

    def __init__(self):
        super().__init__()
        self.config = make_config(budget_mb=64, block_tokens=16, host_budget_mb=32)
        self.cache = PagedKvCache(self.config)
        self.resident = {}   # seq_id -> tokens (device)
        self.swapped = {}    # seq_id -> tokens (host)
        self.next_id = 0

    def _any_shared(self, seq_id):
        blocks = set(self.cache.sequence(seq_id).blocks)
        return any(
            blocks & set(self.cache.sequence(other).blocks)
            for other in self.resident if other != seq_id
        )

    @rule(prompt=st.integers(min_value=0, max_value=120))
    def add(self, prompt):
        seq_id = self.next_id
        self.next_id += 1
        try:
            self.cache.add_sequence(seq_id, prompt)
        except KvCacheOutOfMemory:
            assert self.config.blocks_for_tokens(prompt) > self.cache.num_free_blocks
        else:
            self.resident[seq_id] = prompt

    @precondition(lambda self: self.resident)
    @rule(data=st.data(), chunk=st.integers(min_value=0, max_value=60))
    def extend(self, data, chunk):
        seq_id = data.draw(st.sampled_from(sorted(self.resident)))
        tokens_before = self.cache.sequence(seq_id).num_tokens
        try:
            self.cache.extend_sequence(seq_id, chunk)
        except KvCacheOutOfMemory:
            # All-or-nothing: nothing changed (CoW may have demanded one extra block).
            assert self.cache.sequence(seq_id).num_tokens == tokens_before
        else:
            self.resident[seq_id] += chunk

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def fork(self, data):
        parent = data.draw(st.sampled_from(sorted(self.resident)))
        child = self.next_id
        self.next_id += 1
        used_before = self.cache.num_used_blocks
        self.cache.fork_sequence(parent, child)
        assert self.cache.num_used_blocks == used_before  # sharing allocates nothing
        self.resident[child] = self.resident[parent]

    @precondition(lambda self: self.resident)
    @rule(data=st.data(), keep_fraction=st.floats(min_value=0.0, max_value=1.0))
    def truncate(self, data, keep_fraction):
        seq_id = data.draw(st.sampled_from(sorted(self.resident)))
        keep = int(self.resident[seq_id] * keep_fraction)
        self.cache.truncate_sequence(seq_id, keep)
        self.resident[seq_id] = keep

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def swap_out(self, data):
        seq_id = data.draw(st.sampled_from(sorted(self.resident)))
        shared = self._any_shared(seq_id)
        blocks = self.cache.sequence(seq_id).num_blocks
        if not self.cache.can_swap_out(seq_id):
            assert shared or blocks > self.cache.num_free_host_blocks
            return
        moved = self.cache.swap_out(seq_id)
        assert moved == blocks * self.config.bytes_per_block
        self.swapped[seq_id] = self.resident.pop(seq_id)

    @precondition(lambda self: self.swapped)
    @rule(data=st.data())
    def swap_in(self, data):
        seq_id = data.draw(st.sampled_from(sorted(self.swapped)))
        blocks = self.cache.swapped_sequence(seq_id).num_blocks
        if not self.cache.can_swap_in(seq_id):
            assert blocks > self.cache.num_free_blocks
            return
        self.cache.swap_in(seq_id)
        tokens = self.swapped.pop(seq_id)
        self.resident[seq_id] = tokens
        assert self.cache.sequence(seq_id).num_tokens == tokens  # round-trip intact

    @precondition(lambda self: self.resident or self.swapped)
    @rule(data=st.data())
    def free(self, data):
        seq_id = data.draw(st.sampled_from(sorted(self.resident) + sorted(self.swapped)))
        self.cache.free_sequence(seq_id)
        self.resident.pop(seq_id, None)
        self.swapped.pop(seq_id, None)

    @invariant()
    def refcounts_match_resident_references(self):
        counts = {}
        for seq_id in self.resident:
            for block in self.cache.sequence(seq_id).blocks:
                counts[block] = counts.get(block, 0) + 1
        assert counts == self.cache._ref_counts

    @invariant()
    def shared_block_count_is_exact(self):
        # The count that lets shares_blocks / can_swap_out / swap_out skip their scans.
        assert self.cache._shared_blocks == sum(
            1 for count in self.cache._ref_counts.values() if count >= 2
        )

    @invariant()
    def both_pools_conserve_blocks(self):
        device_used = set()
        for seq_id in self.resident:
            device_used.update(self.cache.sequence(seq_id).blocks)
        assert len(device_used) == self.cache.num_used_blocks
        assert device_used | set(self.cache._free_blocks) == set(
            range(self.config.total_blocks)
        )
        host_used = []
        for seq_id in self.swapped:
            host_used.extend(self.cache.swapped_sequence(seq_id).blocks)
        assert len(host_used) == len(set(host_used)) == self.cache.num_used_host_blocks
        assert set(host_used) | set(self.cache._free_host_blocks) == set(
            range(self.config.total_host_blocks)
        )

    @invariant()
    def token_and_block_counts_consistent(self):
        for seq_id, tokens in self.resident.items():
            state = self.cache.sequence(seq_id)
            assert state.num_tokens == tokens
            assert state.num_blocks == self.config.blocks_for_tokens(tokens)
        for seq_id, tokens in self.swapped.items():
            state = self.cache.swapped_sequence(seq_id)
            assert state.num_tokens == tokens
            assert state.num_blocks == self.config.blocks_for_tokens(tokens)

    @invariant()
    def growth_needs_at_least_its_whole_blocks(self):
        """The scheduler's chunk block need of ``t`` tokens is at least ``t //
        block_tokens``: the per-prefill floor its fast-forward charges against a swap-in
        (it holds because every sequence keeps exactly ``ceil(tokens / block_tokens)``
        blocks)."""
        block_tokens = self.config.block_tokens
        for seq_id in self.resident:
            state = self.cache.sequence(seq_id)
            for tokens in (1, block_tokens - 1, block_tokens, 3 * block_tokens + 1):
                assert _blocks_to_grow(state, tokens, block_tokens) >= tokens // block_tokens


TestKvForkSwapStateMachine = KvForkSwapMachine.TestCase


#: Shareable prefix streams: 1-3 segments from a small alphabet of ids and lengths, the
#: lengths crossing 16-token block boundaries, so two streams often agree for a few blocks
#: and then diverge mid-block or mid-chain.
PREFIX_STREAMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1), st.sampled_from((6, 16, 26, 40))),
    min_size=1, max_size=3,
).map(tuple)


def _clip(segments, limit):
    """The leading ``limit`` tokens of a segment stream."""
    clipped = []
    for seg_id, tokens in segments:
        take = min(tokens, limit)
        if take <= 0:
            break
        clipped.append((seg_id, take))
        limit -= take
    return tuple(clipped)


class KvPrefixCacheMachine(KvForkSwapMachine):
    """Adds a prefix cache to the fork/swap machine: insert / hit / evict racing live growth.

    The cache holds one pool reference per published block, so the parent's refcount and
    conservation invariants are re-derived here to count cache nodes as holders.  The new
    rules pin the contracts the scheduler leans on: :meth:`PrefixCache.evict` returns
    exactly the blocks it put back in the free pool, :meth:`PrefixCache.can_free` holds
    exactly when eviction then frees a block and otherwise eviction leaves the trie
    untouched (the fast-forward parked proofs depend on that), and
    a cached block can never be freed out from under the trie by a live sequence's
    truncate/free/swap.  Every match is checked against a reference walk that recomputes
    block contents on each probe and interns them in a private dict, and the trie must
    stay prefix-closed.  Streams are drawn fresh or as extensions of streams already
    published, so publication and matches run on resumed key chains and binary searches
    reach deep into the trie.
    """

    def __init__(self):
        super().__init__()
        self.prefix = PrefixCache(self.cache)
        self.next_request = 0
        # Reference index: (parent ref key, block content) -> ref key, a group's root
        # under (None, group); and ref key -> the trie node published at that position.
        self.ref_keys = {}
        self.ref_nodes = {}
        self.published = []  # (group, segments) of every publication, in order

    def _request(self, segments, group):
        req = Request(
            self.next_request,
            prompt_tokens=sum(tokens for _, tokens in segments) + 8,
            output_tokens=4,
            prefix_group=group,
            prefix_segments=segments,
        )
        self.next_request += 1
        return req

    def _reference_chain(self, req, max_blocks):
        """Reference keys of the request's first ``max_blocks`` full blocks, recomputed
        from the stream's first segment on every call."""
        return reference_chain(self.ref_keys, req.prefix_group, req.prefix_segments,
                               self.config.block_tokens, max_blocks)

    def _stream(self, data, group, segments):
        """``(group, segments)`` as drawn, or ``segments`` appended to a published stream."""
        if self.published and data.draw(st.booleans(), label="extend a published stream"):
            group, head = data.draw(st.sampled_from(self.published))
            segments = head + segments
        return group, segments

    def _reference_match(self, req, max_tokens):
        """Blocks of the longest published prefix still in the trie, by the reference walk."""
        blocks = []
        for key in self._reference_chain(req, max_tokens // self.config.block_tokens):
            node = self.ref_nodes.get(key)
            if node is None or self.prefix._nodes.get(node.key) is not node:
                break
            blocks.append(node.block)
        return blocks

    def _any_shared(self, seq_id):
        if super()._any_shared(seq_id):
            return True
        cached = {node.block for node in self.prefix._nodes.values()}
        return any(b in cached for b in self.cache.sequence(seq_id).blocks)

    @precondition(lambda self: self.resident)
    @rule(data=st.data(), group=st.integers(min_value=0, max_value=1),
          segments=PREFIX_STREAMS)
    def publish(self, data, group, segments):
        seq_id = data.draw(st.sampled_from(sorted(self.resident)))
        state = self.cache.sequence(seq_id)
        group, segments = self._stream(data, group, segments)
        req = self._request(_clip(segments, self.resident[seq_id]), group)
        self.published.append((group, req.prefix_segments))
        shareable = req.shareable_prefix_tokens
        prior = self._reference_match(req, shareable)
        depth = len(prior)
        before = {id(node) for node in self.prefix._nodes.values()}
        added = self.prefix.insert(req, state.blocks)
        # The uncached tail of the stream's chain is published, shallowest first.
        new = [node for node in self.prefix._nodes.values() if id(node) not in before]
        chain = self._reference_chain(req, shareable // self.config.block_tokens)
        assert added == len(new) == len(chain) - depth
        for i, (key, node) in enumerate(zip(chain[depth:], new), start=depth):
            assert node.block == state.blocks[i]
            self.ref_nodes[key] = node
        # Already-cached depth keeps its first writer's blocks.
        assert self.prefix.match_blocks(req, shareable) == prior + state.blocks[depth:len(chain)]

    @rule(data=st.data(), group=st.integers(min_value=0, max_value=1),
          segments=PREFIX_STREAMS, cap=st.integers(min_value=0, max_value=400))
    def match_agrees_with_reference_walk(self, data, group, segments, cap):
        group, segments = self._stream(data, group, segments)
        req = self._request(segments, group)
        blocks = self.prefix.match_blocks(req, cap)
        assert blocks == self._reference_match(req, cap)
        assert self.prefix.match_tokens(req, cap) == len(blocks) * self.config.block_tokens

    @rule(group=st.integers(min_value=0, max_value=1), segments=PREFIX_STREAMS,
          cap=st.integers(min_value=0, max_value=128))
    def hit(self, group, segments, cap):
        req = self._request(segments, group)
        blocks = self.prefix.match_blocks(req, cap)
        assert blocks == self._reference_match(req, cap)
        if not blocks:
            self.prefix.record_miss()
            return
        child = self.next_id
        self.next_id += 1
        used_before = self.cache.num_used_blocks
        self.cache.fork_from_blocks(child, blocks)
        assert self.cache.num_used_blocks == used_before  # cached blocks were resident
        self.prefix.commit_hit(req, len(blocks))
        self.resident[child] = len(blocks) * self.config.block_tokens

    @rule(num=st.integers(min_value=1, max_value=8))
    def evict(self, num):
        free_before = self.cache.num_free_blocks
        nodes_before = dict(self.prefix._nodes)
        could = self.prefix.can_free()
        freed = self.prefix.evict(num)
        assert self.cache.num_free_blocks == free_before + freed
        # can_free is evict's exact side-effect-free precondition: eviction frees a
        # block exactly when it holds, and is a no-op on the trie otherwise.
        assert (freed >= 1) == could
        if not could:
            assert self.prefix._nodes == nodes_before

    @invariant()
    def trie_is_prefix_closed(self):
        nodes = self.prefix._nodes
        for node in nodes.values():
            assert node.parent is None or nodes.get(node.parent.key) is node.parent

    @invariant()
    def refcounts_match_resident_references(self):
        counts = {}
        for seq_id in self.resident:
            for block in self.cache.sequence(seq_id).blocks:
                counts[block] = counts.get(block, 0) + 1
        for node in self.prefix._nodes.values():
            counts[node.block] = counts.get(node.block, 0) + 1
        assert counts == self.cache._ref_counts

    @invariant()
    def both_pools_conserve_blocks(self):
        device_used = set()
        for seq_id in self.resident:
            device_used.update(self.cache.sequence(seq_id).blocks)
        device_used.update(node.block for node in self.prefix._nodes.values())
        assert len(device_used) == self.cache.num_used_blocks
        assert device_used | set(self.cache._free_blocks) == set(
            range(self.config.total_blocks)
        )
        host_used = []
        for seq_id in self.swapped:
            host_used.extend(self.cache.swapped_sequence(seq_id).blocks)
        assert len(host_used) == len(set(host_used)) == self.cache.num_used_host_blocks
        assert set(host_used) | set(self.cache._free_host_blocks) == set(
            range(self.config.total_host_blocks)
        )

    @invariant()
    def cache_accounting_consistent(self):
        for node in self.prefix._nodes.values():
            assert self.cache.block_ref_count(node.block) >= 1
        assert self.prefix.num_blocks == (
            self.prefix.inserted_blocks - self.prefix.evicted_blocks
        )


TestKvPrefixCacheStateMachine = KvPrefixCacheMachine.TestCase


class KvSchedulerPoolMachine(KvPrefixCacheMachine):
    """The prefix-cache machine restricted to the pool operations the scheduler makes,
    plus its bulk decode-slot reservation.

    The scheduler never forks a live sequence (``fork_sequence``) and truncates only a
    preemption victim, by at most its reserved decode slot, before swapping it out or
    freeing it.  Under those operations no resident sequence's partially filled tail
    block is ever shared: cache shares are whole blocks.  That is the precondition of
    :meth:`PagedKvCache.reserve_decode_slots` and :meth:`PagedKvCache.grow_states`, which
    skip the copy-on-write check, and this machine holds it as an invariant.
    """

    def fork(self):
        """Not a rule here: the scheduler never forks a live sequence."""

    def truncate(self):
        """Not a rule here: see :meth:`preempt`."""

    @precondition(lambda self: self.resident)
    @rule(data=st.data(), drop_slot=st.booleans())
    def preempt(self, data, drop_slot):
        """Drop the victim's decode slot, then swap it out, or free it (recompute)."""
        seq_id = data.draw(st.sampled_from(sorted(self.resident)))
        keep = max(0, self.resident[seq_id] - 1) if drop_slot else self.resident[seq_id]
        self.cache.truncate_sequence(seq_id, keep)
        self.resident[seq_id] = keep
        if self.cache.can_swap_out(seq_id):
            self.cache.swap_out(seq_id)
            self.swapped[seq_id] = self.resident.pop(seq_id)
        else:
            self.cache.free_sequence(seq_id)
            del self.resident[seq_id]

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def reserve_decode_slots(self, data):
        """One bulk reservation over a batch of residents equals one-token growth of each
        in order, taking blocks from the top of the free list, until the pool runs dry;
        after that every slot that opens a block is skipped."""
        batch = data.draw(st.permutations(sorted(self.resident)))
        batch = batch[:data.draw(st.integers(min_value=1, max_value=len(batch)))]
        block_tokens = self.config.block_tokens
        free = list(self.cache._free_blocks)
        expected_blocks = {s: list(self.cache.sequence(s).blocks) for s in batch}
        expected_skipped = []
        for position, seq_id in enumerate(batch):
            if self.resident[seq_id] % block_tokens == 0:
                if not free:
                    expected_skipped.append(position)
                    continue
                expected_blocks[seq_id].append(free.pop())
        contexts, skipped = self.cache.reserve_decode_slots(batch)
        assert contexts == [self.resident[s] for s in batch]
        assert skipped == expected_skipped
        assert self.cache._free_blocks == free
        for position, seq_id in enumerate(batch):
            assert self.cache.sequence(seq_id).blocks == expected_blocks[seq_id]
            if position not in skipped:
                self.resident[seq_id] += 1

    @invariant()
    def no_partially_filled_tail_is_shared(self):
        block_tokens = self.config.block_tokens
        for seq_id, tokens in self.resident.items():
            if tokens % block_tokens:
                tail = self.cache.sequence(seq_id).blocks[-1]
                assert self.cache.block_ref_count(tail) == 1


TestKvSchedulerPoolStateMachine = KvSchedulerPoolMachine.TestCase
