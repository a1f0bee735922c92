"""Paged KV-cache manager (PagedAttention-style, Section 6).

The serving systems in the paper manage the KV cache in fixed-size blocks so that memory is
allocated on demand and sequences of different lengths share the pool without fragmentation.
This module implements that block manager exactly (allocation, append, free, copy-on-fork),
because it is what determines the maximum batch size under the 80 GB budget in Table 1 — and
because its invariants (no double allocation, capacity never exceeded, blocks returned on
free) are good property-test material.

Beyond the device pool the manager models two production mechanisms:

* **Swap-based preemption** — a sequence's blocks can be swapped out to a bounded
  host-memory pool (:meth:`PagedKvCache.swap_out` / :meth:`PagedKvCache.swap_in`, the vLLM
  ``swap_space`` mechanism), releasing device blocks without discarding the KV state.  The
  scheduler charges the transfer over the host link via the serving engine.
* **Copy-on-fork** — :meth:`PagedKvCache.fork_sequence` creates a child that shares the
  parent's blocks under reference counting; growing a sequence whose tail block is shared
  copies that block first (copy-on-write).  This is the building block for prefix caching
  across requests sharing a system prompt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..backend import kv_format_bytes
from .models import ModelConfig

__all__ = ["KvCacheConfig", "PagedKvCache", "KvCacheOutOfMemory", "SequenceState"]


class KvCacheOutOfMemory(RuntimeError):
    """Raised when a sequence needs a KV block but the pool is exhausted."""


def _pop_tail(pool: List[int], count: int) -> List[int]:
    """Remove the last ``count`` entries of ``pool`` and return them in the order ``count``
    ``pool.pop()`` calls would."""
    cut = len(pool) - count
    taken = pool[cut:]
    del pool[cut:]
    taken.reverse()
    return taken


@dataclass(frozen=True)
class KvCacheConfig:
    """Static configuration of the paged KV-cache pool.

    With tensor parallelism (``tp_degree > 1``) the pool models *one GPU's* shard: each GPU
    stores only its KV heads, so a token costs ``kv_dim_per_gpu / kv_dim`` of the full-model
    bytes and the per-GPU memory budget bounds the shared batch.
    """

    model: ModelConfig
    kv_format: str = "int8"
    block_tokens: int = 16            # tokens per block (vLLM default granularity)
    memory_budget_bytes: int = 0      # pool size; set by the serving engine
    tp_degree: int = 1                # tensor-parallel group size (per-GPU shard accounting)
    #: Host-memory swap pool (vLLM ``swap_space``): bytes of pinned host memory available to
    #: park swapped-out sequences.  0 disables swap-based preemption.
    host_memory_budget_bytes: int = 0

    # Derived geometry is memoized: the scheduler reads these on every block allocation,
    # and recomputing model-config arithmetic per token append dominated its profile.
    # (cached_property stores straight into __dict__, which frozen dataclasses permit.)
    @cached_property
    def bytes_per_token(self) -> float:
        """KV bytes one token occupies on one GPU across all layers (K and V)."""
        full = self.model.kv_bytes_per_token(kv_format_bytes(self.kv_format))
        if self.tp_degree == 1:
            return full
        return full * self.model.kv_dim_per_gpu(self.tp_degree) / self.model.kv_dim

    @cached_property
    def bytes_per_block(self) -> int:
        return int(math.ceil(self.block_tokens * self.bytes_per_token))

    @cached_property
    def total_blocks(self) -> int:
        if self.memory_budget_bytes <= 0:
            return 0
        return self.memory_budget_bytes // self.bytes_per_block

    @cached_property
    def total_host_blocks(self) -> int:
        if self.host_memory_budget_bytes <= 0:
            return 0
        return self.host_memory_budget_bytes // self.bytes_per_block

    def blocks_for_tokens(self, num_tokens: int) -> int:
        return math.ceil(num_tokens / self.block_tokens)


@dataclass
class SequenceState:
    """Book-keeping for one sequence resident in the cache."""

    seq_id: int
    num_tokens: int = 0
    blocks: List[int] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


class PagedKvCache:
    """Block-granular KV-cache allocator with a host-memory swap pool and copy-on-fork.

    Device blocks are reference counted: :meth:`fork_sequence` lets two sequences share a
    block (``num_used_blocks`` counts *physical* blocks, so the per-sequence block counts of
    forked sequences may sum to more than the pool holds).  Swapped-out sequences live in a
    separate host block pool and hold no device blocks.
    """

    def __init__(self, config: KvCacheConfig):
        if config.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self.config = config
        self._free_blocks: List[int] = list(range(config.total_blocks))
        self._sequences: Dict[int, SequenceState] = {}
        self._sequence_view: Mapping[int, SequenceState] = MappingProxyType(self._sequences)
        self._ref_counts: Dict[int, int] = {}
        # Exact count of device blocks with reference count >= 2.  Every path that moves
        # a count across 1 <-> 2 updates it, so the shared-block scans of victim
        # selection and swap-out are skipped outright while nothing is shared.
        self._shared_blocks = 0
        self._free_host_blocks: List[int] = list(range(config.total_host_blocks))
        self._swapped: Dict[int, SequenceState] = {}
        # Optional telemetry (bind_tracer): emits a "kv_oom" event whenever the pool
        # rejects an allocation.  None by default — the allocator has no clock of its
        # own, so the owning scheduler supplies one alongside the tracer.
        self._tracer = None
        self._trace_replica = 0
        self._trace_clock = None

    def bind_tracer(self, tracer, replica: int = 0, clock_fn=None) -> None:
        """Attach a :class:`~repro.telemetry.Tracer` (``kv_oom`` pressure events).

        ``clock_fn`` is a zero-argument callable returning the current simulated time
        (the scheduler's live clock); without one, events are stamped at 0.
        """
        self._tracer = tracer
        self._trace_replica = replica
        self._trace_clock = clock_fn

    def _raise_oom(self, message: str, needed_blocks: int) -> None:
        """Emit a ``kv_oom`` telemetry event (when traced) and raise."""
        if self._tracer is not None:
            self._tracer.emit(
                "kv_oom",
                self._trace_clock() if self._trace_clock is not None else 0.0,
                replica=self._trace_replica,
                needed_blocks=needed_blocks, free_blocks=self.num_free_blocks,
            )
        raise KvCacheOutOfMemory(message)

    # ------------------------------------------------------------------ queries
    @property
    def num_free_blocks(self) -> int:
        return len(self._free_blocks)

    @property
    def num_used_blocks(self) -> int:
        return self.config.total_blocks - self.num_free_blocks

    @property
    def num_sequences(self) -> int:
        return len(self._sequences)

    @property
    def num_free_host_blocks(self) -> int:
        return len(self._free_host_blocks)

    @property
    def num_used_host_blocks(self) -> int:
        return self.config.total_host_blocks - self.num_free_host_blocks

    @property
    def num_swapped_sequences(self) -> int:
        return len(self._swapped)

    def used_bytes(self) -> int:
        return self.num_used_blocks * self.config.bytes_per_block

    def utilization(self) -> float:
        total = self.config.total_blocks
        return self.num_used_blocks / total if total else 0.0

    def host_utilization(self) -> float:
        total = self.config.total_host_blocks
        return self.num_used_host_blocks / total if total else 0.0

    def sequence(self, seq_id: int) -> SequenceState:
        return self._sequences[seq_id]

    @property
    def sequences(self) -> Mapping[int, SequenceState]:
        """Read-only ``{seq_id: state}`` view of the device-resident sequences.

        A caller walking a whole batch reads each state by one lookup, not one
        :meth:`sequence` call per sequence.
        """
        return self._sequence_view

    def is_swapped(self, seq_id: int) -> bool:
        return seq_id in self._swapped

    def swapped_sequence(self, seq_id: int) -> SequenceState:
        return self._swapped[seq_id]

    def can_admit(self, num_tokens: int) -> bool:
        """Would a new sequence of ``num_tokens`` fit right now?"""
        return self.config.blocks_for_tokens(num_tokens) <= self.num_free_blocks

    # ------------------------------------------------------------------ block bookkeeping
    def _claim_blocks(self, count: int) -> List[int]:
        """Allocate ``count`` blocks at one reference each, taken from the top of the free
        list in one slice (the order one-at-a-time pops would take them)."""
        blocks = _pop_tail(self._free_blocks, count)
        ref_counts = self._ref_counts
        for block in blocks:
            ref_counts[block] = 1
        return blocks

    def _release_block(self, block: int) -> int:
        """Drop one reference; returns 1 if the block went back to the free pool."""
        remaining = self._ref_counts[block] - 1
        if remaining == 0:
            del self._ref_counts[block]
            self._free_blocks.append(block)
            return 1
        if remaining == 1:
            self._shared_blocks -= 1
        self._ref_counts[block] = remaining
        return 0

    def block_ref_count(self, block: int) -> int:
        """Current reference count of a physical block (0 when free)."""
        return self._ref_counts.get(block, 0)

    def retain_block(self, block: int) -> None:
        """Take one extra reference on an allocated block.

        This is how a prefix cache keeps a published block alive after the sequence that
        prefilled it is freed: the cache holds one reference per cached block, live
        sequences hold theirs, and the block returns to the free pool only when the last
        holder releases it.
        """
        self.retain_blocks((block,))

    def retain_blocks(self, blocks: Sequence[int]) -> None:
        """:meth:`retain_block` on several blocks in one call.

        Every block is checked before any reference is taken, so an unallocated block
        raises :class:`KeyError` with every reference count unchanged.
        """
        ref_counts = self._ref_counts
        for block in blocks:
            if block not in ref_counts:
                raise KeyError(f"block {block} is not allocated")
        self._share(blocks)

    def _share(self, blocks: Iterable[int]) -> None:
        """Take one extra reference on each allocated block, counting newly shared ones."""
        ref_counts = self._ref_counts
        shared = 0
        for block in blocks:
            count = ref_counts[block] + 1
            ref_counts[block] = count
            if count == 2:
                shared += 1
        self._shared_blocks += shared

    def release_block(self, block: int) -> int:
        """Drop one reference on an allocated block; returns 1 if it went back to the pool."""
        if block not in self._ref_counts:
            raise KeyError(f"block {block} is not allocated")
        return self._release_block(block)

    def shares_blocks(self, seq_id: int) -> bool:
        """True when any of a resident sequence's blocks is shared (fork or prefix cache).

        Such a sequence cannot be swapped out; victim selection uses this to prefer
        swappable residents under swap-leaning preemption policies.
        """
        if not self._shared_blocks:
            return False
        state = self._sequences.get(seq_id)
        if state is None:
            return False
        ref_counts = self._ref_counts
        return any(ref_counts[b] > 1 for b in state.blocks)

    # ------------------------------------------------------------------ mutation
    def add_sequence(self, seq_id: int, prompt_tokens: int) -> SequenceState:
        """Admit a new sequence with its prompt already cached (prefill)."""
        if seq_id in self._sequences or seq_id in self._swapped:
            raise ValueError(f"sequence {seq_id} already resident")
        if prompt_tokens < 0:
            raise ValueError("prompt_tokens must be non-negative")
        needed = self.config.blocks_for_tokens(prompt_tokens) if prompt_tokens else 0
        if needed > self.num_free_blocks:
            self._raise_oom(
                f"sequence {seq_id} needs {needed} blocks, only {self.num_free_blocks} free",
                needed,
            )
        state = SequenceState(seq_id=seq_id, num_tokens=prompt_tokens,
                              blocks=self._claim_blocks(needed))
        self._sequences[seq_id] = state
        return state

    def append_token(self, seq_id: int) -> SequenceState:
        """Grow a sequence by one decoded token, allocating a new block when needed."""
        return self.extend_sequence(seq_id, 1)

    def extend_sequence(self, seq_id: int, num_tokens: int) -> SequenceState:
        """Grow a resident sequence by ``num_tokens`` tokens (e.g. one prefill chunk).

        Allocation is all-or-nothing: if the pool cannot supply every block the extension
        needs, :class:`KvCacheOutOfMemory` is raised and the sequence is left unchanged.
        Growing into a tail block shared with a fork first copies that block (copy-on-write),
        which costs one extra block.

        This is the allocator's hottest entry point (one call per decode-token append, one
        per fast-forward jump per sequence), so the block math is inlined and new blocks
        are claimed from the free list in one slice instead of block-at-a-time pops.
        """
        state = self._sequences.get(seq_id)
        if state is None:
            raise KeyError(f"unknown sequence {seq_id}")
        return self.extend_state(state, num_tokens)

    def extend_state(self, state: SequenceState, num_tokens: int) -> SequenceState:
        """:meth:`extend_sequence` for a caller already holding the sequence's state.

        The scheduler resolves each resident's :class:`SequenceState` once per iteration
        (it also needs the current token count), so the grow path skips the second id
        lookup.  ``state`` must be device-resident (obtained via :meth:`sequence`).
        """
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        seq_id = state.seq_id
        blocks = state.blocks
        block_tokens = self.config.block_tokens
        # max(0, blocks_for_tokens(num_tokens + growth) - held), in integer form.
        needed = (state.num_tokens + num_tokens + block_tokens - 1) // block_tokens - len(blocks)
        if needed < 0:
            needed = 0
        copy_tail = (
            num_tokens > 0
            and bool(blocks)
            and self._ref_counts[blocks[-1]] > 1
            and state.num_tokens % block_tokens != 0
        )
        free = self._free_blocks
        if needed + (1 if copy_tail else 0) > len(free):
            self._raise_oom(
                f"sequence {seq_id} needs {needed + (1 if copy_tail else 0)} blocks to grow "
                f"by {num_tokens} tokens, only {len(free)} free",
                needed + (1 if copy_tail else 0),
            )
        if copy_tail:
            # The partially filled tail is shared with a fork: copy before writing into it.
            shared_tail = blocks[-1]
            blocks[-1] = self._claim_blocks(1)[0]
            self._release_block(shared_tail)
        if needed:
            fresh = free[-needed:]
            del free[-needed:]
            ref_counts = self._ref_counts
            for block in fresh:
                ref_counts[block] = 1
            blocks.extend(fresh)
        state.num_tokens += num_tokens
        return state

    def reserve_decode_slots(self, seq_ids: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Grow each listed resident sequence by one token (its decode slot) in one call.

        The scheduler's per-iteration bulk path.  Slots are reserved in list order, each
        taking its block (if it opens one) from the top of the free list, exactly as one
        :meth:`extend_state` call per sequence would.  A slot opens a block when its
        sequence's token count is a multiple of ``block_tokens``: every sequence holds
        exactly ``ceil(tokens / block_tokens)`` blocks.  When the free list runs dry, every
        later slot that opens a block is skipped, and the caller reserves those itself,
        preempting as it sees fit.

        Returns ``(contexts, skipped)``: each sequence's token count before its slot, in
        list order, and the list positions of the skipped slots (empty when the pool
        covered every slot).

        The precondition of :meth:`grow_states` applies: no listed sequence's partially
        filled tail block is shared, so no slot needs a copy-on-write.
        """
        sequences = self._sequences
        free = self._free_blocks
        ref_counts = self._ref_counts
        block_tokens = self.config.block_tokens
        contexts: List[int] = []
        skipped: List[int] = []
        for seq_id in seq_ids:
            state = sequences[seq_id]
            tokens = state.num_tokens
            contexts.append(tokens)
            if tokens % block_tokens == 0:
                if not free:
                    skipped.append(len(contexts) - 1)
                    continue
                block = free.pop()
                ref_counts[block] = 1
                state.blocks.append(block)
            state.num_tokens = tokens + 1
        return contexts, skipped

    def grow_states(self, states: List[SequenceState], num_tokens: int) -> None:
        """Grow several resident *unforked* sequences by the same token count.

        The fast-forward bulk path: one call grows a whole decode batch by ``num_tokens``
        tokens each, with the block math inlined per sequence.  The caller guarantees no
        sequence's *partial tail block* is shared, so the copy-on-write tail check is
        skipped.  The scheduler satisfies this for both bulk paths (this one and
        :meth:`reserve_decode_slots`), even with prefix caching enabled: cache shares
        (:meth:`fork_from_blocks`, published prefixes) are always whole blocks, so a
        shared block is never a partially filled tail.  Allocation remains
        all-or-nothing per sequence, and callers pre-check total demand so exhaustion
        cannot strike midway.
        """
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        free = self._free_blocks
        ref_counts = self._ref_counts
        block_tokens = self.config.block_tokens
        for state in states:
            blocks = state.blocks
            needed = (
                (state.num_tokens + num_tokens + block_tokens - 1) // block_tokens
                - len(blocks)
            )
            if needed > 0:
                if needed > len(free):
                    self._raise_oom(
                        f"sequence {state.seq_id} needs {needed} blocks to grow by "
                        f"{num_tokens} tokens, only {len(free)} free",
                        needed,
                    )
                fresh = free[-needed:]
                del free[-needed:]
                for block in fresh:
                    ref_counts[block] = 1
                blocks.extend(fresh)
            state.num_tokens += num_tokens

    def truncate_sequence(self, seq_id: int, num_tokens: int) -> SequenceState:
        """Shrink a resident sequence to ``num_tokens``, releasing now-unused blocks."""
        state = self._sequences.get(seq_id)
        if state is None:
            raise KeyError(f"unknown sequence {seq_id}")
        if num_tokens < 0 or num_tokens > state.num_tokens:
            raise ValueError(
                f"cannot truncate sequence {seq_id} of {state.num_tokens} tokens to {num_tokens}"
            )
        keep = self.config.blocks_for_tokens(num_tokens) if num_tokens else 0
        while state.num_blocks > keep:
            self._release_block(state.blocks.pop())
        state.num_tokens = num_tokens
        return state

    def fork_sequence(self, parent_id: int, child_id: int) -> SequenceState:
        """Fork a resident sequence: the child shares the parent's blocks (copy-on-fork).

        Sharing is reference counted, so freeing either sequence only returns blocks no
        other sequence still references; growth through a shared tail block copies it first
        (see :meth:`extend_sequence`).  Forked (block-sharing) sequences cannot be swapped.
        """
        parent = self._sequences.get(parent_id)
        if parent is None:
            raise KeyError(f"unknown (or swapped-out) sequence {parent_id}")
        if child_id in self._sequences or child_id in self._swapped:
            raise ValueError(f"sequence {child_id} already resident")
        self._share(parent.blocks)
        child = SequenceState(seq_id=child_id, num_tokens=parent.num_tokens,
                              blocks=list(parent.blocks))
        self._sequences[child_id] = child
        return child

    def fork_from_blocks(self, seq_id: int, blocks: List[int]) -> SequenceState:
        """Admit a sequence that starts life sharing ``blocks`` (prefix-cache fork-on-admit).

        The blocks must be allocated (typically held by a prefix cache) and are taken as a
        *full-block* prefix: the new sequence holds ``len(blocks) * block_tokens`` tokens of
        already-computed KV and grows past them with fresh allocations.  Because the shared
        span is block-aligned, the shared blocks can never become a partially-filled tail,
        so growth never triggers the copy-on-write path.
        """
        if seq_id in self._sequences or seq_id in self._swapped:
            raise ValueError(f"sequence {seq_id} already resident")
        self.retain_blocks(blocks)
        state = SequenceState(
            seq_id=seq_id,
            num_tokens=len(blocks) * self.config.block_tokens,
            blocks=list(blocks),
        )
        self._sequences[seq_id] = state
        return state

    def free_sequence(self, seq_id: int) -> int:
        """Release a finished sequence (device- or host-resident); returns blocks freed."""
        state = self._sequences.pop(seq_id, None)
        if state is not None:
            # Inlined _release_block loop: freeing runs once per completed request but
            # walks every block the sequence ever allocated.
            ref_counts = self._ref_counts
            returned = []
            for block in state.blocks:
                remaining = ref_counts[block] - 1
                if remaining == 0:
                    del ref_counts[block]
                    returned.append(block)
                else:
                    if remaining == 1:
                        self._shared_blocks -= 1
                    ref_counts[block] = remaining
            self._free_blocks.extend(returned)
            return len(returned)
        swapped = self._swapped.pop(seq_id, None)
        if swapped is not None:
            self._free_host_blocks.extend(swapped.blocks)
            return len(swapped.blocks)
        raise KeyError(f"unknown sequence {seq_id}")

    # ------------------------------------------------------------------ swap (preemption)
    def can_swap_out(self, seq_id: int) -> bool:
        """Could ``seq_id`` be swapped to host memory right now?"""
        state = self._sequences.get(seq_id)
        if state is None:
            return False
        if self._shared_blocks and any(self._ref_counts[b] > 1 for b in state.blocks):
            return False
        return state.num_blocks <= self.num_free_host_blocks

    def swap_out(self, seq_id: int) -> int:
        """Move a resident sequence's blocks to the host pool; returns bytes transferred."""
        state = self._sequences.get(seq_id)
        if state is None:
            raise KeyError(f"unknown sequence {seq_id}")
        if self._shared_blocks and any(self._ref_counts[b] > 1 for b in state.blocks):
            raise ValueError(f"sequence {seq_id} shares blocks with a fork; cannot swap out")
        if state.num_blocks > self.num_free_host_blocks:
            self._raise_oom(
                f"sequence {seq_id} needs {state.num_blocks} host blocks, "
                f"only {self.num_free_host_blocks} free",
                state.num_blocks,
            )
        # Claim and release in slices; the device blocks are all unshared (checked
        # above), so each one goes back to the free list, in sequence order.
        host_blocks = _pop_tail(self._free_host_blocks, state.num_blocks)
        ref_counts = self._ref_counts
        for block in state.blocks:
            del ref_counts[block]
        self._free_blocks.extend(state.blocks)
        del self._sequences[seq_id]
        self._swapped[seq_id] = SequenceState(seq_id=seq_id, num_tokens=state.num_tokens,
                                              blocks=host_blocks)
        return len(host_blocks) * self.config.bytes_per_block

    def can_swap_in(self, seq_id: int) -> bool:
        """Could a swapped-out ``seq_id`` return to the device pool right now?"""
        state = self._swapped.get(seq_id)
        return state is not None and state.num_blocks <= self.num_free_blocks

    def swap_in(self, seq_id: int) -> int:
        """Move a swapped-out sequence back to the device pool; returns bytes transferred."""
        state = self._swapped.get(seq_id)
        if state is None:
            raise KeyError(f"sequence {seq_id} is not swapped out")
        if state.num_blocks > self.num_free_blocks:
            self._raise_oom(
                f"sequence {seq_id} needs {state.num_blocks} device blocks to swap in, "
                f"only {self.num_free_blocks} free",
                state.num_blocks,
            )
        device_blocks = self._claim_blocks(state.num_blocks)
        self._free_host_blocks.extend(state.blocks)
        del self._swapped[seq_id]
        self._sequences[seq_id] = SequenceState(seq_id=seq_id, num_tokens=state.num_tokens,
                                                blocks=device_blocks)
        return len(device_blocks) * self.config.bytes_per_block

    # ------------------------------------------------------------------ capacity planning
    @staticmethod
    def max_batch_size(config: KvCacheConfig, tokens_per_sequence: int) -> int:
        """Largest number of equal-length sequences the pool can hold simultaneously."""
        if tokens_per_sequence <= 0:
            raise ValueError("tokens_per_sequence must be positive")
        blocks_per_seq = config.blocks_for_tokens(tokens_per_sequence)
        if blocks_per_seq == 0:
            return 0
        return config.total_blocks // blocks_per_seq
