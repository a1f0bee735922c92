"""Radix-tree prefix cache over KV blocks (vLLM block-hash / SGLang RadixAttention style).

Production engines avoid re-prefilling shared prompt prefixes — system prompts, RAG
templates, agent tool transcripts — by indexing the paged KV cache's *full* blocks under a
content hash and seeding new sequences with the matching blocks.  This module is the
simulator's version of that index:

* **Chained interned keys** — every cached block is identified by an interned integer key
  derived from ``(parent_key, block_content)``, where the content is the tuple of
  ``(segment_id, start, end)`` pieces covering that block.  Chaining makes the structure a
  radix tree without materializing per-node child tables: looking up a prefix is one dict
  probe per block, O(prefix blocks) total, and diverging continuations branch naturally
  (two conversations sharing a system prompt share exactly its nodes).
* **Fork-on-admit** — the scheduler asks :meth:`PrefixCache.match_blocks` for the longest
  cached prefix of an admitting request and seeds the new sequence with those physical
  blocks via :meth:`~repro.serving.kvcache.PagedKvCache.fork_from_blocks`; only the
  uncached suffix is prefilled.  Matches are *block granular*: the shareable span is
  described by the request's ``prefix_segments`` and only whole blocks ever hit.
* **Reference-counted residency** — the cache holds one pool reference per cached block
  (:meth:`~repro.serving.kvcache.PagedKvCache.retain_block`), so publishing a prefix costs
  no new memory while its prefiller is alive, and cached blocks survive the prefiller's
  completion until evicted.
* **LRU leaf eviction** — under KV pressure the scheduler reclaims cached-but-idle blocks
  before preempting live sequences: :meth:`PrefixCache.evict` repeatedly removes the
  least-recently-used *leaf* whose block no live sequence shares.
  :meth:`PrefixCache.can_free` is its exact side-effect-free precondition: ``evict``
  frees a block exactly when some cached block is idle, and otherwise leaves the trie
  untouched — the fact the fast-forward parked-queue proofs use.

Everything here mutates only inside the scheduler's ``step()`` (insert at prefill
completion, hit/fork at admission, evict under pressure), which is what keeps analytic
fast-forward bit-identical with the cache enabled: a pinned fast-forward segment can prove
the trie static for its whole span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from .kvcache import PagedKvCache

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .scheduler import Request

__all__ = ["PrefixCache", "PrefixCacheStats"]

#: One block's content: the ``(segment_id, start, end)`` pieces covering its tokens.
BlockContent = Tuple[Tuple[int, int, int], ...]


@dataclass(frozen=True)
class PrefixCacheStats:
    """Counters of one prefix-cache lifetime (reset with the scheduler session)."""

    hits: int = 0
    misses: int = 0
    saved_tokens: int = 0
    inserted_blocks: int = 0
    evicted_blocks: int = 0
    cached_blocks: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class _PrefixNode:
    """One cached block: a trie node owning exactly one physical KV block."""

    __slots__ = ("key", "parent", "block", "children", "depth", "stamp")

    def __init__(self, key: int, parent: Optional["_PrefixNode"], block: int,
                 depth: int, stamp: int):
        self.key = key
        self.parent = parent
        self.block = block
        self.children = 0          # child-node count: 0 means leaf (eviction candidate)
        self.depth = depth
        self.stamp = stamp         # logical LRU time of the last touch


def _block_contents(segments: Tuple[Tuple[int, int], ...], block_tokens: int,
                    max_blocks: int) -> Iterator[BlockContent]:
    """Yield the content key of each *full* block covering the segment stream.

    Segment boundaries may fall mid-block, so a block's content is the tuple of
    ``(segment_id, start_offset, end_offset)`` pieces filling it — two requests produce
    the same key for block *i* exactly when their first ``(i+1) * block_tokens`` shareable
    tokens are segment-for-segment identical.  The trailing partial block (if any) is
    never yielded: only whole blocks are cacheable.
    """
    if max_blocks <= 0:
        return
    pieces: List[Tuple[int, int, int]] = []
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


class PrefixCache:
    """Block-granular radix index over a :class:`PagedKvCache`'s published prefixes."""

    def __init__(self, kv_cache: PagedKvCache):
        self.kv_cache = kv_cache
        # Interned key chain: (parent_key, block_content) -> key.  Append-only — keys of
        # evicted nodes stay interned so a re-published prefix re-lands on the same ints.
        self._interned: Dict[Tuple[int, object], int] = {}
        self._nodes: Dict[int, _PrefixNode] = {}
        self._group_keys: Dict[object, int] = {}
        self._next_key = 0
        self._tick = 0           # logical LRU clock (advances on hit/insert)
        self._version = 0        # structure version (advances on insert/evict/reset)
        # Per-version memo of match results: the parked-queue proofs re-evaluate the top
        # waiting request's match on every fast-forward attempt, and the trie is static
        # between structural changes.
        self._match_memo: Dict[Tuple[int, int], List[_PrefixNode]] = {}
        self.hits = 0
        self.misses = 0
        self.saved_tokens = 0
        self.inserted_blocks = 0
        self.evicted_blocks = 0
        # Optional telemetry (bind_tracer): "cache_insert" / "cache_evict" events.  The
        # cache has no clock of its own; the owning scheduler supplies one.
        self._tracer = None
        self._trace_replica = 0
        self._trace_clock = None

    def bind_tracer(self, tracer, replica: int = 0, clock_fn=None) -> None:
        """Attach a :class:`~repro.telemetry.Tracer` for structural-change events."""
        self._tracer = tracer
        self._trace_replica = replica
        self._trace_clock = clock_fn

    def _trace_ts(self) -> float:
        return self._trace_clock() if self._trace_clock is not None else 0.0

    # ------------------------------------------------------------------ queries
    @property
    def num_blocks(self) -> int:
        """Physical blocks currently held (referenced) by the cache."""
        return len(self._nodes)

    @property
    def version(self) -> int:
        """Bumped on every structural change (insert / evict / reset)."""
        return self._version

    def stats(self) -> PrefixCacheStats:
        return PrefixCacheStats(
            hits=self.hits,
            misses=self.misses,
            saved_tokens=self.saved_tokens,
            inserted_blocks=self.inserted_blocks,
            evicted_blocks=self.evicted_blocks,
            cached_blocks=self.num_blocks,
        )

    def _group_key(self, request: "Request") -> Optional[int]:
        """Root key of the request's sharing namespace (``None`` when absent)."""
        return self._group_keys.get(request.prefix_group)

    def _match_path(self, request: "Request", max_tokens: int) -> List[_PrefixNode]:
        """Longest cached path covering the request's shareable prefix (possibly empty)."""
        segments = request.prefix_segments
        if not segments or max_tokens <= 0:
            return []
        memo_key = (request.request_id, max_tokens)
        cached = self._match_memo.get(memo_key)
        if cached is not None:
            return cached
        path: List[_PrefixNode] = []
        key = self._group_key(request)
        if key is not None:
            block_tokens = self.kv_cache.config.block_tokens
            interned = self._interned
            nodes = self._nodes
            for content in _block_contents(segments, block_tokens,
                                           max_tokens // block_tokens):
                child_key = interned.get((key, content))
                if child_key is None:
                    break
                node = nodes.get(child_key)
                if node is None:
                    break
                path.append(node)
                key = child_key
        self._match_memo[memo_key] = path
        return path

    def match_blocks(self, request: "Request", max_tokens: int) -> List[int]:
        """Physical blocks of the longest cached prefix, capped at ``max_tokens`` tokens.

        Side-effect free (counters and LRU stamps move only on :meth:`commit_hit`), so
        the admission loop, the fast-forward parked proofs and the cluster's
        cache-affinity router can all probe it without perturbing the simulation.
        """
        return [node.block for node in self._match_path(request, max_tokens)]

    def match_tokens(self, request: "Request", max_tokens: int) -> int:
        """Tokens the cache could serve for ``request`` right now (router affinity probe)."""
        return len(self._match_path(request, max_tokens)) * self.kv_cache.config.block_tokens

    # ------------------------------------------------------------------ mutation
    def commit_hit(self, request: "Request", num_blocks: int) -> None:
        """Record a fork-on-admit of ``num_blocks`` matched blocks; refresh their LRU."""
        self._tick += 1
        stamp = self._tick
        for node in self._match_path(request, num_blocks
                                     * self.kv_cache.config.block_tokens):
            node.stamp = stamp
        self.hits += 1
        self.saved_tokens += num_blocks * self.kv_cache.config.block_tokens

    def record_miss(self) -> None:
        self.misses += 1

    def insert(self, request: "Request", blocks: List[int]) -> int:
        """Publish a completed prefill's shareable prefix; returns newly cached blocks.

        ``blocks`` is the prefilling sequence's block list; the first
        ``shareable // block_tokens`` of them hold full blocks of shareable-prefix KV.
        New trie depth takes one pool reference per block; already-cached depth is left
        untouched (first writer wins — a concurrent duplicate prefill does not replace
        the published block) but has its LRU refreshed.
        """
        segments = request.prefix_segments
        if not segments:
            return 0
        shareable = sum(tokens for _, tokens in segments)
        block_tokens = self.kv_cache.config.block_tokens
        publish = min(shareable // block_tokens, len(blocks))
        if publish <= 0:
            return 0
        self._tick += 1
        stamp = self._tick
        group = request.prefix_group
        key = self._group_keys.get(group)
        if key is None:
            key = self._next_key
            self._next_key += 1
            self._group_keys[group] = key
        parent: Optional[_PrefixNode] = None
        added = 0
        for i, content in enumerate(_block_contents(segments, block_tokens, publish)):
            child_key = self._interned.get((key, content))
            if child_key is None:
                child_key = self._next_key
                self._next_key += 1
                self._interned[(key, content)] = child_key
            node = self._nodes.get(child_key)
            if node is None:
                node = _PrefixNode(child_key, parent, blocks[i], depth=i, stamp=stamp)
                self.kv_cache.retain_block(blocks[i])
                self._nodes[child_key] = node
                if parent is not None:
                    parent.children += 1
                added += 1
            else:
                node.stamp = stamp
            parent = node
            key = child_key
        if added:
            self.inserted_blocks += added
            self._bump_version()
            if self._tracer is not None:
                self._tracer.emit(
                    "cache_insert", self._trace_ts(), replica=self._trace_replica,
                    request_id=request.request_id, blocks=added,
                )
        return added

    def evict(self, num_blocks: int) -> int:
        """Free up to ``num_blocks`` device blocks by dropping LRU leaves.

        An *idle* leaf (pool reference count 1 — the cache's own) frees its block
        outright, and evicting it may expose its parent as the next candidate, so deep
        idle chains unwind naturally.  When no idle leaf remains but idle blocks are
        still buried in the trie — a live sequence pins a chain's deepest blocks while
        its shallow ancestors sit idle — the LRU *pinned* leaf is dropped instead:
        releasing the cache's reference on a shared block costs no memory now (the live
        holder keeps it) and unpins the idle interior for real freeing.  Without that
        pruning step, a single pinned leaf could deadlock preemption with the pool full
        of idle-but-unreachable cached blocks.  Returns the blocks actually returned to
        the free pool (fewer than asked once every cached block is shared).
        """
        if num_blocks <= 0:
            return 0
        kv = self.kv_cache
        freed = 0
        evicted = 0
        while freed < num_blocks and self.can_free():
            best_idle: Optional[_PrefixNode] = None
            best: Optional[_PrefixNode] = None
            for node in self._nodes.values():
                if node.children:
                    continue
                if kv.block_ref_count(node.block) == 1:
                    if best_idle is None or node.stamp < best_idle.stamp:
                        best_idle = node
                if best is None or node.stamp < best.stamp:
                    best = node
            target = best_idle if best_idle is not None else best
            freed += kv.release_block(target.block)
            del self._nodes[target.key]
            if target.parent is not None:
                target.parent.children -= 1
            evicted += 1
        if evicted:
            self.evicted_blocks += evicted
            self._bump_version()
            if self._tracer is not None:
                self._tracer.emit(
                    "cache_evict", self._trace_ts(), replica=self._trace_replica,
                    blocks=evicted, freed=freed,
                )
        return freed

    def can_free(self) -> bool:
        """Would :meth:`evict` free at least one device block right now?

        True exactly when some cached block is idle (pool reference count 1, the cache's
        own): :meth:`evict` prunes pinned leaves for free to expose buried idle
        interiors, so every idle block is reachable, and an idle block stays idle while
        other nodes are dropped (a second holder would make its count 2).  When this is
        False, ``evict`` frees nothing and leaves the trie untouched.  Side-effect free
        — the fast-forward parked-queue proofs use it — and not memoized: the answer
        depends on *live* sequences' reference counts, which change without a
        structural version bump.
        """
        ref_counts = self.kv_cache.block_ref_count
        return any(ref_counts(node.block) == 1 for node in self._nodes.values())

    def reset(self) -> None:
        """Drop every cached block (release its pool reference) and zero the counters."""
        kv = self.kv_cache
        for node in self._nodes.values():
            kv.release_block(node.block)
        self._interned.clear()
        self._nodes.clear()
        self._group_keys.clear()
        self._next_key = 0
        self._tick = 0
        self._bump_version()
        self.hits = 0
        self.misses = 0
        self.saved_tokens = 0
        self.inserted_blocks = 0
        self.evicted_blocks = 0

    def _bump_version(self) -> None:
        self._version += 1
        self._match_memo.clear()
