"""Radix-tree prefix cache over KV blocks (vLLM block-hash / SGLang RadixAttention style).

Production engines avoid re-prefilling shared prompt prefixes — system prompts, RAG
templates, agent tool transcripts — by indexing the paged KV cache's *full* blocks under a
content hash and seeding new sequences with the matching blocks.  This module is the
simulator's version of that index:

* **Chained interned keys** — every cached block is identified by an interned integer key
  derived from ``(parent_key, block_content)``, where the content is the tuple of
  ``(segment_id, start, end)`` pieces covering that block.  Chaining makes the structure a
  radix tree without materializing per-node child tables, and diverging continuations
  branch naturally (two conversations sharing a system prompt share exactly its nodes).
  A :class:`PrefixKeyTable` interns the keys and memoizes each
  ``(prefix_group, prefix_segments)`` stream's chain of keys.  A new stream resumes from
  the longest segment prefix the table has already walked (a chat turn extends the
  previous turn, an agent step the transcript), so a run builds each block content once.
  A cluster run hands one table to every replica.
* **Binary-searched matches** — each cache's trie is prefix-closed (publication is
  root-first, eviction removes leaves only), so the cached keys of a chain form a prefix
  of it and a lookup finds the cached depth by binary search: the cache-affinity router's
  probe of every replica costs ``ceil(log2(n + 1))`` dict lookups for an ``n``-block
  chain and builds no list.
* **Fork-on-admit** — the scheduler asks :meth:`PrefixCache.match_blocks` for the longest
  cached prefix of an admitting request and seeds the new sequence with those physical
  blocks via :meth:`~repro.serving.kvcache.PagedKvCache.fork_from_blocks`; only the
  uncached suffix is prefilled.  Matches are *block granular*: the shareable span is
  described by the request's ``prefix_segments`` and only whole blocks ever hit.
* **Reference-counted residency** — the cache holds one pool reference per cached block
  (taken by :meth:`~repro.serving.kvcache.PagedKvCache.retain_blocks`, one call per
  publication), so publishing a prefix costs no new memory while its prefiller is alive,
  and cached blocks survive the prefiller's completion until evicted.
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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .kvcache import PagedKvCache

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .scheduler import Request

__all__ = ["PrefixCache", "PrefixCacheStats", "PrefixKeyTable"]

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

    __slots__ = ("key", "parent", "block", "children", "stamp")

    def __init__(self, key: int, parent: Optional["_PrefixNode"], block: int, stamp: int):
        self.key = key
        self.parent = parent
        self.block = block
        self.children = 0          # child-node count: 0 means leaf (eviction candidate)
        self.stamp = stamp         # logical LRU time of the last touch


class PrefixKeyTable:
    """Interned block keys of the shareable prefix streams of one run.

    Keys are interned from ``(parent_key, block_content)`` (a group's root from
    ``(None, prefix_group)``) and each ``(prefix_group, prefix_segments)`` stream's chain is
    memoized.  A block's content is the tuple of ``(segment_id, start_offset, end_offset)``
    pieces filling it (segment boundaries may fall mid-block), so two streams share block
    *i*'s key exactly when their first ``(i+1) * block_tokens`` shareable tokens are
    segment-for-segment identical; a trailing partial block has no key.

    A new stream resumes from the longest segment prefix already walked, which may be the
    whole stream: per segment boundary the table keeps the chain the boundary belongs to,
    the key count there, the last key and the open block's pieces.  A stream that extends
    a walked one therefore builds only the blocks past their shared segments.

    The table holds no cache state, so every replica of a cluster run shares one.
    It has no public method: a layer trace wrapping this module's public callables must
    count no call to it.
    """

    def __init__(self, block_tokens: int):
        self.block_tokens = block_tokens
        self._keys: Dict[Tuple[object, object], int] = {}
        self._chains: Dict[Tuple[object, object], Tuple[int, ...]] = {}
        #: ``(prefix_group, leading segments)`` of a walked stream -> ``(chain, key count,
        #: last key, open block's pieces)`` at that segment boundary.
        self._boundaries: Dict[Tuple[object, object],
                               Tuple[Tuple[int, ...], int, int, BlockContent]] = {}

    def _chain(self, request: "Request") -> Tuple[int, ...]:
        """Keys of the full blocks of ``request``'s shareable prefix, shallowest first."""
        stream = (request.prefix_group, request.prefix_segments)
        chain = self._chains.get(stream)
        if chain is None:
            chain = self._chains[stream] = self._walk(*stream)
        return chain

    def _walk(self, group: object, segments: Tuple[Tuple[int, int], ...]) -> Tuple[int, ...]:
        """Build a stream's chain from its longest segment prefix already walked."""
        keys, boundaries = self._keys, self._boundaries
        resumed = len(segments)
        while resumed and (group, segments[:resumed]) not in boundaries:
            resumed -= 1
        if resumed:
            walked, count, key, open_pieces = boundaries[(group, segments[:resumed])]
            if resumed == len(segments):
                return walked[:count]
            links = list(walked[:count])
        else:
            # ``keys`` is append-only, so its length is always a fresh key.
            key = keys.setdefault((None, group), len(keys))
            links, open_pieces = [], ()
        block_tokens = self.block_tokens
        pieces = list(open_pieces)
        filled = sum(stop - start for _, start, stop in pieces)
        marks = []
        for seg_id, seg_tokens in segments[resumed:]:
            offset = 0
            while offset < seg_tokens:
                take = min(seg_tokens - offset, block_tokens - filled)
                pieces.append((seg_id, offset, offset + take))
                filled += take
                offset += take
                if filled == block_tokens:
                    key = keys.setdefault((key, tuple(pieces)), len(keys))
                    links.append(key)
                    pieces, filled = [], 0
            marks.append((len(links), key, tuple(pieces)))
        chain = tuple(links)
        for end, (count, key, open_pieces) in enumerate(marks, start=resumed + 1):
            boundaries[(group, segments[:end])] = (chain, count, key, open_pieces)
        return chain


class PrefixCache:
    """Block-granular radix index over a :class:`PagedKvCache`'s published prefixes,
    keyed by the run's shared :class:`PrefixKeyTable` (a table of its own by default)."""

    def __init__(self, kv_cache: PagedKvCache, keys: Optional[PrefixKeyTable] = None):
        block_tokens = kv_cache.config.block_tokens
        if keys is None:
            keys = PrefixKeyTable(block_tokens)
        elif keys.block_tokens != block_tokens:
            raise ValueError(f"prefix key table built for {keys.block_tokens}-token blocks "
                             f"cannot index a pool of {block_tokens}-token blocks")
        self.kv_cache = kv_cache
        self._keys = keys
        self._nodes: Dict[int, _PrefixNode] = {}
        self._tick = 0           # logical LRU clock (advances on hit/insert)
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

    def stats(self) -> PrefixCacheStats:
        return PrefixCacheStats(
            hits=self.hits,
            misses=self.misses,
            saved_tokens=self.saved_tokens,
            inserted_blocks=self.inserted_blocks,
            evicted_blocks=self.evicted_blocks,
            cached_blocks=self.num_blocks,
        )

    def _cached_depth(self, chain: Tuple[int, ...], max_blocks: int) -> int:
        """Number of leading keys of ``chain`` cached in the trie, at most ``max_blocks``.

        The trie is prefix-closed (publication is root-first, eviction removes leaves
        only), so the cached keys form a prefix of the chain and a binary search over
        ``n = min(len(chain), max_blocks)`` finds its length in ``ceil(log2(n + 1))``
        lookups.
        """
        nodes = self._nodes
        low, high = 0, min(len(chain), max_blocks)
        while low < high:
            mid = (low + high + 1) // 2
            if chain[mid - 1] in nodes:
                low = mid
            else:
                high = mid - 1
        return low

    def match_blocks(self, request: "Request", max_tokens: int) -> List[int]:
        """Physical blocks of the longest cached prefix, capped at ``max_tokens`` tokens.

        The trie, counters and LRU stamps do not move (the key table may memoize the
        stream's chain), so the admission loop, the fast-forward parked proofs and the
        cluster's cache-affinity router can all probe it without perturbing the simulation.
        """
        chain = self._keys._chain(request)
        depth = self._cached_depth(chain, max_tokens // self._keys.block_tokens)
        nodes = self._nodes
        return [nodes[key].block for key in chain[:depth]]

    def match_tokens(self, request: "Request", max_tokens: int) -> int:
        """Tokens the cache could serve for ``request`` right now (router affinity probe)."""
        block_tokens = self._keys.block_tokens
        depth = self._cached_depth(self._keys._chain(request), max_tokens // block_tokens)
        return depth * block_tokens

    # ------------------------------------------------------------------ mutation
    def commit_hit(self, request: "Request", num_blocks: int) -> None:
        """Record a fork-on-admit of the ``num_blocks`` blocks :meth:`match_blocks` just
        returned; refresh their LRU stamps."""
        self._tick += 1
        stamp = self._tick
        nodes = self._nodes
        for key in self._keys._chain(request)[:num_blocks]:
            nodes[key].stamp = stamp
        self.hits += 1
        self.saved_tokens += num_blocks * self._keys.block_tokens

    def record_miss(self) -> None:
        self.misses += 1

    def insert(self, request: "Request", blocks: List[int]) -> int:
        """Publish a completed prefill's shareable prefix; returns newly cached blocks.

        ``blocks`` is the prefilling sequence's block list; its leading blocks, one per
        key of the request's chain (the full blocks of its shareable prefix), are published.
        Already-cached depth is left untouched (first writer wins — a concurrent duplicate
        prefill does not replace the published block) but has its LRU refreshed; the new
        depth takes one pool reference per block, all in one call.
        """
        chain = self._keys._chain(request)
        published = min(len(chain), len(blocks))
        if not published:
            return 0
        self._tick += 1
        stamp = self._tick
        nodes = self._nodes
        depth = self._cached_depth(chain, published)
        for key in chain[:depth]:
            nodes[key].stamp = stamp
        added = published - depth
        if added:
            fresh = blocks[depth:published]
            self.kv_cache.retain_blocks(fresh)
            parent = nodes[chain[depth - 1]] if depth else None
            for key, block in zip(chain[depth:published], fresh):
                node = nodes[key] = _PrefixNode(key, parent, block, stamp)
                if parent is not None:
                    parent.children += 1
                parent = node
            self.inserted_blocks += added
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
        self._nodes.clear()
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.saved_tokens = 0
        self.inserted_blocks = 0
        self.evicted_blocks = 0
