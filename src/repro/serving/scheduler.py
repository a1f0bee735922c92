"""Request-level continuous-batching simulation (Orca/vLLM-style iteration scheduling).

Table 1 uses fixed-length batches, but a production serving system admits and retires
requests continuously, bounded by the paged KV cache.  This module simulates that behaviour
on top of the engine's *ragged* step-time model as an event-driven loop over scheduler
iterations:

* **Mixed iterations** — every iteration packs one decode token per running sequence plus
  chunked-prefill tokens from admitting requests into a single ragged forward pass, under an
  iteration token budget (the vLLM ``max_num_batched_tokens`` knob).  A long prompt therefore
  never stalls running decodes for a full serial prefill (Sarathi-style chunked prefill).
* **Per-sequence attention accounting** — decode attention is charged at each sequence's own
  cached context length via :meth:`ServingEngine.mixed_step_time`, not at the batch maximum.
* **Policy-driven preemption** — when the paged KV pool runs dry mid-decode the scheduler
  evicts the lowest-priority resident (per the scheduling policy) and the
  :class:`~repro.serving.policies.PreemptionPolicy` decides what happens to its KV state:
  *recompute* (free the blocks, re-prefill prompt + already-emitted tokens later) or *swap*
  (move the blocks to a bounded host-memory pool over the PCIe link and restore them once
  device blocks free up, paying the transfer time instead of the re-prefill).
  :class:`KvCacheOutOfMemory` never propagates out of :meth:`run`.
* **Policy-keyed admission heap** — pending arrivals sit in a min-heap keyed by arrival
  time; admitted-but-waiting requests sit in a second heap keyed by the pluggable
  :class:`~repro.serving.policies.SchedulingPolicy` (FCFS, priority, SJF, max-min fairness).

The scheduler is *steppable*: :meth:`ContinuousBatchingScheduler.begin` /
:meth:`~ContinuousBatchingScheduler.submit` / :meth:`~ContinuousBatchingScheduler.step`
expose one replica's event loop to an outer driver, which is how
:class:`~repro.serving.cluster.ServingCluster` advances N replicas on a shared virtual
clock (and how disaggregated prefill/decode hands sequences between replicas via
:meth:`~ContinuousBatchingScheduler.submit_resumed`).  :meth:`run` is the single-replica
convenience loop built on exactly that machinery.

Per-request timestamps (arrival, first scheduled, first token, completion, preemptions) are
recorded so SLO metrics (p50/p99 TTFT, TPOT, goodput — :mod:`repro.serving.metrics`) can be
computed on top.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import heapq
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from typing import TYPE_CHECKING

from .engine import PrefillChunk, ServingEngine, peak_resident_tokens
from .kvcache import KvCacheOutOfMemory, PagedKvCache, SequenceState
from .metrics import SloReport, SloSpec, compute_slo_report
from .prefixcache import PrefixCache, PrefixKeyTable
from .policies import (
    PreemptionPolicy,
    SchedulingPolicy,
    get_preemption_policy,
    get_scheduling_policy,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import, keeps serving decoupled
    from ..telemetry.tracer import Tracer

__all__ = ["Request", "SchedulerStats", "ContinuousBatchingScheduler"]


@functools.lru_cache(maxsize=None)
def _field_values(cls) -> operator.attrgetter:
    """A getter of every dataclass field's value of a ``cls`` instance, in ``__init__``
    order."""
    return operator.attrgetter(*(f.name for f in dataclasses.fields(cls)))


def _blocks_to_grow(state: SequenceState, tokens: int, block_tokens: int) -> int:
    """Blocks a resident sequence adds to grow by ``tokens`` tokens: the pool keeps every
    sequence at exactly ``ceil(tokens / block_tokens)`` blocks."""
    return (state.num_tokens + tokens + block_tokens - 1) // block_tokens - len(state.blocks)


def _share(used: int, total: int) -> float:
    """``used / total``, 0.0 for an empty pool (as :meth:`PagedKvCache.utilization`)."""
    return used / total if total else 0.0


@dataclass(eq=False, slots=True)
class Request:
    """One inference request.

    Requests are mutable identity-bearing objects the scheduler tracks through queues, so
    equality is *identity* (``eq=False``): membership tests against the resident lists must
    never walk every field of every request per comparison.  ``slots=True`` cuts the
    per-request memory and attribute-access cost on the million-request traces the
    simulator targets; compare requests field-by-field where value equality is needed.
    """

    request_id: int
    prompt_tokens: int
    output_tokens: int
    arrival_time_s: float = 0.0
    #: Scheduling priority (higher = more important); only the 'priority' policy reads it.
    priority: int = 0
    #: Prefix-sharing namespace (trace-owned, stable across :func:`merge_traces`): only
    #: requests with equal ``prefix_group`` can share cached prefix blocks.  ``None``
    #: is itself a namespace, so single-tenant traces need not pick a group id.
    prefix_group: Optional[int] = None
    #: Ordered ``(segment_id, num_tokens)`` pairs describing the shareable *head* of the
    #: prompt (system prompt, RAG template, tool transcript...).  Two requests share
    #: exactly as many leading tokens as their segment streams agree on; the remainder of
    #: the prompt (beyond ``sum(num_tokens)``) is private.  Trace-owned: never reset.
    prefix_segments: Tuple[Tuple[int, int], ...] = ()
    # Filled by the scheduler:
    first_scheduled_time_s: Optional[float] = None
    first_token_time_s: Optional[float] = None
    completion_time_s: Optional[float] = None
    generated: int = 0
    preemptions: int = 0
    # Prefill progress of the current pass (recompute restarts it over prompt + emitted):
    prefilled: int = 0
    prefill_target: int = 0
    #: Tokens of the current pass served from the prefix cache instead of prefill
    #: (fork-on-admit).  Counted inside ``prefilled`` — it is prefill work *skipped*.
    cached_prefix_tokens: int = 0
    #: Non-zero on a sequence migrated between replicas (disaggregated prefill/decode): the
    #: KV tokens that arrive by interconnect DMA instead of local prefill.  The transfer is
    #: charged by the cluster; admission here only needs the blocks.
    imported_kv_tokens: int = 0

    @property
    def finished(self) -> bool:
        return self.generated >= self.output_tokens

    @property
    def decoding(self) -> bool:
        """True once the current prefill pass is complete (the request emits decode tokens)."""
        return bool(self.prefill_target) and self.prefilled >= self.prefill_target

    @property
    def shareable_prefix_tokens(self) -> int:
        """Length of the shareable prompt head described by :attr:`prefix_segments`."""
        return sum(tokens for _, tokens in self.prefix_segments)

    def remaining_tokens(self) -> int:
        """Tokens of work left (prefill positions still to cache + tokens still to emit)."""
        target = self.prefill_target or self.prompt_tokens
        return max(0, target - self.prefilled) + max(0, self.output_tokens - self.generated)

    def __copy__(self) -> "Request":
        """A shallow copy built by the constructor from every dataclass field's value.

        ``copy.copy`` would otherwise reconstruct the slotted instance through
        ``__reduce_ex__``, several times slower, and every completed request is copied
        at least once per run (:meth:`ContinuousBatchingScheduler.stats` snapshots).
        The field list is derived per class, so a field added later, here or in a
        subclass, is copied too; every field is an ``__init__`` argument.
        """
        cls = type(self)
        return cls(*_field_values(cls)(self))

    def reset_scheduler_state(self) -> None:
        """Clear every scheduler-owned field, making the request safe to (re-)submit.

        The single authority on what the scheduler owns: both the scheduler's
        :meth:`~ContinuousBatchingScheduler.submit` and the cluster's merge-target reset
        call this, so a new field can never be reset in one place and leak in the other.
        """
        self.first_scheduled_time_s = None
        self.first_token_time_s = None
        self.completion_time_s = None
        self.generated = 0
        self.preemptions = 0
        self.prefilled = 0
        self.prefill_target = 0
        self.cached_prefix_tokens = 0
        self.imported_kv_tokens = 0


@dataclass(slots=True)
class SchedulerStats:
    """Aggregate statistics of one simulation run."""

    simulated_time_s: float
    completed_requests: int
    generated_tokens: int
    mean_ttft_s: float
    mean_latency_s: float
    peak_batch_size: int
    peak_kv_utilization: float
    # Request-level extensions (defaults keep older call sites working):
    p50_ttft_s: float = 0.0
    p99_ttft_s: float = 0.0
    mean_tpot_s: float = 0.0
    p99_tpot_s: float = 0.0
    preemptions: int = 0
    num_iterations: int = 0
    prefill_chunks: int = 0
    # Swap-based preemption accounting:
    swap_preemptions: int = 0
    recompute_preemptions: int = 0
    # Preemption *reason* accounting: every live preemption is either KV pressure
    # (a decode-slot allocation failed mid-iteration) or a policy victim (the stall
    # path evicted the lowest-priority resident so others could progress), so
    # ``preemptions == preemptions_kv_pressure + preemptions_policy_victim``.
    # Pressure events absorbed by evicting idle prefix-cache blocks preempt nobody
    # and are counted separately.  That avert counter is a *code-path diagnostic*, not
    # a trajectory invariant: stepwise and fast-forward runs reach bit-identical KV /
    # cache / request state, but may group the very same evicted blocks into a
    # different number of pressure events (one big admission-loop evict vs an averted
    # preemption plus a small one), so it is excluded from the fast-forward
    # equivalence contract via field metadata.
    preemptions_kv_pressure: int = 0
    preemptions_policy_victim: int = 0
    preemptions_averted_by_cache: int = field(
        default=0, metadata={"fast_forward_invariant": False}
    )
    swap_ins: int = 0
    kv_transfer_s: float = 0.0
    peak_host_kv_utilization: float = 0.0
    # Prefix-cache accounting (all zero when prefix caching is disabled):
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_saved_tokens: int = 0
    prefix_blocks_inserted: int = 0
    prefix_blocks_evicted: int = 0
    prefix_cached_blocks: int = 0
    requests: List[Request] = field(default_factory=list)
    #: The report against the default :class:`SloSpec` that the scheduler's ``stats()``
    #: summarized ``requests`` into for the fields above (None for stats built by hand).
    #: Only a report's attainment depends on the SLO, so :meth:`slo_report` copies it.
    _slo_summary: Optional[SloReport] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.simulated_time_s <= 0:
            return 0.0
        return self.generated_tokens / self.simulated_time_s

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of admission lookups that found a cached prefix."""
        lookups = self.prefix_cache_hits + self.prefix_cache_misses
        return self.prefix_cache_hits / lookups if lookups else 0.0

    def slo_report(self, slo: Optional[SloSpec] = None) -> SloReport:
        """SLO attainment / goodput of the completed requests of this run."""
        summary = self._slo_summary
        if summary is None:
            return compute_slo_report(self.requests, slo, makespan_s=self.simulated_time_s)
        slo = slo or summary.slo
        attained = summary.slo_attained if slo == summary.slo else slo.attained_by(self.requests)
        return dataclasses.replace(summary, slo=slo, slo_attained=attained)


class ContinuousBatchingScheduler:
    """Iteration-level scheduler over the serving engine's ragged step-time model.

    ``scheduling_policy`` orders admission (and victim selection); ``preemption_policy``
    chooses swap vs. recompute per victim.  ``kv_budget_bytes`` / ``host_kv_budget_bytes``
    override the engine-derived device pool and the system profile's host swap pool — the
    knobs for KV-pressure studies.  ``overlap_swap_transfers`` overlaps KV swap traffic with
    compute: an iteration is charged ``max(step_compute, pending_transfers)`` instead of
    their sum (the serialized model), matching runtimes that issue swap DMAs on a side
    stream.  These keyword options are declared here only:
    :class:`~repro.serving.cluster.ServingCluster`, ``RunSpec.scheduler_options`` and the
    ``simulate_*`` wrappers forward them by name.

    Two driving modes share one core:

    * :meth:`run` — the classic batch API: feed a whole trace, get :class:`SchedulerStats`.
    * :meth:`begin` / :meth:`submit` / :meth:`step` / :meth:`stats` — the steppable API a
      cluster driver uses to interleave this replica with others on a shared virtual clock.
      :meth:`submit_resumed` admits a sequence migrated from another replica (its KV arrives
      by interconnect transfer, its timestamps are preserved).
    """

    def __init__(
        self,
        engine: ServingEngine,
        max_batch_size: Optional[int] = None,
        max_batched_tokens: Optional[int] = None,
        prefill_chunk_tokens: int = 256,
        scheduling_policy: Union[str, SchedulingPolicy] = "fcfs",
        preemption_policy: Union[str, PreemptionPolicy] = "recompute",
        kv_budget_bytes: Optional[int] = None,
        host_kv_budget_bytes: Optional[int] = None,
        overlap_swap_transfers: bool = False,
        fast_forward: bool = True,
        prefix_caching: bool = False,
        tracer: Optional["Tracer"] = None,
        trace_replica: int = 0,
    ):
        self.engine = engine
        if not engine.supported:
            raise ValueError(
                f"system {engine.system.name!r} does not support model {engine.model.name!r}"
            )
        config = engine.kv_cache_config()
        if kv_budget_bytes is not None and kv_budget_bytes <= 0:
            raise ValueError("kv_budget_bytes must be positive")
        if host_kv_budget_bytes is not None and host_kv_budget_bytes < 0:
            raise ValueError("host_kv_budget_bytes must be non-negative")
        if kv_budget_bytes is not None or host_kv_budget_bytes is not None:
            config = dataclasses.replace(
                config,
                memory_budget_bytes=(
                    kv_budget_bytes if kv_budget_bytes is not None
                    else config.memory_budget_bytes
                ),
                host_memory_budget_bytes=(
                    host_kv_budget_bytes if host_kv_budget_bytes is not None
                    else config.host_memory_budget_bytes
                ),
            )
        if config.memory_budget_bytes <= 0:
            raise KvCacheOutOfMemory("model weights alone exceed the device memory budget")
        if max_batch_size is None:
            max_batch_size = engine.system.max_batch_size
        if max_batched_tokens is None:
            max_batched_tokens = engine.system.max_batched_tokens
        for knob, value in (("max_batch_size", max_batch_size),
                            ("max_batched_tokens", max_batched_tokens),
                            ("prefill_chunk_tokens", prefill_chunk_tokens)):
            if value < 1:
                raise ValueError(f"{knob} must be positive, got {value}")
        self.kv_cache = PagedKvCache(config)
        self.max_batch_size = max_batch_size
        self.max_batched_tokens = max_batched_tokens
        self.prefill_chunk_tokens = min(prefill_chunk_tokens, self.max_batched_tokens)
        self.scheduling_policy = get_scheduling_policy(scheduling_policy)
        self.preemption_policy = get_preemption_policy(preemption_policy)
        self.overlap_swap_transfers = overlap_swap_transfers
        #: Radix-tree prefix caching (fork-on-admit): admission looks up the longest
        #: cached prefix of each request's ``prefix_segments`` and seeds the sequence
        #: with the matching blocks, prefilling only the uncached suffix.
        self.prefix_caching = prefix_caching
        #: Analytic fast-forward: :meth:`run` (and the cluster driver) may advance runs of
        #: frozen-composition iterations in closed-form jumps instead of looping
        #: :meth:`step`.  Bit-identical either way — the flag exists for equivalence tests
        #: and for callers that want to drive every iteration explicitly.
        self.fast_forward_enabled = fast_forward
        #: Optional telemetry sink.  ``None`` is the null tracer: every hook below is a
        #: single ``is not None`` guard, so tracing off adds no work to the hot paths
        #: and a traced run is bit-identical to an untraced one (purely observational).
        self._tracer = tracer
        self._trace_replica = trace_replica
        if tracer is not None:
            # Routes the engine's cache_stats() into the run summary (the engine emits no
            # events of its own); replicas sharing one engine register it once.
            tracer.attach_engine(engine)
        self.begin()

    # ------------------------------------------------------------------ internals
    def _check_servable(self, request: Request) -> None:
        if request.prompt_tokens < 1 or request.output_tokens < 1:
            raise ValueError(
                f"request {request.request_id}: prompt_tokens and output_tokens must be >= 1"
            )
        if request.prefix_segments:
            try:
                hash((request.prefix_group, request.prefix_segments))
            except TypeError:
                raise ValueError(f"request {request.request_id}: prefix_group and "
                                 "prefix_segments must be hashable (tuples)") from None
            if not isinstance(request.prefix_segments, tuple):
                raise ValueError(f"request {request.request_id}: prefix segments must be "
                                 "a tuple of (id, tokens) pairs")
            shareable = 0
            for segment in request.prefix_segments:
                if not isinstance(segment, tuple) or len(segment) != 2:
                    raise ValueError(f"request {request.request_id}: prefix segment "
                                     f"{segment!r} is not an (id, tokens) pair")
                try:
                    seg_tokens = operator.index(segment[1])
                except TypeError:
                    raise ValueError(f"request {request.request_id}: prefix segment "
                                     f"{segment!r} needs an integer token count") from None
                if seg_tokens < 1:
                    raise ValueError(
                        f"request {request.request_id}: prefix segments need >= 1 token"
                    )
                shareable += seg_tokens
            if shareable > request.prompt_tokens:
                raise ValueError(
                    f"request {request.request_id}: prefix segments cover {shareable} "
                    f"tokens but the prompt has only {request.prompt_tokens}"
                )
        peak_tokens = peak_resident_tokens(request.prompt_tokens, request.output_tokens)
        needed = self.kv_cache.config.blocks_for_tokens(peak_tokens)
        if needed > self.kv_cache.config.total_blocks:
            raise ValueError(
                f"request {request.request_id} needs {needed} KV blocks at peak but the pool "
                f"has only {self.kv_cache.config.total_blocks}; it can never be scheduled"
            )

    @staticmethod
    def _resume_tokens(victim: Request) -> int:
        """Cached tokens the victim needs to resume exactly where it stopped.

        A decoding victim resumes at ``prompt + generated - 1`` (the newest token's KV was
        never written); a mid-prefill victim resumes at its prefill progress.  A victim that
        already reserved this iteration's decode slot holds one extra token, which the swap
        path truncates away before the transfer.
        """
        if victim.decoding:
            return victim.prompt_tokens + max(0, victim.generated - 1)
        return victim.prefilled

    def _pick_victim(self, exclude: Optional[Request] = None) -> Optional[Request]:
        """Lowest-priority resident request per the scheduling policy (FCFS: latest arrival).

        Under a swap-leaning preemption policy, residents whose blocks are shared (a fork,
        or a prefix-cache seed) are skipped while an unshared candidate exists: a shared
        victim can never swap (``swap_out`` refuses to split a fork) and would silently
        degrade to recompute, wasting the policy's host pool.  With every candidate
        shared, selection falls back to the policy's normal choice and the degrade path
        recompute-preempts it — the ValueError can never escape.
        """
        candidates = [r for r in self._prefilling + self._running if r is not exclude]
        if not candidates:
            return None
        if self.preemption_policy.prefers_swap:
            unshared = [
                r for r in candidates if not self.kv_cache.shares_blocks(r.request_id)
            ]
            if unshared:
                candidates = unshared
        return self.scheduling_policy.select_victim(candidates)

    # ------------------------------------------------------------------ steppable session
    def begin(self, clock: float = 0.0, prefix_keys: Optional[PrefixKeyTable] = None) -> None:
        """Start a fresh steppable session at virtual time ``clock``.

        Resets every piece of per-run scheduler state (queues, counters, peaks).  The KV
        pool itself is kept — a completed session drains it of live sequences, and tests
        are free to replace :attr:`kv_cache` before the first :meth:`submit`.  The prefix
        cache is rebuilt empty: its held blocks are released back to the pool it was
        bound to, so re-running the same trace can never warm-start from a previous
        session's cache (A/B runs must not leak state).  ``prefix_keys`` is the run's
        shared prefix-key table (a cluster run hands one to every replica); by default
        the cache builds its own.  It changes no result.
        """
        previous_cache = getattr(self, "prefix_cache", None)
        if previous_cache is not None:
            previous_cache.reset()
        self.prefix_cache: Optional[PrefixCache] = (
            PrefixCache(self.kv_cache, prefix_keys) if self.prefix_caching else None
        )
        tracer = getattr(self, "_tracer", None)
        if tracer is not None:
            clock_fn = lambda: self._clock  # noqa: E731 - bound late, reads live clock
            self.kv_cache.bind_tracer(tracer, self._trace_replica, clock_fn)
            if self.prefix_cache is not None:
                self.prefix_cache.bind_tracer(tracer, self._trace_replica, clock_fn)
        self._waiting: List[Tuple[Tuple, int, Request]] = []
        self._imported: List[Tuple[Tuple, int, Request]] = []
        self._push_counter = 0
        self._prefilling: List[Request] = []
        self._running: List[Request] = []
        self._swapped: List[Request] = []
        self._completed: List[Request] = []
        self._newly_completed: List[Request] = []
        self._clock = clock
        self._pending_transfer_s = 0.0
        self._generated_tokens = 0
        self._outstanding_tokens = 0
        self._peak_batch = 0
        # KV peaks in used blocks; stats() divides each by its pool's total once.
        self._peak_used_blocks = 0
        self._peak_host_used_blocks = 0
        self._preemption_count = 0
        self._kv_pressure_count = 0
        self._policy_victim_count = 0
        self._cache_averted_count = 0
        self._swap_count = 0
        self._recompute_count = 0
        self._swap_in_count = 0
        self._transfer_s_total = 0.0
        self._num_iterations = 0
        self._chunk_count = 0
        self._next_sample_s = clock

    @property
    def clock(self) -> float:
        """The replica's local virtual time (end of its last iteration)."""
        return self._clock

    @property
    def has_work(self) -> bool:
        """True while any request is queued, resident, swapped out, or awaiting KV import."""
        return bool(
            self._waiting or self._imported or self._prefilling
            or self._running or self._swapped
        )

    # ---- load metrics read by router policies (cheap, side-effect free).
    @property
    def outstanding_tokens(self) -> int:
        """Total tokens of work queued or in flight on this replica.

        Maintained incrementally on submit / step / preempt / finish, so a cluster router
        polling every replica per dispatch costs O(replicas), not O(resident requests).
        """
        return self._outstanding_tokens

    def _outstanding_tokens_scan(self) -> int:
        """O(n) recount of :attr:`outstanding_tokens` — the invariant tests pin the
        incremental counter against."""
        queues = (
            [r for _, _, r in self._waiting],
            [r for _, _, r in self._imported],
            self._prefilling,
            self._running,
            self._swapped,
        )
        return sum(r.remaining_tokens() for queue in queues for r in queue)

    @property
    def kv_load(self) -> float:
        """Device KV-pool utilization in [0, 1]."""
        return self.kv_cache.utilization()

    @property
    def num_resident(self) -> int:
        return len(self._prefilling) + len(self._running)

    @property
    def queue_depth(self) -> int:
        return len(self._waiting) + len(self._imported)

    def submit(self, request: Request, now: Optional[float] = None) -> None:
        """Enqueue a fresh request, resetting any scheduler-owned state it carries.

        ``now`` is the submission time: an idle replica's clock jumps forward to it (a busy
        replica's clock is already past it — the request waits for the next iteration).
        """
        self._check_servable(request)
        self._submit(request, now)

    def _submit(self, request: Request, now: Optional[float] = None) -> None:
        """:meth:`submit` for a request :meth:`_check_servable` has already passed."""
        request.reset_scheduler_state()
        if now is not None:
            self._clock = max(self._clock, now)
        self._outstanding_tokens += request.remaining_tokens()
        self._push_waiting(request)
        if self._tracer is not None:
            self._tracer.emit(
                "arrive", request.arrival_time_s, replica=self._trace_replica,
                request_id=request.request_id,
                prompt_tokens=request.prompt_tokens,
                output_tokens=request.output_tokens,
            )

    def submit_resumed(self, request: Request, now: Optional[float] = None) -> None:
        """Enqueue a sequence migrated from another replica, preserving its timestamps.

        A request with ``imported_kv_tokens > 0`` resumes decoding as soon as the device
        pool can hold its transferred KV blocks (the interconnect transfer itself is the
        caller's — the cluster's — to charge); anything else re-enters the normal
        policy-keyed admission path and re-prefills locally.
        """
        self._check_servable(request)
        self._submit_resumed(request, now)

    def _submit_resumed(self, request: Request, now: Optional[float] = None) -> None:
        """:meth:`submit_resumed` for a request :meth:`_check_servable` has already passed."""
        if now is not None:
            self._clock = max(self._clock, now)
        self._outstanding_tokens += request.remaining_tokens()
        if self._tracer is not None:
            # Timestamped at the handoff instant (the migration's end), not the local
            # clock: a busy replica's clock may already be past it, but the request's
            # queue phase starts the moment its KV landed.
            self._tracer.emit(
                "enqueue", now if now is not None else self._clock,
                replica=self._trace_replica, request_id=request.request_id,
                imported_kv_tokens=request.imported_kv_tokens,
            )
        if request.imported_kv_tokens > 0:
            heapq.heappush(
                self._imported,
                (self.scheduling_policy.key(request), self._push_counter, request),
            )
            self._push_counter += 1
        else:
            self._push_waiting(request)

    def drain_completed(self) -> List[Request]:
        """Pop the requests that finished since the last call (cluster handoff hook)."""
        done, self._newly_completed = self._newly_completed, []
        return done

    def stats(self) -> SchedulerStats:
        """Aggregate statistics of the session so far (a pure snapshot — safe across
        re-runs, and polling it mid-session never perturbs the simulation)."""
        # Swap traffic that has not yet found an iteration to hide behind (overlap mode)
        # counts toward the makespan, but stays pending: the next iteration may still
        # absorb it under max(compute, transfers).
        makespan = self._clock + self._pending_transfer_s
        snapshot = [copy.copy(r) for r in self._completed]
        summary = compute_slo_report(snapshot, makespan_s=makespan)
        cache = self.prefix_cache
        config = self.kv_cache.config
        stats = SchedulerStats(
            simulated_time_s=makespan,
            completed_requests=len(snapshot),
            generated_tokens=self._generated_tokens,
            mean_ttft_s=summary.mean_ttft_s,
            mean_latency_s=summary.mean_latency_s,
            peak_batch_size=self._peak_batch,
            peak_kv_utilization=_share(self._peak_used_blocks, config.total_blocks),
            p50_ttft_s=summary.p50_ttft_s,
            p99_ttft_s=summary.p99_ttft_s,
            mean_tpot_s=summary.mean_tpot_s,
            p99_tpot_s=summary.p99_tpot_s,
            preemptions=self._preemption_count,
            num_iterations=self._num_iterations,
            prefill_chunks=self._chunk_count,
            swap_preemptions=self._swap_count,
            recompute_preemptions=self._recompute_count,
            preemptions_kv_pressure=self._kv_pressure_count,
            preemptions_policy_victim=self._policy_victim_count,
            preemptions_averted_by_cache=self._cache_averted_count,
            swap_ins=self._swap_in_count,
            kv_transfer_s=self._transfer_s_total,
            peak_host_kv_utilization=_share(
                self._peak_host_used_blocks, config.total_host_blocks
            ),
            prefix_cache_hits=cache.hits if cache is not None else 0,
            prefix_cache_misses=cache.misses if cache is not None else 0,
            prefix_saved_tokens=cache.saved_tokens if cache is not None else 0,
            prefix_blocks_inserted=cache.inserted_blocks if cache is not None else 0,
            prefix_blocks_evicted=cache.evicted_blocks if cache is not None else 0,
            prefix_cached_blocks=cache.num_blocks if cache is not None else 0,
            requests=snapshot,
        )
        stats._slo_summary = summary
        return stats

    # ------------------------------------------------------------------ step internals
    def _admission_plan(self, request: Request, budget_left: int) -> Tuple[List[int], int]:
        """The ``(cached_blocks, first_chunk_tokens)`` admission would use right now.

        Shared by the admission loop and the fast-forward parked-queue proof so the two
        can never disagree on what admitting the top waiting request entails.  The cached
        match is capped one token short of the prefill target: the admitted request must
        always schedule at least one real chunk (the pass that emits its first token).
        """
        target = (
            request.prefill_target if request.prefill_target > 0 else request.prompt_tokens
        )
        cached_blocks: List[int] = []
        if self.prefix_cache is not None:
            cached_blocks = self.prefix_cache.match_blocks(request, target - 1)
        cached = len(cached_blocks) * self.kv_cache.config.block_tokens
        take = min(target - cached, self.prefill_chunk_tokens, budget_left)
        return cached_blocks, take

    def _push_waiting(self, request: Request) -> None:
        heapq.heappush(
            self._waiting,
            (self.scheduling_policy.key(request), self._push_counter, request),
        )
        self._push_counter += 1

    def _charge_transfer(self, transfer_s: float) -> None:
        """Account one swap transfer: serialize with the clock, or park it for overlap."""
        if self.overlap_swap_transfers:
            self._pending_transfer_s += transfer_s
        else:
            self._clock += transfer_s
        self._transfer_s_total += transfer_s

    def _do_swap_in(self, request: Request) -> None:
        """Restore a swapped sequence to the device pool, charging the transfer."""
        start = self._clock
        transfer = self.engine.kv_transfer_time(self.kv_cache.swap_in(request.request_id))
        self._charge_transfer(transfer)
        self._swap_in_count += 1
        self._swapped.remove(request)
        if request.decoding:
            self._running.append(request)
        else:
            self._prefilling.append(request)
        if self._tracer is not None:
            # end == self._clock is the actual post-charge clock: zero-width in
            # overlap mode (the DMA hides behind compute), start + transfer otherwise.
            self._tracer.emit(
                "swap_in", start, replica=self._trace_replica,
                request_id=request.request_id, end=self._clock,
                to="decode" if request.decoding else "prefill", transfer_s=transfer,
            )

    def _preempt_one(self, exclude: Optional[Request] = None, need_blocks: int = 1,
                     reason: str = "policy_victim") -> bool:
        # Cached-but-idle prefix blocks are reclaimed before any live sequence is
        # preempted: they cost queue-side re-prefill on a future miss, not live work.
        if (
            self.prefix_cache is not None
            and self.prefix_cache.evict(need_blocks) >= need_blocks
        ):
            self._cache_averted_count += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "preempt_averted", self._clock, replica=self._trace_replica,
                    need_blocks=need_blocks, reason=reason,
                )
            return True
        victim = self._pick_victim(exclude)
        if victim is None:
            return False
        if victim in self._prefilling:
            self._prefilling.remove(victim)
        else:
            self._running.remove(victim)
        victim.preemptions += 1
        self._preemption_count += 1
        if reason == "kv_pressure":
            self._kv_pressure_count += 1
        else:
            self._policy_victim_count += 1
        # Drop any decode slot reserved this iteration (its KV is never written)
        # *before* the policy decides, so swap feasibility and the cost comparison see
        # the exact state a swap would transfer.
        self.kv_cache.truncate_sequence(victim.request_id, self._resume_tokens(victim))
        mode = self.preemption_policy.decide(victim, self.engine, self.kv_cache)
        # The no-OOM-escape contract is the scheduler's, not the policy's: a policy
        # (built-in or user-supplied) answering "swap" without host room degrades to
        # recompute instead of letting swap_out raise out of run().
        if mode == PreemptionPolicy.SWAP and not self.kv_cache.can_swap_out(
            victim.request_id
        ):
            mode = PreemptionPolicy.RECOMPUTE
        if mode == PreemptionPolicy.SWAP:
            # Park the blocks in the host pool and charge the PCIe transfer.
            start = self._clock
            transfer = self.engine.kv_transfer_time(
                self.kv_cache.swap_out(victim.request_id)
            )
            self._charge_transfer(transfer)
            self._swap_count += 1
            self._swapped.append(victim)
            # The only place host usage grows: the host peak is sampled here alone.
            self._peak_host_used_blocks = max(
                self._peak_host_used_blocks, self.kv_cache.num_used_host_blocks
            )
            if self._tracer is not None:
                self._tracer.emit(
                    "preempt", start, replica=self._trace_replica,
                    request_id=victim.request_id, mode="swap", reason=reason,
                )
                self._tracer.emit(
                    "swap_out", start, replica=self._trace_replica,
                    request_id=victim.request_id, end=self._clock, transfer_s=transfer,
                )
        else:
            # Recompute: free the blocks and re-prefill the prompt plus every already-
            # emitted token except the newest (whose KV was never written); emitted
            # tokens themselves are kept — recompute only rebuilds KV.
            self.kv_cache.free_sequence(victim.request_id)
            self._recompute_count += 1
            before = victim.remaining_tokens()
            victim.prefilled = 0
            victim.prefill_target = victim.prompt_tokens + max(0, victim.generated - 1)
            victim.cached_prefix_tokens = 0  # re-admission re-matches the (live) trie
            self._outstanding_tokens += victim.remaining_tokens() - before
            self._push_waiting(victim)
            if self._tracer is not None:
                self._tracer.emit(
                    "preempt", self._clock, replica=self._trace_replica,
                    request_id=victim.request_id, mode="recompute", reason=reason,
                )
        return True

    def _finish(self, request: Request) -> None:
        request.completion_time_s = self._clock
        self.kv_cache.free_sequence(request.request_id)
        self._completed.append(request)
        self._newly_completed.append(request)
        if self._tracer is not None:
            self._tracer.emit(
                "finish", self._clock, replica=self._trace_replica,
                request_id=request.request_id, generated=request.generated,
            )

    def _reserve_decode_slots(self) -> List[int]:
        """Reserve this iteration's decode slot for every running sequence; returns the
        cached context of each sequence that keeps its slot, in running order.

        One :meth:`PagedKvCache.reserve_decode_slots` call reserves every slot the free
        pool can supply, in running order.  A slot that fits its tail block needs no new
        block, because every resident sequence holds exactly ``ceil(tokens /
        block_tokens)`` blocks and its shares are whole blocks (the
        :meth:`PagedKvCache.grow_states` precondition).  Only a slot that opens a block
        after the pool ran dry walks the guarded path, in running order: it preempts
        until its block fits.  A victim drops the slot it already holds (see
        :meth:`_preempt_one`) and is neither charged nor decoded.
        """
        running = self._running
        if not running:
            return []
        kv = self.kv_cache
        contexts, skipped = kv.reserve_decode_slots([r.request_id for r in running])
        if not skipped:
            return contexts
        batch = list(running)  # _preempt_one removes victims from self._running
        preemptions_before = self._preemption_count
        for position in skipped:
            request = batch[position]
            if self._preemption_count != preemptions_before and request not in running:
                continue  # evicted while making room for an earlier sequence
            state = kv.sequence(request.request_id)
            while True:
                try:
                    kv.extend_state(state, 1)
                    break
                except KvCacheOutOfMemory:
                    if not self._preempt_one(exclude=request,
                                             reason="kv_pressure"):  # pragma: no cover - guarded
                        raise RuntimeError(
                            "KV pool too small for a single request despite admission guard"
                        )
        if self._preemption_count == preemptions_before:
            return contexts
        kept = set(running)
        return [context for request, context in zip(batch, contexts) if request in kept]

    def step(self) -> None:
        """Execute one scheduler iteration, advancing the local clock.

        One call performs at most one mixed forward pass; calls that only shuffle KV state
        (preempting a stuck resident, swapping a sequence back in) are allowed to return
        without a pass — :attr:`has_work` tells the driver whether to keep stepping.
        Decode slots are reserved in one bulk KV call (:meth:`_reserve_decode_slots`);
        only slots that open a block after the pool ran dry are reserved one at a time.
        The bulk call skips the copy-on-write check under the precondition of the
        fast-forward bulk path (:meth:`PagedKvCache.grow_states`): no resident
        sequence's partially filled tail block is shared, because prefix-cache shares
        are whole blocks.  The prefill chunks come from :meth:`_plan_chunks` and the
        bookkeeping from :meth:`_advance` with ``k = 1``: the planner and the advance
        :meth:`fast_forward` runs an epoch with.
        """
        if not self.has_work:
            raise RuntimeError("step() called on an idle scheduler")
        kv = self.kv_cache

        # ---- land migrated sequences whose KV blocks fit (their transfer was already
        # charged by the cluster; the DMA costs no iteration compute).
        while self._imported and self.num_resident < self.max_batch_size:
            request = self._imported[0][2]
            needed = kv.config.blocks_for_tokens(request.imported_kv_tokens)
            if needed > kv.num_free_blocks:
                break  # wait for decode churn / completions to free device blocks
            heapq.heappop(self._imported)
            kv.add_sequence(request.request_id, request.imported_kv_tokens)
            # Landing collapses the request's notional local re-prefill (the full prompt)
            # into already-transferred KV: its remaining work shrinks accordingly.
            before = request.remaining_tokens()
            request.prefilled = request.prefill_target = request.imported_kv_tokens
            self._outstanding_tokens += request.remaining_tokens() - before
            self._running.append(request)
            if self._tracer is not None:
                self._tracer.emit(
                    "admit", self._clock, replica=self._trace_replica,
                    request_id=request.request_id, to="decode",
                    imported_kv_tokens=request.imported_kv_tokens,
                )

        # ---- swap sequences back in while the device pool has headroom: one spare
        # block per running sequence for this iteration's decode slot plus every
        # blocks a resident prefill needs for its next chunk.  Reserving the prefill
        # chunks is what prevents livelock: a swap-in must never reclaim the blocks a
        # no-progress eviction just freed for a blocked prefill.  With zero free blocks
        # no candidate can land (every swapped sequence holds >= 1 block), so the sorted
        # scan is skipped outright.
        if self._swapped and kv.num_free_blocks > 0:
            sequences, block_tokens = kv.sequences, kv.config.block_tokens

            def next_chunk_blocks(r: Request) -> int:
                take = min(r.prefill_target - r.prefilled, self.prefill_chunk_tokens)
                if take <= 0:
                    return 0
                return _blocks_to_grow(sequences[r.request_id], take, block_tokens)

            # Computed once, then updated incrementally as swap-ins land (the only
            # thing that changes the resident set inside this pass).
            headroom = len(self._running) + sum(
                next_chunk_blocks(r) for r in self._prefilling
            )
            for request in sorted(self._swapped, key=self.scheduling_policy.key):
                if self.num_resident >= self.max_batch_size:
                    break
                if self._swap_in_blocks(request) + headroom > kv.num_free_blocks:
                    continue
                self._do_swap_in(request)
                headroom += 1 if request.decoding else next_chunk_blocks(request)

        # ---- reserve one decode slot per running sequence, preempting on exhaustion.
        preemptions_before_iteration = self._preemption_count
        contexts = self._reserve_decode_slots()
        decode_batch = len(contexts)

        # ---- chunked prefill under the iteration token budget: allocate the planned
        # chunks, and report each starved one as the allocation failure it stands for.
        takes, budget, starved = self._plan_chunks(
            max(0, self.max_batched_tokens - decode_batch), kv.num_free_blocks
        )
        if starved and self._tracer is not None:
            for needed, free in starved:
                self._tracer.emit(
                    "kv_oom", self._clock, replica=self._trace_replica,
                    needed_blocks=needed, free_blocks=free,
                )
        for _, state, take in takes:
            kv.extend_state(state, take)

        # ---- admit new requests (skip while this iteration already preempted, so a
        # just-evicted victim cannot immediately reclaim the freed blocks and thrash).
        # With prefix caching, admission first looks up the longest cached prefix and
        # fork-on-admits the matching blocks, prefilling only the uncached suffix; when
        # the pool cannot fit the suffix chunk, cached-but-idle blocks are evicted
        # before admission gives up.
        if self._preemption_count == preemptions_before_iteration:
            while (
                self._waiting
                and budget > 0
                and self.num_resident < self.max_batch_size
            ):
                request = self._waiting[0][2]
                cached_blocks, take = self._admission_plan(request, budget)
                if not kv.can_admit(take):
                    needed = kv.config.blocks_for_tokens(take) - kv.num_free_blocks
                    if (
                        self.prefix_cache is None
                        or self.prefix_cache.evict(needed) < needed
                    ):
                        break
                    continue  # re-plan: eviction may have shrunk this very match
                heapq.heappop(self._waiting)
                if request.prefill_target <= 0:
                    request.prefill_target = request.prompt_tokens
                if request.first_scheduled_time_s is None:
                    request.first_scheduled_time_s = self._clock
                cached = len(cached_blocks) * kv.config.block_tokens
                if self._tracer is not None:
                    self._tracer.emit(
                        "admit", self._clock, replica=self._trace_replica,
                        request_id=request.request_id, to="prefill", cached_tokens=cached,
                    )
                if cached_blocks:
                    kv.fork_from_blocks(request.request_id, cached_blocks)
                    self.prefix_cache.commit_hit(request, len(cached_blocks))
                    before = request.remaining_tokens()
                    request.cached_prefix_tokens = cached
                    request.prefilled = cached
                    self._outstanding_tokens += request.remaining_tokens() - before
                    if self._tracer is not None:
                        self._tracer.emit(
                            "cache_hit", self._clock, replica=self._trace_replica,
                            request_id=request.request_id, tokens=cached,
                            blocks=len(cached_blocks),
                        )
                else:
                    if self.prefix_cache is not None:
                        self.prefix_cache.record_miss()
                    kv.add_sequence(request.request_id, 0)
                self._prefilling.append(request)
                takes.append((request, kv.extend_sequence(request.request_id, take), take))
                budget -= take

        # ---- sample the KV peak at its within-iteration high: after slot reservation,
        # prefill extension and admission, before finishers free blocks.
        self._peak_used_blocks = max(self._peak_used_blocks, kv.num_used_blocks)

        if decode_batch == 0 and not takes:
            # Every resident prefill is blocked on KV with nothing decoding: evict the
            # lowest-priority resident so the others can make progress.
            if self._prefilling or self._running:
                if self._preempt_one(reason="policy_victim"):
                    return
            if self._swapped:
                # Nothing is resident, so every device block is free or cached-but-idle
                # and any swapped sequence fits once the cache yields (each passed the
                # admission guard, and with no live sequences every cached block is
                # evictable): resume the one the scheduling policy ranks first,
                # preserving its service order.
                candidate = min(self._swapped, key=self.scheduling_policy.key)
                if self.prefix_cache is not None:
                    shortfall = (
                        kv.swapped_sequence(candidate.request_id).num_blocks
                        - kv.num_free_blocks
                    )
                    if shortfall > 0:
                        self.prefix_cache.evict(shortfall)
                self._do_swap_in(candidate)
                return
            if self._imported:
                # Imported sequences blocked on device blocks with nothing resident can
                # only mean the pool momentarily holds nothing — retry next step.
                return  # pragma: no cover - imports land as soon as blocks free up
            raise RuntimeError("scheduler made no progress")  # pragma: no cover

        # ---- one mixed iteration: ragged decode + prefill chunks in one forward pass;
        # a chunk that completes its prompt emits the first token unless one was emitted
        # before a recompute preemption.
        compute = self.engine.mixed_step_time(contexts, [
            PrefillChunk(take, request.prefilled,
                         request.prefilled + take >= request.prefill_target
                         and request.first_token_time_s is None)
            for request, _, take in takes
        ])
        # Overlap mode hides swap DMAs behind compute: the iteration takes whichever is
        # longer, never their sum (the serialized model).
        iteration_start = self._clock
        self._clock += max(compute, self._pending_transfer_s)
        self._pending_transfer_s = 0.0
        self._advance(1, takes, iteration_start, epoch=False)

    def _swap_in_blocks(self, request: Request) -> int:
        """Device blocks a swapped-out sequence needs to resume this iteration: its own
        blocks, plus its decode slot's block when it resumes decoding."""
        needed = self.kv_cache.swapped_sequence(request.request_id).num_blocks
        return needed + 1 if request.decoding else needed

    def _plan_chunks(
        self, budget: int, free: int
    ) -> Tuple[List[Tuple[Request, SequenceState, int]], int, List[Tuple[int, int]]]:
        """The iteration's prefill chunks, planned without touching the pool.

        The one chunk-budget walk: :meth:`step` allocates the chunks it plans and
        :meth:`fast_forward` pins them for an epoch.  ``budget`` is the iteration's token
        budget and ``free`` the free blocks, both what the decode slots leave.  In
        residence order, each resident prefill takes ``min(remaining,
        prefill_chunk_tokens, budget left)`` tokens when the blocks left cover its
        growth, and is *starved* otherwise: skipped without consuming budget, as when
        its allocation fails.  Its block need is the pool's: every sequence holds
        ``ceil(tokens / block_tokens)`` blocks, and no prefill's partially filled tail
        block is shared (prefix-cache shares are whole blocks), so no chunk copies a
        block on write.

        Returns ``(takes, budget_left, starved)``: ``(request, state, take)`` per
        planned chunk, the budget left for admission, and ``(needed, free)`` per starved
        chunk, the blocks it needed and the blocks left when the walk reached it.
        """
        sequences = self.kv_cache.sequences
        block_tokens = self.kv_cache.config.block_tokens
        chunk_tokens = self.prefill_chunk_tokens
        takes: List[Tuple[Request, SequenceState, int]] = []
        starved: List[Tuple[int, int]] = []
        for request in self._prefilling:
            if budget <= 0:
                break
            take = min(request.prefill_target - request.prefilled, chunk_tokens, budget)
            state = sequences[request.request_id]
            needed = _blocks_to_grow(state, take, block_tokens)
            if needed > free:
                starved.append((needed, free))
                continue
            free -= needed
            takes.append((request, state, take))
            budget -= take
        return takes, budget, starved

    def _advance(self, k: int, takes: Sequence[Tuple[Request, SequenceState, int]],
                 start: float, epoch: bool) -> None:
        """Account ``k`` iterations of the current batch, run from ``start`` to the clock.

        The one k-iteration advance: :meth:`step` calls it with ``k = 1`` and
        :meth:`fast_forward` once per epoch.  Every running sequence emitted ``k`` tokens
        and every chunk of ``takes`` ran ``k`` times.  The iteration, chunk and token
        counters, the outstanding-token counter, each sequence's progress and the batch
        peak move by their k-iteration deltas; then the running sequences that finished
        retire, in running order, and a prefill whose chunk completed its prompt starts
        decoding (a stepped iteration only: an epoch ends before such a chunk).

        ``epoch`` selects the trace form: one synthesized ``ff_mixed``/``ff_decode``
        span with its closed-form duration, with counters sampled before the finishers
        retire; or an ``iteration`` span and its ``chunk_prefill`` events, with counters
        sampled after.
        """
        running = self._running
        batch = len(running)
        self._num_iterations += k
        self._chunk_count += k * len(takes)
        self._generated_tokens += k * batch
        self._outstanding_tokens -= k * batch
        for request, _, take in takes:
            request.prefilled += k * take
            self._outstanding_tokens -= k * take
        self._peak_batch = max(self._peak_batch, batch + len(takes))
        tracer = self._tracer
        if tracer is not None:
            if epoch:
                tracer.emit(
                    "ff_mixed" if takes else "ff_decode", start,
                    replica=self._trace_replica, end=self._clock, iterations=k,
                    decode_batch=batch, chunks=len(takes),
                )
                self._maybe_sample_counters()
            else:
                tracer.emit(
                    "iteration", start, replica=self._trace_replica,
                    end=self._clock, decode_batch=batch, chunks=len(takes),
                )
                for request, _, take in takes:
                    tracer.emit(
                        "chunk_prefill", self._clock, replica=self._trace_replica,
                        request_id=request.request_id, tokens=take,
                    )

        finished: List[Request] = []
        for request in running:
            generated = request.generated + k
            request.generated = generated
            if generated >= request.output_tokens:
                finished.append(request)
        if finished:
            self._running = [r for r in running if r.generated < r.output_tokens]
            for request in finished:
                self._finish(request)

        for request, state, _ in takes:
            if request.prefilled < request.prefill_target:
                continue
            self._prefilling.remove(request)
            first_token = request.first_token_time_s is None
            if tracer is not None:
                tracer.emit(
                    "decode_start", self._clock, replica=self._trace_replica,
                    request_id=request.request_id, first_token=first_token,
                )
            if self.prefix_cache is not None and request.prefix_segments:
                # Publish the completed prefill's shareable prefix (full blocks only).
                # This runs before any completion-time free, so even a request that
                # finishes on its prefill pass (a disaggregated prefill replica's whole
                # population) leaves its prefix behind for the next arrival.
                self.prefix_cache.insert(request, state.blocks)
            if first_token:
                request.first_token_time_s = self._clock
                request.generated += 1
                self._generated_tokens += 1
                self._outstanding_tokens -= 1
            if request.finished:
                self._finish(request)
            else:
                self._running.append(request)
        if tracer is not None and not epoch:
            self._maybe_sample_counters()

    def _maybe_sample_counters(self) -> None:
        """Record one periodic gauge sample when the clock crossed the next boundary.

        Called (behind the null-tracer guard) at iteration and fast-forward-epoch ends,
        so samples land at the first boundary at or after each ``sample_interval_s``
        multiple — never mid-iteration, and never on the tracer-off hot path.
        """
        tracer = self._tracer
        if self._clock < self._next_sample_s:
            return
        cache = self.prefix_cache
        lookups = (cache.hits + cache.misses) if cache is not None else 0
        tracer.sample(self._trace_replica, self._clock, {
            "queue_depth": float(self.queue_depth),
            "running": float(len(self._running)),
            "prefilling": float(len(self._prefilling)),
            "swapped": float(len(self._swapped)),
            "kv_utilization": self.kv_cache.utilization(),
            "host_kv_utilization": self.kv_cache.host_utilization(),
            "prefix_hit_rate": (cache.hits / lookups) if lookups else 0.0,
            "outstanding_tokens": float(self._outstanding_tokens),
        })
        self._next_sample_s = self._clock + tracer.sample_interval_s

    # ------------------------------------------------------------------ fast-forward
    def _queues_parked(
        self, budget_left: int, takes: Sequence[Tuple[Request, SequenceState, int]]
    ) -> bool:
        """True when no queued request can enter the batch now — nor at any later
        iteration of a fast-forward epoch.

        A queued request only becomes schedulable through more free KV blocks, a smaller
        resident set, or leftover token budget.  Inside an epoch the resident set and
        the iteration budget (``budget_left``: what admission would see after the
        epoch's chunks, :meth:`_plan_chunks`) are frozen and free blocks only shrink —
        completions free theirs only after the epoch's last iteration — so "blocked
        now" implies "blocked for the whole epoch".  Per queue, mirroring :meth:`step`:

        * an imported sequence lands once its KV blocks fit;
        * a swapped-out sequence needs :meth:`_swap_in_blocks`, the need ``step()``'s
          swap-in scan checks, beside a *floor* of the headroom that scan reserves:
          one slot block per running sequence plus ``t // block_tokens`` per resident
          prefill, where ``t`` is the chunk the epoch schedules for it (``takes``), or
          ``min(remaining, prefill_chunk_tokens)`` for one it does not schedule.  The
          scan reserves ``_blocks_to_grow`` of ``t'`` tokens with ``t' = min(remaining,
          prefill_chunk_tokens)``.  The pool keeps every sequence at exactly
          ``ceil(tokens / block_tokens)`` blocks, so growing by ``t'`` tokens needs at
          least ``t' // block_tokens`` new ones.  An unscheduled prefill's ``t'`` is
          frozen for the epoch; a scheduled one's never drops below its take, because
          the epoch ends before its prompt-completing chunk.  So the real headroom never
          drops below the floor, and a candidate blocked at the floor stays blocked;
        * the top waiting request is admitted per :meth:`_admission_plan` — same cached
          match, same suffix chunk.  A blocked admission makes ``step()`` evict cached
          blocks, which changes the trie even when admission stays blocked, so it is
          parked only when no cached block is idle (:meth:`PrefixCache.can_free`).  The
          trie is structurally frozen inside an epoch (insert happens only at prefill
          completions, evict only in ``step()``'s pressure paths, hits only at
          admissions — all epoch-enders), and cached blocks' reference counts change
          only when a sequence is freed, after the epoch's last iteration.
        """
        if self.num_resident >= self.max_batch_size:
            return True
        kv = self.kv_cache
        free = kv.num_free_blocks
        if self._imported:
            request = self._imported[0][2]
            if kv.config.blocks_for_tokens(request.imported_kv_tokens) <= free:
                return False
        if self._swapped:
            headroom = len(self._running)
            scheduled = {request: take for request, _, take in takes}
            block_tokens = kv.config.block_tokens
            for request in self._prefilling:
                take = scheduled.get(request)
                if take is None:
                    take = min(request.prefill_target - request.prefilled,
                               self.prefill_chunk_tokens)
                headroom += take // block_tokens
            for request in self._swapped:
                if self._swap_in_blocks(request) + headroom <= free:
                    return False
        if self._waiting and budget_left > 0:
            _, take = self._admission_plan(self._waiting[0][2], budget_left)
            if kv.can_admit(take):
                return False
            return self.prefix_cache is None or not self.prefix_cache.can_free()
        return True

    def fast_forward(self, stop_before: Optional[float] = None) -> int:
        """Advance deterministic iterations in closed-form *epochs*.

        An epoch is a run of iterations whose batch composition is frozen: every running
        sequence decodes one token per iteration, and every resident prefill advances by
        the same chunk — the chunks :meth:`_plan_chunks` plans for the epoch's first
        iteration, over the free blocks its decode slots leave (decode-only is the epoch
        with no chunks).  One :meth:`_advance` call, the bookkeeping :meth:`step` runs
        per iteration, accounts the whole epoch.  The epoch ends at the first of:

        * the iteration that emits the earliest finisher's last token (it runs inside
          the epoch, which retires the finished requests);
        * the last iteration before a prompt-completing chunk (that chunk's first-token
          emission and prefix publication are left to :meth:`step`);
        * the last iteration whose KV allocations the free pool can supply;
        * the driver's horizon ``stop_before`` (the next arrival / cluster event): only
          iterations *starting* strictly before it run, matching the stepwise drivers.

        A chunk the planner starves stays starved for the whole epoch only if it cannot
        fit even the epoch's starting free-block count (free blocks only shrink); a
        chunk starved by allocation order alone is not provably stable, so the epoch is
        declined.  Queued work (waiting arrivals, un-landed imports, swapped-out
        sequences) does not force stepwise execution as long as it is provably parked
        for the whole epoch (:meth:`_queues_parked`).  An epoch that retires requests
        with nothing queued is followed by the next epoch in the same call; with work
        queued, the freed blocks may unpark it, so the next iteration goes back to
        :meth:`step`.

        Bit-identical to calling :meth:`step` the same number of times: one
        :meth:`~repro.serving.engine.ServingEngine.price_epoch` call prices the epoch's
        iterations with the core ``step()`` prices through and accumulates the clock by
        the same sequential float additions.  Returns the number of iterations
        advanced; 0 means the caller must :meth:`step` (admission, preemption, swaps, a
        prompt-completing chunk, ...).
        """
        if not self.fast_forward_enabled or self._pending_transfer_s != 0.0:
            return 0
        kv = self.kv_cache
        if kv.num_sequences != self.num_resident:
            return 0  # a replaced pool with foreign residents: step through it
        queued = bool(self._waiting or self._imported or self._swapped)
        block_tokens = kv.config.block_tokens
        sequences = kv.sequences
        engine = self.engine
        advanced = 0
        while self._running or self._prefilling:
            if stop_before is not None and not self._clock < stop_before:
                break
            running = self._running
            batch = len(running)
            budget = max(0, self.max_batched_tokens - batch)
            if queued and not self._prefilling and not self._queues_parked(budget, ()):
                break  # decided before the batch is walked: no chunk schedule to wait for

            # ---- one pass over the batch: its states, summed context and earliest
            # finisher (the remaining output of the first sequence to finish).
            run_states: List[SequenceState] = []
            total0 = 0
            finish = None
            for request in running:
                state = sequences[request.request_id]
                run_states.append(state)
                total0 += state.num_tokens
                left = request.output_tokens - request.generated
                if finish is None or left < finish:
                    finish = left
            free_blocks = kv.num_free_blocks

            # ---- the pinned chunk schedule: the planner over the blocks the decode
            # slots leave.
            takes: List[Tuple[Request, SequenceState, int]] = []
            if self._prefilling:
                avail = free_blocks
                for state in run_states:
                    # This sequence's decode slot opens a new block.
                    if (state.num_tokens + block_tokens) // block_tokens > len(state.blocks):
                        avail -= 1
                if avail < 0:
                    break  # the decode slots alone exhaust the pool: step() preempts
                takes, budget, starved = self._plan_chunks(budget, avail)
                if any(needed <= free_blocks for needed, _ in starved):
                    break  # starved by allocation order only
                if queued and not self._queues_parked(budget, takes):
                    break

            # ---- composition horizon: the earliest finisher's last decode iteration,
            # and ceil(remaining / take) - 1 iterations before each prefill's completing
            # chunk.
            k = finish
            for request, _, take in takes:
                safe = (request.prefill_target - request.prefilled + take - 1) // take - 1
                if k is None or safe < k:
                    k = safe
            if not k:
                break  # nothing to advance, or the next chunk completes a prompt

            # ---- KV horizon: growing every decode slot by k tokens and every scheduled
            # chunk by k chunks must fit the free pool.  A cheap worst-case bound (each
            # sequence one boundary past its growth) usually proves the pool ample;
            # otherwise binary search the largest feasible k (0: the next iteration's
            # allocation fails and step() runs the preemption / chunk-skip machinery).
            bound = batch * ((k + block_tokens - 1) // block_tokens + 1)
            for _, _, take in takes:
                bound += (k * take + block_tokens - 1) // block_tokens + 1
            if bound > free_blocks:
                growth = [(s.num_tokens + block_tokens - 1, len(s.blocks), 1)
                          for s in run_states]
                growth += [(s.num_tokens + block_tokens - 1, len(s.blocks), take)
                           for _, s, take in takes]

                def blocks_demanded(iterations: int) -> int:
                    demand = 0
                    for base, held, per_iteration in growth:
                        grown = (base + iterations * per_iteration) // block_tokens - held
                        if grown > 0:
                            demand += grown
                    return demand

                if blocks_demanded(k) > free_blocks:
                    lo, hi = 0, k  # invariant: demand(lo) <= free < demand(hi)
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        if blocks_demanded(mid) <= free_blocks:
                            lo = mid
                        else:
                            hi = mid
                    k = lo
                    if k == 0:
                        break

            # ---- price iterations 1..k in one engine call (iteration i sums decode
            # context T0 + (i-1) * batch; each chunk's cached prefix grows by its size),
            # cut at the horizon.
            k, new_clock = engine.price_epoch(
                batch, total0, [(take, request.prefilled) for request, _, take in takes],
                k, self._clock, stop_before,
            )

            # ---- apply: grow KV and move the clock; the advance then leaves the state k
            # step() calls leave.
            kv.grow_states(run_states, k)
            for _, state, take in takes:
                kv.extend_state(state, k * take)
            self._peak_used_blocks = max(self._peak_used_blocks, kv.num_used_blocks)
            epoch_start = self._clock
            self._clock = new_clock
            advanced += k
            self._advance(k, takes, epoch_start, epoch=True)
            if k != finish or queued:
                # Cut short of the earliest finisher (by a prompt-completing chunk, the
                # KV horizon or the driver's horizon), what cut the epoch is step()'s or
                # the driver's to handle; after a retirement with work queued, the freed
                # blocks may unpark it.
                break
        return advanced

    # ------------------------------------------------------------------ simulation
    def run(self, requests: Sequence[Request]) -> SchedulerStats:
        """Simulate serving ``requests`` to completion and return aggregate statistics.

        Never propagates :class:`KvCacheOutOfMemory`: KV exhaustion is absorbed by
        preempting resident requests (swapping or recomputing them later).

        Scheduler-owned fields on each request (timestamps, progress counters) are reset on
        entry, so the same trace can be re-run — e.g. to A/B two systems or two policies —
        without stale state leaking between runs.
        """
        # Every request is checked once, before any state changes.
        for request in requests:
            self._check_servable(request)

        self.begin()
        arrivals: List[Tuple[float, int, Request]] = [
            (r.arrival_time_s, r.request_id, r) for r in requests
        ]
        heapq.heapify(arrivals)

        while arrivals or self.has_work:
            # ---- admit arrived requests into the policy-keyed waiting heap.
            while arrivals and arrivals[0][0] <= self._clock:
                self._submit(heapq.heappop(arrivals)[2])
            if not self.has_work:
                self._clock = arrivals[0][0]
                continue
            # ---- frozen-composition epochs jump to the next event (arrival, completion,
            # prompt-completing chunk, KV exhaustion) in closed form; everything else
            # steps.
            if self.fast_forward(arrivals[0][0] if arrivals else None):
                continue
            self.step()

        return self.stats()
