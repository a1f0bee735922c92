"""Cluster-level serving: N replicas behind a pluggable router on one virtual clock.

This is the layer above the per-replica continuous-batching scheduler.  A
:class:`ServingCluster` owns a fleet of replicas — each a full
:class:`~repro.serving.engine.ServingEngine` +
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` pair with its own paged KV
pool — and advances them event-by-event on a shared virtual clock: the replica whose local
clock is furthest behind steps next, and arrivals/migrations are delivered the moment no
replica could still do earlier work.

Two topologies (see :class:`~repro.serving.systems.ClusterSpec`):

* **Co-located** — ``num_replicas`` identical replicas; the router spreads whole requests
  across them (round-robin / least-outstanding-tokens / least-KV-load).  This is the
  data-parallel baseline every disaggregation A/B compares against.
* **Disaggregated prefill/decode** (DistServe-style) — new requests run their prompt
  prefill (and emit the first token) on a *prefill replica*; the finished prefill's KV
  blocks are then exported from that replica's pool and migrated over the GPU interconnect
  (:meth:`~repro.serving.engine.ServingEngine.interconnect_transfer_time`) to a *decode
  replica*, which imports the blocks and decodes the remaining tokens.  Prefill iterations
  therefore never contend with decode batches (TTFT stops paying TPOT's bill and vice
  versa), at the price of one KV handoff per request — the tax this simulator charges
  explicitly and reports as ``kv_handoff_s``.

The KV handoff conserves state: the prefill replica frees exactly the blocks the decode
replica later allocates (``imported_kv_tokens``), and both pools drain to empty when the
trace completes — invariants the test suite checks.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import ServingEngine
from .metrics import SloReport, SloSpec, compute_slo_report
from .prefixcache import PrefixKeyTable
from .router import RouterPolicy, get_router_policy
from .scheduler import ContinuousBatchingScheduler, Request, SchedulerStats
from .systems import (
    REPLICA_ROLE_DECODE,
    REPLICA_ROLE_PREFILL,
    ClusterSpec,
)

__all__ = ["Replica", "ClusterResult", "ServingCluster"]

_EVENT_ARRIVAL = 0
_EVENT_MIGRATE = 1


@dataclass
class _RunState:
    """State scoped to one :meth:`ServingCluster.run` (kept off the cluster object so a
    finished run holds no references to its trace and helpers cannot be called out of
    order)."""

    events: List[Tuple[float, int, int, Request]] = field(default_factory=list)
    event_seq: int = 0
    origs: Dict[int, Request] = field(default_factory=dict)
    #: Completions keyed (completion_time_s, replica_id, per-replica drain index).  The
    #: key is *execution-mode invariant*: a fast-forwarding replica drains a whole jump's
    #: completions at once, so the raw cross-replica drain interleaving differs from
    #: stepwise execution — but each replica's own completion sequence never does.
    #: Sorting on this key therefore yields one canonical merged order (for a single
    #: replica it degenerates to plain drain order), keeping the merged SLO report's
    #: order-sensitive float sums bit-identical across modes.
    completed: List[Tuple[Tuple[float, int, int], Request]] = field(default_factory=list)
    _drain_seq: Dict[int, int] = field(default_factory=dict)
    kv_handoffs: int = 0
    kv_handoff_bytes: int = 0
    kv_handoff_s: float = 0.0

    def push_event(self, time_s: float, kind: int, request: Request) -> None:
        heapq.heappush(self.events, (time_s, self.event_seq, kind, request))
        self.event_seq += 1

    def merged_completions(self) -> List[Request]:
        """The completed requests in the canonical (mode-invariant) merged order."""
        return [request for _, request in sorted(self.completed, key=lambda e: e[0])]

    def record_completion(self, replica_id: int, request: Request) -> None:
        seq = self._drain_seq.get(replica_id, 0)
        self._drain_seq[replica_id] = seq + 1
        self.completed.append(((request.completion_time_s, replica_id, seq), request))


@dataclass
class Replica:
    """One serving replica: a GPU (or TP group) running its own engine + scheduler."""

    replica_id: int
    role: str  # "mixed" | "prefill" | "decode"
    engine: ServingEngine
    scheduler: ContinuousBatchingScheduler

    @property
    def clock(self) -> float:
        return self.scheduler.clock

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work


@dataclass
class ClusterResult:
    """Outcome of one :meth:`ServingCluster.run`: per-replica stats + merged request view.

    :func:`repro.core.run` returns this type for a single replica too (``mode="single"``,
    ``router="none"``, one entry per list).
    """

    mode: str
    router: str
    replica_roles: List[str]
    replica_stats: List[SchedulerStats]
    simulated_time_s: float
    completed_requests: int
    generated_tokens: int
    #: Disaggregation KV-handoff accounting (zero in co-located mode).
    kv_handoffs: int = 0
    kv_handoff_bytes: int = 0
    kv_handoff_s: float = 0.0
    #: Merged per-request view: each entry carries the request's full cluster lifecycle
    #: (arrival, first scheduled on its prefill replica, first token, completion on its
    #: decode replica) regardless of how many replicas served it.
    requests: List[Request] = field(default_factory=list)

    @property
    def num_replicas(self) -> int:
        return len(self.replica_stats)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.simulated_time_s <= 0:
            return 0.0
        return self.generated_tokens / self.simulated_time_s

    def slo_report(self, slo: Optional[SloSpec] = None) -> SloReport:
        """Cluster-level SLO summary over the merged completed requests."""
        return compute_slo_report(self.requests, slo, makespan_s=self.simulated_time_s)


class ServingCluster:
    """Event loop advancing N scheduler replicas on a shared virtual clock.

    Every replica is built from the same (system, model, device, tp_degree) and the same
    ``scheduler_options`` — the keyword options of
    :class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, forwarded as given — so
    a :class:`~repro.serving.systems.ClusterSpec` A/B holds resources equal:
    ``colocated`` with ``num_replicas=4`` and ``disaggregated`` with 2+2 both occupy four
    identical GPUs.  The router instance is re-created per :meth:`run`, so stateful
    policies (round-robin's cursor) cannot leak position between runs.
    """

    def __init__(
        self,
        system: str = "liquidserve",
        model: str = "llama2-7b",
        spec: Optional[ClusterSpec] = None,
        *,
        device: str = "H800",
        tp_degree: int = 1,
        engine: Optional[ServingEngine] = None,
        tracer=None,
        **scheduler_options,
    ):
        self.spec = spec or ClusterSpec()
        self.router_name = self.spec.router or self.spec.default_router
        get_router_policy(self.router_name)  # fail fast on an unknown policy
        self.replicas: List[Replica] = []
        # One engine serves the whole fleet: the engine is a pure (memoized) cost model —
        # replicas differ only in scheduler/KV state — so sharing it means a 16-replica
        # cluster warms one step-cost memo instead of sixteen.  ``engine`` lets sweep
        # workers inject an already-warm engine and carry the memo across grid cells.
        if engine is None:
            engine = ServingEngine(system, model, device=device, tp_degree=tp_degree)
        # One tracer serves the whole fleet: every replica's scheduler stamps its events
        # with its replica id, and the cluster itself adds routing + migration events.
        self._tracer = tracer
        for replica_id, role in enumerate(self.spec.roles()):
            scheduler = ContinuousBatchingScheduler(
                engine, tracer=tracer, trace_replica=replica_id, **scheduler_options
            )
            self.replicas.append(Replica(replica_id, role, engine, scheduler))
            if tracer is not None:
                tracer.set_replica_role(replica_id, role)
        self.prefill_replicas = [
            r for r in self.replicas if r.role == REPLICA_ROLE_PREFILL
        ]
        self.decode_replicas = [r for r in self.replicas if r.role == REPLICA_ROLE_DECODE]

    @property
    def disaggregated(self) -> bool:
        return self.spec.mode == "disaggregated"

    # ------------------------------------------------------------------ routing
    def _route_arrival(self, router: RouterPolicy, orig: Request, now: float) -> Replica:
        if self.disaggregated:
            # Phase 1 of the request's life: prompt prefill + first token on a prefill
            # replica.  A clone capped at one output token makes the replica's scheduler
            # retire the sequence exactly when the prefill phase ends.
            clone = copy.copy(orig)
            clone.output_tokens = 1
            target = router.select(self.prefill_replicas, orig)
            if self._tracer is not None:
                self._tracer.emit(
                    "route", now, replica=target.replica_id,
                    request_id=orig.request_id, role=target.role,
                    policy=self.router_name,
                )
            target.scheduler._submit(clone, now=now)
        else:
            target = router.select(self.replicas, orig)
            if self._tracer is not None:
                self._tracer.emit(
                    "route", now, replica=target.replica_id,
                    request_id=orig.request_id, role=target.role,
                    policy=self.router_name,
                )
            target.scheduler._submit(orig, now=now)
        return target

    def _on_prefill_done(self, state: _RunState, replica: Replica, clone: Request) -> None:
        """Merge the prefill phase into the original request; stage the KV handoff."""
        orig = state.origs[clone.request_id]
        orig.first_scheduled_time_s = clone.first_scheduled_time_s
        orig.first_token_time_s = clone.first_token_time_s
        orig.preemptions = clone.preemptions
        if orig.output_tokens == 1:
            # Single-token answers finish at prefill: nothing left to disaggregate.
            orig.generated = 1
            orig.completion_time_s = clone.completion_time_s
            state.record_completion(replica.replica_id, orig)
            return
        # Export the prompt KV from the prefill replica (its scheduler already freed the
        # blocks on completion) and charge the interconnect transfer before the decode
        # replica may admit the sequence.
        config = replica.scheduler.kv_cache.config
        handoff_bytes = config.blocks_for_tokens(orig.prompt_tokens) * config.bytes_per_block
        transfer_s = replica.engine.interconnect_transfer_time(handoff_bytes)
        state.kv_handoffs += 1
        state.kv_handoff_bytes += handoff_bytes
        state.kv_handoff_s += transfer_s
        migrated = copy.copy(orig)  # carries the prefill-phase timestamps merged above
        migrated.generated = 1
        migrated.prefilled = 0
        migrated.prefill_target = 0
        migrated.imported_kv_tokens = orig.prompt_tokens
        # Computed once and reused for both the delivery event and the telemetry span,
        # so the migration's end timestamp and the decode side's enqueue timestamp are
        # the same float — the per-request phase intervals tile exactly.
        handoff_end = replica.clock + transfer_s
        state.push_event(handoff_end, _EVENT_MIGRATE, migrated)
        if self._tracer is not None:
            self._tracer.emit(
                "migrate", replica.clock, replica=replica.replica_id,
                request_id=orig.request_id, end=handoff_end,
                bytes=handoff_bytes, transfer_s=transfer_s,
            )

    def _on_complete(self, state: _RunState, replica: Replica, done: Request) -> None:
        if not self.disaggregated:
            # `done` IS the caller's request object
            state.record_completion(replica.replica_id, done)
        elif replica.role == REPLICA_ROLE_PREFILL:
            self._on_prefill_done(state, replica, done)
        else:
            orig = state.origs[done.request_id]
            orig.generated = done.generated
            orig.preemptions = done.preemptions
            orig.completion_time_s = done.completion_time_s
            state.record_completion(replica.replica_id, orig)

    # ------------------------------------------------------------------ event loop
    def run(self, requests: Sequence[Request]) -> ClusterResult:
        """Serve ``requests`` across the fleet to completion.

        Requests must carry unique ids — the cluster merges per-phase state back onto the
        original objects by id.  Like the single-replica scheduler, scheduler-owned fields
        are reset on entry so a trace can be re-run for A/Bs.
        """
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("cluster routing requires unique request ids")
        for request in requests:
            # All replicas share one pool geometry; validating against the first catches
            # never-servable requests before any state mutates.  This is each request's
            # only check: routing hands it to the replicas' unchecked submit paths.
            self.replicas[0].scheduler._check_servable(request)

        router = get_router_policy(self.router_name)
        prefix_keys = PrefixKeyTable(self.replicas[0].scheduler.kv_cache.config.block_tokens)
        for replica in self.replicas:
            replica.scheduler.begin(0.0, prefix_keys)
        state = _RunState(origs={r.request_id: r for r in requests})
        if self.disaggregated:
            # Originals are merge targets (never submitted): reset their scheduler-owned
            # fields here the way submit() would, so re-runs cannot leak stale state.
            for request in requests:
                request.reset_scheduler_state()
        for request in sorted(requests, key=lambda r: (r.arrival_time_s, r.request_id)):
            state.push_event(request.arrival_time_s, _EVENT_ARRIVAL, request)

        # ---- event-indexed advancement: the fleet is indexed by a lazily-invalidated
        # min-heap over (clock, replica_id) so choosing the next replica to advance — and
        # testing the event-delivery condition against the minimum active clock — costs
        # O(log n) per event instead of the O(n) fleet scan per iteration the previous
        # driver paid.  Entries are stamped with a per-replica version; an entry is live
        # only while its version and clock still match the replica (a popped replica is
        # re-pushed after advancing, so stale entries simply drain off the heap).
        # The tie-break (clock, replica_id) reproduces the scan-based driver's order
        # exactly, keeping results bit-identical.
        versions = [0] * len(self.replicas)
        ready: List[Tuple[float, int, int]] = []
        prefill_versions = [0] * len(self.replicas)
        prefill_ready: List[Tuple[float, int, int]] = []
        track_prefill = self.disaggregated and bool(self.decode_replicas)

        def push_ready(replica: Replica) -> None:
            rid = replica.replica_id
            versions[rid] += 1
            heapq.heappush(ready, (replica.clock, rid, versions[rid]))
            if track_prefill and replica.role == REPLICA_ROLE_PREFILL:
                prefill_versions[rid] += 1
                heapq.heappush(
                    prefill_ready, (replica.clock, rid, prefill_versions[rid])
                )

        def live_min(heap: List[Tuple[float, int, int]], vers: List[int]) -> Optional[Replica]:
            while heap:
                clock, rid, version = heap[0]
                replica = self.replicas[rid]
                if (
                    version != vers[rid]
                    or clock != replica.clock
                    or not replica.has_work
                ):
                    heapq.heappop(heap)
                    continue
                return replica
            return None

        while True:
            replica = live_min(ready, versions)
            if state.events and (
                replica is None or state.events[0][0] <= replica.clock
            ):
                # No replica can still do work that precedes this event: deliver it.
                time_s, _, kind, request = heapq.heappop(state.events)
                if kind == _EVENT_ARRIVAL:
                    target = self._route_arrival(router, request, time_s)
                else:
                    target = router.select_decode(self.decode_replicas, request)
                    if self._tracer is not None:
                        self._tracer.emit(
                            "route", time_s, replica=target.replica_id,
                            request_id=request.request_id, role=target.role,
                            policy=self.router_name,
                        )
                    target.scheduler._submit_resumed(request, now=time_s)
                push_ready(target)  # an idle target wakes at the event time
                continue
            if replica is None:
                break
            heapq.heappop(ready)  # the replica's live entry; re-pushed after advancing
            # ---- fast-forward horizon: a replica may only jump through iterations the
            # stepwise driver would also have given it consecutively.  Pending events
            # always bound the jump (delivery happens the moment the fleet reaches the
            # event time).  The only *future* events — KV migrations minted by prefill
            # replicas' completions, strictly after their current clocks — are routed to
            # decode replicas, so in disaggregated mode a decode replica is additionally
            # bounded by the earliest active *prefill* clock (the exact migration
            # horizon); prefill replicas, like every co-located replica, are bounded by
            # the event queue alone and collapse whole drain phases into single jumps.
            stop_before: Optional[float] = (
                state.events[0][0] if state.events else None
            )
            if track_prefill and replica.role == REPLICA_ROLE_DECODE:
                earliest_prefill = live_min(prefill_ready, prefill_versions)
                if earliest_prefill is not None:
                    stop_before = (
                        earliest_prefill.clock
                        if stop_before is None
                        else min(stop_before, earliest_prefill.clock)
                    )
            if not replica.scheduler.fast_forward(stop_before):
                replica.scheduler.step()
            for done in replica.scheduler.drain_completed():
                self._on_complete(state, replica, done)
            if replica.has_work:
                push_ready(replica)

        replica_stats = [r.scheduler.stats() for r in self.replicas]
        merged = state.merged_completions()
        return ClusterResult(
            mode=self.spec.mode,
            router=self.router_name,
            replica_roles=[r.role for r in self.replicas],
            replica_stats=replica_stats,
            simulated_time_s=max((s.simulated_time_s for s in replica_stats), default=0.0),
            completed_requests=len(merged),
            generated_tokens=sum(s.generated_tokens for s in replica_stats),
            kv_handoffs=state.kv_handoffs,
            kv_handoff_bytes=state.kv_handoff_bytes,
            kv_handoff_s=state.kv_handoff_s,
            requests=[copy.copy(r) for r in merged],
        )
