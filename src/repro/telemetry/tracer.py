"""Structured event tracing on the simulated clock.

The :class:`Tracer` is a passive event sink threaded (optionally) through the serving
stack: the scheduler, cluster, KV cache and prefix cache emit lifecycle events and
periodic gauge samples into it as the simulation runs.  Design constraints, in order:

* **Null tracer is zero-overhead.**  ``tracer=None`` *is* the null tracer: every hook in
  the hot path is a single ``if tracer is not None`` guard on a local, so tracing off
  costs one pointer compare per (cold) call site and nothing per fast-forward iteration.
  Bit-identity of tracer-off runs with the pinned BENCH numbers is test- and CI-gated.
* **Purely observational.**  The tracer never feeds back into scheduling decisions; a
  traced run therefore produces SchedulerStats / RequestMetrics bit-identical to an
  untraced one (hypothesis-pinned in ``tests/test_telemetry_breakdown.py``).
* **Exact timestamps.**  Events carry the *actual* simulated-clock floats at the moment
  they happen — transfer spans record the same float the scheduler added to its clock —
  so per-request phase intervals tile end-to-end with no gaps and their durations,
  summed as exact rationals, telescope to the request's end-to-end latency
  (see :mod:`repro.telemetry.breakdown`).

Event vocabulary (``TraceEvent.kind``):

====================  ======  ==========================================================
kind                  shape   emitted by / meaning
====================  ======  ==========================================================
``arrive``            instant scheduler ``submit`` — request enters the queue
``enqueue``           instant scheduler ``submit_resumed`` — migrated request re-queued
``route``             instant cluster router decision (args: ``role``, ``policy``)
``admit``             instant admission (args ``to``: ``"prefill"`` | ``"decode"``)
``cache_hit``         instant prefix-cache fork-on-admit (args: ``tokens``, ``blocks``)
``cache_insert``      instant prefix published at prefill completion (args: ``blocks``)
``cache_evict``       instant LRU leaves dropped under pressure (args: ``blocks``)
``chunk_prefill``     instant one prefill chunk computed (args: ``tokens``)
``decode_start``      instant prefill complete, first token emitted
``preempt``           instant victim chosen (args: ``mode``, ``reason``)
``preempt_averted``   instant KV pressure absorbed by cache eviction — nobody preempted
``kv_oom``            instant allocator rejected a growth/admit probe
``swap_out``          span    KV blocks moved to host (ts -> end brackets the transfer)
``swap_in``           span    KV blocks restored (args ``to``: resumed phase)
``migrate``           span    cluster KV handoff prefill -> decode replica (args: bytes)
``finish``            instant request completed (args: ``generated``)
``iteration``         span    one stepwise mixed/decode engine iteration
``ff_decode``         span    synthesized fast-forward epoch without prefill chunks
``ff_mixed``          span    synthesized fast-forward epoch with prefill chunks; the
                              one epoch planner picks the name by its chunk count (args
                              of both: ``iterations``, ``decode_batch``, ``chunks``)
====================  ======  ==========================================================

Instant events have ``end is None``; spans carry ``end >= ts``.  In
``overlap_swap_transfers`` mode swap spans are zero-width (the transfer is parked and
overlapped with compute, the clock does not advance at the swap site).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceEvent", "CounterSample", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured event on the simulated clock (seconds)."""

    kind: str
    ts: float
    replica: int = 0
    request_id: Optional[int] = None
    end: Optional[float] = None
    args: Optional[Dict[str, Any]] = None

    @property
    def duration_s(self) -> float:
        return 0.0 if self.end is None else self.end - self.ts


@dataclass(frozen=True, slots=True)
class CounterSample:
    """One periodic gauge sample of a replica's scheduler state."""

    ts: float
    replica: int
    values: Dict[str, float]


@dataclass(slots=True)
class Tracer:
    """Collects :class:`TraceEvent` streams and periodic counter samples.

    ``sample_interval_s`` is the gauge-sampling cadence on the *simulated* clock;
    samples are taken at iteration / fast-forward-epoch boundaries, so the actual
    spacing is ``>= sample_interval_s``.  Set ``span_events=False`` to suppress the
    high-volume engine spans (``iteration`` / ``chunk_prefill``) and keep only the
    request-lifecycle stream.
    """

    sample_interval_s: float = 0.1
    span_events: bool = True
    label: str = "trace"
    events: List[TraceEvent] = field(default_factory=list)
    counters: List[CounterSample] = field(default_factory=list)
    replica_roles: Dict[int, str] = field(default_factory=dict)
    _engines: List[Any] = field(default_factory=list)

    # ------------------------------------------------------------------ recording
    def emit(self, kind: str, ts: float, *, replica: int = 0,
             request_id: Optional[int] = None, end: Optional[float] = None,
             **args: Any) -> None:
        """Append one event; keyword extras become the event's ``args`` dict."""
        self.events.append(
            TraceEvent(kind, ts, replica, request_id, end, args or None)
        )

    def sample(self, replica: int, ts: float, values: Dict[str, float]) -> None:
        """Append one periodic gauge sample for ``replica``."""
        self.counters.append(CounterSample(ts, replica, values))

    def set_replica_role(self, replica: int, role: str) -> None:
        """Name a replica's role (``"colocated"`` / ``"prefill"`` / ``"decode"``)."""
        self.replica_roles[replica] = role

    def attach_engine(self, engine: Any) -> None:
        """Register a :class:`~repro.serving.engine.ServingEngine` for memo-cache stats.

        Idempotent per engine instance; replicas sharing one engine register it once.
        """
        if all(existing is not engine for existing in self._engines):
            self._engines.append(engine)

    # ------------------------------------------------------------------ queries
    @property
    def num_events(self) -> int:
        return len(self.events)

    def events_of(self, *kinds: str) -> Iterator[TraceEvent]:
        """Iterate events whose kind is one of ``kinds`` (append order preserved)."""
        wanted = frozenset(kinds)
        return (ev for ev in self.events if ev.kind in wanted)

    def event_counts(self) -> Dict[str, int]:
        """Event count per kind, sorted by kind for stable JSON output."""
        counts: Dict[str, int] = {}
        for ev in self.events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return dict(sorted(counts.items()))

    def engine_memo_stats(self) -> Dict[str, Dict[str, int]]:
        """Memo-cache snapshots of every attached engine, merged by cache name.

        This is the telemetry hookup for :meth:`ServingEngine.cache_stats` — the debug
        hook previously reachable only from a REPL.  Replicas share one engine, so the
        merge is normally a single snapshot; with distinct engines the counts add.
        """
        merged: Dict[str, Dict[str, int]] = {}
        for engine in self._engines:
            for name, snap in engine.cache_stats().items():
                slot = merged.setdefault(
                    name, {"entries": 0, "max_entries": 0, "evictions": 0}
                )
                slot["entries"] += snap["entries"]
                slot["max_entries"] = max(slot["max_entries"], snap["max_entries"])
                slot["evictions"] += snap["evictions"]
        return merged
