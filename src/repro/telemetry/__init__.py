"""Telemetry: structured event tracing, gauge sampling, and timeline export.

Thread a :class:`Tracer` through the serving stack (``tracer=`` on
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`,
:class:`~repro.serving.cluster.ServingCluster`, :func:`~repro.core.api.run`,
:func:`~repro.core.api.simulate_serving` / :func:`~repro.core.api.simulate_cluster`,
or per-cell on :class:`~repro.sweep.SweepGrid`), then export:

* :func:`write_chrome_trace` — Perfetto / ``chrome://tracing`` loadable timeline;
* :func:`write_summary` — schema-validated run summary with per-request
  critical-path breakdowns that provably sum to end-to-end latency;
* ``python -m repro.trace`` — one-shot CLI over both.

``tracer=None`` (the default everywhere) is the null tracer: a single pointer
compare per cold call site, zero cost in the fast-forward hot loops, and
bit-identical simulation results — CI-gated.
"""

from .breakdown import PHASES, PhaseInterval, RequestBreakdown, request_breakdowns
from .export import (
    TELEMETRY_SUMMARY_SCHEMA,
    build_summary,
    chrome_trace_payload,
    write_chrome_trace,
    write_summary,
)
from .tracer import CounterSample, TraceEvent, Tracer

__all__ = [
    "PHASES",
    "PhaseInterval",
    "RequestBreakdown",
    "request_breakdowns",
    "TELEMETRY_SUMMARY_SCHEMA",
    "build_summary",
    "chrome_trace_payload",
    "write_chrome_trace",
    "write_summary",
    "CounterSample",
    "TraceEvent",
    "Tracer",
]
