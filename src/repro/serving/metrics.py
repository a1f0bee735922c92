"""Per-request serving metrics and SLO attainment (TTFT, TPOT, goodput).

Production serving systems are judged on latency *distributions*, not means: the paper's
system-level evaluation reports throughput, but a trace-driven simulation lets us also measure
time-to-first-token (TTFT), time-per-output-token (TPOT) and *goodput* — the rate of requests
that meet both SLOs — the metrics used by DistServe/Sarathi-style serving work.

The scheduler records raw timestamps on each :class:`~repro.serving.scheduler.Request`; this
module turns a finished population of requests into percentile summaries and an SLO report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["percentile", "RequestMetrics", "SloSpec", "SloReport", "request_metrics",
           "compute_slo_report"]


def _mean(values: Sequence[float]) -> float:
    """Mean that is 0.0 for an empty population — the one place the zero-completed case
    is guarded, so every :class:`SloReport` field degrades identically."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], q: float, *, sorted_values: bool = False) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of an unsorted sequence.

    ``sorted_values=True`` declares the input already ascending and skips the per-call
    sort — the fast path :func:`compute_slo_report` uses to take four percentiles of the
    same population without re-sorting it four times.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    data = values if sorted_values else sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


@dataclass(frozen=True)
class RequestMetrics:
    """Latency decomposition of one completed request."""

    request_id: int
    ttft_s: float                 # arrival -> first output token
    latency_s: float              # arrival -> completion
    tpot_s: float                 # mean inter-token time after the first (0 if 1 token)
    output_tokens: int
    preemptions: int
    #: Arrival -> first scheduled (prefill admission).  TTFT minus queue time is pure
    #: service time, so this is where router- or policy-induced queueing shows up.
    queue_time_s: float = 0.0


@dataclass(frozen=True)
class SloSpec:
    """Latency service-level objectives a request must meet to count toward goodput."""

    ttft_s: float = 2.0
    tpot_s: float = 0.1

    def met_by(self, m: RequestMetrics) -> bool:
        return self._met(m.ttft_s, m.tpot_s)

    def attained_by(self, requests: Iterable) -> int:
        """How many completed ``requests`` meet both SLOs: :meth:`met_by` counted over
        :func:`request_metrics` of them, from each one's TTFT and TPOT alone."""
        return sum(1 for r in requests if _completed(r) and self._met(*_ttft_tpot(r)))

    def _met(self, ttft_s: float, tpot_s: float) -> bool:
        return ttft_s <= self.ttft_s and tpot_s <= self.tpot_s


_DEFAULT_SLO = SloSpec()


@dataclass(frozen=True, slots=True)
class SloReport:
    """Population summary of one simulation run against an :class:`SloSpec`."""

    slo: SloSpec
    completed: int
    slo_attained: int
    makespan_s: float
    mean_ttft_s: float
    p50_ttft_s: float
    p99_ttft_s: float
    mean_tpot_s: float
    p50_tpot_s: float
    p99_tpot_s: float
    mean_latency_s: float
    p50_latency_s: float
    p99_latency_s: float
    #: Mean arrival -> first-scheduled delay (router/admission queueing), 0.0 when the
    #: population recorded no scheduling timestamps.
    mean_queue_time_s: float = 0.0
    #: Prefix-caching outcome over the completed population (both 0 with caching off):
    #: the fraction of requests whose final admission pass was seeded from the cache, and
    #: the prefill tokens that seeding skipped in total.
    prefix_hit_rate: float = 0.0
    prefix_saved_tokens: int = 0

    @property
    def attainment(self) -> float:
        """Fraction of completed requests that met both SLOs."""
        return self.slo_attained / self.completed if self.completed else 0.0

    @property
    def goodput_rps(self) -> float:
        """SLO-attaining requests completed per second of simulated time."""
        return self.slo_attained / self.makespan_s if self.makespan_s > 0 else 0.0


def _completed(r) -> bool:
    return r.first_token_time_s is not None and r.completion_time_s is not None


def _ttft_tpot(r) -> Tuple[float, float]:
    """A completed request's TTFT and TPOT (0.0 for a single-token answer)."""
    decode_tokens = max(0, r.output_tokens - 1)
    decode_span = r.completion_time_s - r.first_token_time_s
    return (
        r.first_token_time_s - r.arrival_time_s,
        decode_span / decode_tokens if decode_tokens else 0.0,
    )


def request_metrics(requests: Iterable) -> List[RequestMetrics]:
    """Extract metrics from completed requests (others are skipped)."""
    out: List[RequestMetrics] = []
    for r in requests:
        if not _completed(r):
            continue
        ttft_s, tpot_s = _ttft_tpot(r)
        first_scheduled = getattr(r, "first_scheduled_time_s", None)
        out.append(RequestMetrics(
            request_id=r.request_id,
            ttft_s=ttft_s,
            latency_s=r.completion_time_s - r.arrival_time_s,
            tpot_s=tpot_s,
            output_tokens=r.output_tokens,
            preemptions=getattr(r, "preemptions", 0),
            queue_time_s=(
                first_scheduled - r.arrival_time_s if first_scheduled is not None else 0.0
            ),
        ))
    return out


def compute_slo_report(requests: Iterable, slo: Optional[SloSpec] = None,
                       makespan_s: float = 0.0) -> SloReport:
    """Summarize a completed request population against ``slo``."""
    slo = slo or _DEFAULT_SLO
    requests = list(requests)
    cached = [getattr(r, "cached_prefix_tokens", 0) for r in requests]
    metrics = request_metrics(requests)
    ttfts = [m.ttft_s for m in metrics]
    # TPOT is undefined for single-token answers (tpot_s = 0.0): they meet any TPOT SLO
    # vacuously, but must not drag the percentile summary of real inter-token gaps down.
    tpots = [m.tpot_s for m in metrics if m.output_tokens > 1]
    latencies = [m.latency_s for m in metrics]
    # Means are taken in completion order *before* sorting (float sums are order
    # sensitive, and the historical report summed unsorted populations); each population
    # is then sorted exactly once and every percentile reuses that order.
    mean_ttft = _mean(ttfts)
    mean_tpot = _mean(tpots)
    mean_latency = _mean(latencies)
    ttfts.sort()
    tpots.sort()
    latencies.sort()
    return SloReport(
        slo=slo,
        completed=len(metrics),
        slo_attained=sum(1 for m in metrics if slo.met_by(m)),
        makespan_s=makespan_s,
        mean_ttft_s=mean_ttft,
        p50_ttft_s=percentile(ttfts, 50, sorted_values=True),
        p99_ttft_s=percentile(ttfts, 99, sorted_values=True),
        mean_tpot_s=mean_tpot,
        p50_tpot_s=percentile(tpots, 50, sorted_values=True),
        p99_tpot_s=percentile(tpots, 99, sorted_values=True),
        mean_latency_s=mean_latency,
        p50_latency_s=percentile(latencies, 50, sorted_values=True),
        p99_latency_s=percentile(latencies, 99, sorted_values=True),
        mean_queue_time_s=_mean([m.queue_time_s for m in metrics]),
        prefix_hit_rate=(
            sum(1 for c in cached if c > 0) / len(requests) if requests else 0.0
        ),
        prefix_saved_tokens=int(sum(cached)),
    )
