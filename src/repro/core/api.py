"""Top-level convenience API for the LiquidGEMM reproduction.

Most users need these:

* :func:`quantize_weights` — offline LiquidQuant quantization + dual-MMA packing of a weight
  matrix, ready for deployment;
* :func:`w4a8_gemm` — run a W4A8 GEMM through the LiquidGEMM kernel (numerically exact
  integer path) and obtain both the output and a performance report for a chosen GPU;
* :func:`compare_kernels` — the unified kernel benchmark of Section 7.3: the same GEMM shape
  evaluated under every kernel in the registry;
* :func:`simulate_serving` — a trace-driven, request-level serving simulation (continuous
  batching with chunked prefill and preemption, optional tensor parallelism) returning both
  scheduler statistics and an SLO report (p50/p99 TTFT, TPOT, goodput);
* :func:`simulate_cluster` — the same trace served by a multi-replica cluster behind a
  pluggable router: co-located data-parallel replicas, or DistServe-style disaggregated
  prefill/decode replicas with per-request KV handoffs over the interconnect;
* :class:`RunSpec` + :func:`run` — the one object both ``simulate_*`` functions build:
  system, model, device, TP degree, fleet shape (``cluster=None`` is one replica), a
  :class:`WorkloadSpec` trace, the scheduler's keyword options and an SLO.  ``run`` serves
  it and returns a :class:`~repro.serving.cluster.ClusterResult` for either shape; sweep
  cells and ``python -m repro.trace`` build specs too.

Everything here is a thin composition of the subpackages; power users should use
:mod:`repro.kernels`, :mod:`repro.serving` and :mod:`repro.costmodel` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from ..costmodel.model import GemmShape
from ..kernels.base import KernelReport, PreparedWeights
from ..kernels.liquidgemm import LiquidGemmKernel
from ..kernels.registry import default_comparison_set, get_kernel
from ..quant.base import quantization_error
from ..serving.cluster import ClusterResult, ServingCluster
from ..serving.engine import ServingEngine
from ..serving.metrics import RequestMetrics, SloReport, SloSpec, request_metrics
from ..serving.scheduler import ContinuousBatchingScheduler, SchedulerStats
from ..serving.systems import ClusterSpec, SystemProfile
from ..workloads.traces import WorkloadSpec

__all__ = ["quantize_weights", "w4a8_gemm", "compare_kernels", "GemmResult",
           "RunSpec", "WorkloadSpec", "run", "ServingSimulation", "simulate_serving",
           "ClusterSimulation", "simulate_cluster"]


@dataclass
class GemmResult:
    """Output of :func:`w4a8_gemm`: values, error vs FP reference, and a performance report."""

    output: np.ndarray
    reference: np.ndarray
    error: Dict[str, float]
    report: KernelReport


def quantize_weights(w: np.ndarray, group_size: int = 64) -> PreparedWeights:
    """Quantize an ``(N, K)`` FP weight matrix with LiquidQuant and pack it for deployment."""
    return LiquidGemmKernel(group_size=group_size).prepare_weights(w)


def w4a8_gemm(
    x: np.ndarray,
    weights_or_matrix,
    device: str = "H800",
    group_size: int = 64,
) -> GemmResult:
    """Run ``Y = X @ W^T`` through LiquidGEMM.

    ``weights_or_matrix`` may be a raw FP weight matrix (quantized on the fly) or the
    :class:`PreparedWeights` returned by :func:`quantize_weights`.
    """
    kernel = LiquidGemmKernel(group_size=group_size)
    if isinstance(weights_or_matrix, PreparedWeights):
        prepared = weights_or_matrix
    else:
        prepared = kernel.prepare_weights(np.asarray(weights_or_matrix))
    x = np.asarray(x, dtype=np.float64)
    output = kernel.run(x, prepared)
    reference = kernel.reference(x, prepared.original)
    shape = GemmShape(x.shape[0], prepared.original.shape[0], prepared.original.shape[1])
    return GemmResult(
        output=output,
        reference=reference,
        error=quantization_error(reference, output),
        report=kernel.estimate(shape, device),
    )


@dataclass(frozen=True)
class RunSpec:
    """One serving run, declared once (the shape of Ray Serve's ``LLMConfig``).

    What serves: ``system`` (a registry name or a :class:`SystemProfile`, e.g. one derived
    with a kernel override), ``model``, ``device``, ``tp_degree`` and ``cluster`` — ``None``
    is one replica on the plain scheduler loop, a :class:`ClusterSpec` is a fleet behind a
    router.  What it serves: ``workload``.  How every replica schedules:
    ``scheduler_options``, the keyword options of :class:`ContinuousBatchingScheduler`
    (policies, budgets, chunking, ``fast_forward``, ``prefix_caching``), passed through as
    given.  ``slo`` is what callers judge the result by.
    """

    system: Union[str, SystemProfile] = "liquidserve"
    model: str = "llama2-7b"
    device: str = "H800"
    tp_degree: int = 1
    cluster: Optional[ClusterSpec] = None
    workload: WorkloadSpec = WorkloadSpec()
    scheduler_options: Mapping[str, Any] = field(default_factory=dict)
    slo: Optional[SloSpec] = None

    def build_engine(self) -> ServingEngine:
        """A fresh cost model for this spec's system, model, device and TP degree."""
        return ServingEngine(self.system, self.model, device=self.device,
                             tp_degree=self.tp_degree)


def run(spec: RunSpec, *, engine: Optional[ServingEngine] = None, tracer=None) -> ClusterResult:
    """Serve ``spec.workload`` as ``spec`` describes and return the outcome.

    The one place a run branches on single replica vs fleet: a single replica runs
    :meth:`ContinuousBatchingScheduler.run` (no cluster layer on its hot loop) and is
    reported as a one-replica :class:`ClusterResult`.  ``engine`` injects an already-warm
    cost model built for the same spec (sweep workers reuse one per configuration);
    ``tracer`` (a :class:`repro.telemetry.Tracer`) records the run, ``None`` is
    zero-overhead.
    """
    if engine is None:
        engine = spec.build_engine()
    trace = spec.workload.trace()
    if spec.cluster is not None:
        return ServingCluster(spec=spec.cluster, engine=engine, tracer=tracer,
                              **spec.scheduler_options).run(trace)
    if tracer is not None:
        tracer.set_replica_role(0, "single")
    stats = ContinuousBatchingScheduler(engine, tracer=tracer,
                                        **spec.scheduler_options).run(trace)
    return ClusterResult(
        mode="single", router="none", replica_roles=["single"], replica_stats=[stats],
        simulated_time_s=stats.simulated_time_s, completed_requests=stats.completed_requests,
        generated_tokens=stats.generated_tokens, requests=stats.requests,
    )


def _take(options: Dict[str, Any], owner) -> Dict[str, Any]:
    """Pop the keywords that are fields of dataclass ``owner``."""
    return {f.name: options.pop(f.name) for f in fields(owner) if f.name in options}


def _simulate(system, model, cluster: Optional[ClusterSpec], options: Dict[str, Any], tracer):
    """Route flat ``simulate_*`` keywords to their one owner, then :func:`run` the spec."""
    workload = WorkloadSpec(**_take(options, WorkloadSpec))
    run_fields = _take(options, RunSpec)  # device, tp_degree, slo
    spec = RunSpec(system, model, cluster=cluster, workload=workload,
                   scheduler_options=options, **run_fields)
    engine = spec.build_engine()
    return spec, engine, run(spec, engine=engine, tracer=tracer)


@dataclass
class ServingSimulation:
    """Outcome of :func:`simulate_serving`: scheduler statistics plus the SLO summary."""

    system: str
    model: str
    tp_degree: int
    num_requests: int
    stats: SchedulerStats
    slo: SloReport
    #: Per-request latency decomposition (TTFT, TPOT, queue time) of every completed
    #: request — the raw material for latency-distribution analysis and CSV dumps.
    per_request: List[RequestMetrics] = field(default_factory=list)

    @property
    def throughput_tokens_per_s(self) -> float:
        return self.stats.throughput_tokens_per_s

    @property
    def goodput_rps(self) -> float:
        return self.slo.goodput_rps


def simulate_serving(
    system: str = "liquidserve", model: str = "llama2-7b", *, tracer=None, **options
) -> ServingSimulation:
    """Run a trace-driven request-level serving simulation end to end.

    Generates a reproducible trace (Poisson arrivals by default, Gamma when
    ``arrival_cv != 1``; ShareGPT-like long-tail lengths unless overridden), serves it with
    the continuous-batching scheduler — chunked prefill, ragged decode batches, policy-driven
    preemption (recompute / swap-to-host / cost-based hybrid) under KV pressure, pluggable
    admission ordering (FCFS, priority, SJF, max-min fairness), optional tensor parallelism —
    and summarizes both throughput and SLO attainment.

    Each keyword in ``options`` goes to its one owner, by name: ``device``, ``tp_degree``
    and ``slo`` to :class:`RunSpec`; the trace knobs (``num_requests`` default 500,
    ``arrival_rate_rps`` default 10, ``arrival_cv``, ``prompt_lengths``,
    ``output_lengths``, ``seed``, ``num_priority_levels``, ``shared_prefix_tokens``) to
    :class:`WorkloadSpec`; everything else to :class:`ContinuousBatchingScheduler` —
    e.g. ``kv_budget_bytes`` / ``host_kv_budget_bytes`` (KV-pressure studies),
    ``scheduling_policy``, ``preemption_policy``, ``fast_forward`` (default on: steady
    phases advance analytically, bit-identical to stepping) and ``prefix_caching`` (the
    radix-tree prefix cache; pair with ``shared_prefix_tokens > 0``, a common system
    prompt).  An unknown keyword raises ``TypeError``.

    ``tracer`` (a :class:`repro.telemetry.Tracer`) records the full structured event
    stream — request lifecycle, per-epoch compute spans, KV/cache activity, periodic
    counter samples — for timeline export; ``None`` (the default) is zero-overhead.
    This is :func:`run` on a ``RunSpec`` with ``cluster=None``.
    """
    spec, engine, result = _simulate(system, model, None, options, tracer)
    stats = result.replica_stats[0]
    return ServingSimulation(
        system=engine.system.name,
        model=engine.model.name,
        tp_degree=spec.tp_degree,
        num_requests=spec.workload.num_requests,
        stats=stats,
        slo=stats.slo_report(spec.slo),
        per_request=request_metrics(stats.requests),
    )


@dataclass
class ClusterSimulation:
    """Outcome of :func:`simulate_cluster`: per-replica stats plus the merged SLO summary."""

    system: str
    model: str
    tp_degree: int
    mode: str
    router: str
    num_replicas: int
    num_requests: int
    result: ClusterResult
    slo: SloReport
    #: Merged per-request latency decomposition across the whole cluster (a migrated
    #: request's TTFT comes from its prefill replica, its completion from its decode one).
    per_request: List[RequestMetrics] = field(default_factory=list)

    @property
    def replica_stats(self) -> List[SchedulerStats]:
        return self.result.replica_stats

    @property
    def replica_roles(self) -> List[str]:
        return self.result.replica_roles

    @property
    def throughput_tokens_per_s(self) -> float:
        return self.result.throughput_tokens_per_s

    @property
    def goodput_rps(self) -> float:
        return self.slo.goodput_rps


def simulate_cluster(
    system: str = "liquidserve", model: str = "llama2-7b", *, tracer=None, **options
) -> ClusterSimulation:
    """Run a trace-driven simulation of a multi-replica serving cluster end to end.

    The same trace and per-replica scheduler as :func:`simulate_serving`, lifted to a
    fleet: the :class:`ClusterSpec` keywords (``mode``, ``num_replicas``,
    ``num_prefill_replicas``, ``num_decode_replicas``, ``router``) shape it, and every
    other keyword is routed as in :func:`simulate_serving`.  ``mode="colocated"`` (the
    default) spreads whole requests over ``num_replicas`` identical replicas (default 2)
    via ``router`` (default round-robin); ``mode="disaggregated"`` serves prompt prefill
    on ``num_prefill_replicas`` and decode on ``num_decode_replicas`` (1 + 1 by default,
    DistServe-style), migrating each finished prefill's KV blocks over the GPU
    interconnect (default router: the disaggregation-aware policy) — passing
    ``num_replicas`` there is an error rather than silently ignored.
    ``simulate_cluster(num_replicas=1)`` is, by construction, exactly
    :func:`simulate_serving` — the equivalence the test suite pins.

    ``prefix_caching`` gives every replica its own radix-tree prefix cache (pair with
    ``router="cache-affinity"`` so shared-prefix requests land where their prefix lives).
    ``tracer`` records one event track per replica plus routing decisions and KV
    migrations (see :mod:`repro.telemetry`); ``None`` is zero-overhead.
    """
    cluster = ClusterSpec(**_take(options, ClusterSpec))
    spec, engine, result = _simulate(system, model, cluster, options, tracer)
    return ClusterSimulation(
        system=engine.system.name,
        model=engine.model.name,
        tp_degree=spec.tp_degree,
        mode=result.mode,
        router=result.router,
        num_replicas=result.num_replicas,
        num_requests=spec.workload.num_requests,
        result=result,
        slo=result.slo_report(spec.slo),
        per_request=request_metrics(result.requests),
    )


def compare_kernels(
    m: int,
    n: int,
    k: int,
    device: str = "H800",
    kernels: Optional[Iterable[str]] = None,
) -> Dict[str, KernelReport]:
    """Estimate the latency of one GEMM shape under each kernel (Figure 12's comparison)."""
    shape = GemmShape(m, n, k)
    if kernels is None:
        kernel_objs = default_comparison_set()
    else:
        kernel_objs = {name: get_kernel(name) for name in kernels}
    return {name: kernel.estimate(shape, device) for name, kernel in kernel_objs.items()}
