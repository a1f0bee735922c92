"""The paper's analytical GEMM cost model (Section 3.2, Equations 3-6).

The model decomposes one main-loop iteration of a pipelined GEMM into

* ``T_LD``   — weight-tile transfer from global memory (Equation 3),
* ``T_DQ``   — dequantization on CUDA cores (the ``alpha``-dependent term of Equation 4),
* ``T_MMA``  — matrix multiply-accumulate on Tensor Cores (Equation 4),

and aggregates them over all output tiles at device level (Equation 6).  The way the three
terms combine depends on the kernel's pipeline organisation, captured by
:class:`PipelineMode`:

* ``SERIAL_DEQUANT`` — Equation 6 as written: loading overlaps with compute, but dequant and
  MMA execute back to back inside the compute stage (QServe, W4A16 and naive W4A8 kernels);
* ``FULL_OVERLAP``   — loading, dequantization and MMA all overlap (the ideal LiquidGEMM ImFP
  achieves): the iteration cost is the *maximum* of the three terms.

Equation 6 is written once, in :class:`GemmLine`: for a fixed weight shape ``(N, K)``,
kernel and GPU it resolves the M-independent terms (``T_LD``, ``T_DQ``, the Tensor-Core
rate, the epilogue and launch constants) and prices any M with a few float operations.
:func:`gemm_cost` is one line evaluation with the full :class:`CostBreakdown`; the serving
engine keeps one line per layer GEMM and prices every iteration's token count through it.

All throughputs come from :class:`repro.gpu.specs.GpuSpec`, so the same module reproduces the
paper's §3.3 numbers (memory/compute transition batch sizes, the ``alpha <= 5.07`` budget)
and feeds every kernel's latency estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..gpu.specs import GpuSpec, Precision

__all__ = [
    "PipelineMode",
    "GemmShape",
    "KernelCostParams",
    "CostBreakdown",
    "GemmLine",
    "gemm_cost",
    "transition_batch_size",
    "alpha_budget",
]


class PipelineMode:
    """How the load / dequant / MMA stages of one iteration combine in time."""

    SERIAL_DEQUANT = "serial_dequant"
    FULL_OVERLAP = "full_overlap"

    ALL = (SERIAL_DEQUANT, FULL_OVERLAP)


@dataclass(frozen=True)
class GemmShape:
    """A GEMM problem ``Y[M, N] = X[M, K] @ W[N, K]^T`` (the paper's layer shapes)."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.m <= 0 or self.n <= 0 or self.k <= 0:
            raise ValueError("GEMM dimensions must be positive")

    @property
    def weight_elements(self) -> int:
        return self.n * self.k

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k

    @property
    def flops(self) -> int:
        return 2 * self.macs


@dataclass(frozen=True)
class KernelCostParams:
    """Everything the cost model needs to know about one kernel implementation."""

    name: str
    weight_precision: str          # storage precision of W in GMEM (drives T_LD)
    act_precision: str             # storage precision of X
    mma_precision: str             # Tensor Core data type (drives T_MMA)
    alpha: float = 0.0             # CUDA-core instructions per dequantized weight element
    pipeline: str = PipelineMode.SERIAL_DEQUANT
    tile_m: int = 128
    tile_n: int = 128
    tile_k: int = 64
    #: Extra CUDA-core instructions per weight element for loads / address arithmetic
    #: (e.g. the LDS.32 path of the conventional layout).
    load_overhead_alpha: float = 0.0
    #: Fraction of peak Tensor Core throughput the kernel sustains (ping-pong WGMMA kernels
    #: approach 1.0; pre-Hopper mma.sync kernels without warp specialization sit lower).
    tensor_efficiency: float = 1.0
    #: Fraction of peak memory bandwidth the kernel's weight loads sustain.
    bandwidth_efficiency: float = 0.85
    #: Epilogue cost per output element in FP operations (first-level dequant, bias, store).
    epilogue_ops_per_output: float = 2.0
    #: Fixed per-kernel launch overhead in seconds (dominates tiny problems).
    launch_overhead_s: float = 3.0e-6

    def __post_init__(self):
        if self.pipeline not in PipelineMode.ALL:
            raise ValueError(f"unknown pipeline mode {self.pipeline!r}")
        if not 0 < self.tensor_efficiency <= 1.0:
            raise ValueError("tensor_efficiency must be in (0, 1]")
        if not 0 < self.bandwidth_efficiency <= 1.0:
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        if self.alpha < 0 or self.load_overhead_alpha < 0:
            raise ValueError("alpha terms must be non-negative")


@dataclass
class CostBreakdown:
    """Device-level time decomposition of one GEMM (Equation 6)."""

    t_load: float
    t_dequant: float
    t_mma: float
    t_epilogue: float
    t_launch: float
    total: float
    limited_by: str
    m_tiles: int
    effective_m: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "t_load": self.t_load,
            "t_dequant": self.t_dequant,
            "t_mma": self.t_mma,
            "t_epilogue": self.t_epilogue,
            "t_launch": self.t_launch,
            "total": self.total,
            "m_tiles": float(self.m_tiles),
            "effective_m": float(self.effective_m),
        }


def _weight_load_throughput(gpu: GpuSpec, params: KernelCostParams) -> float:
    """Device-level weight-load throughput in elements/s (the paper's Phi^x_BD)."""
    bytes_per_element = Precision.bytes(params.weight_precision)
    return gpu.memory_bandwidth * params.bandwidth_efficiency / bytes_per_element


class GemmLine:
    """Equation 6 for one weight shape ``(N, K)`` under one kernel on one GPU, as a function of M.

    Everything that does not depend on M is resolved once: the per-tile weight load
    ``T_LD`` and dequantization ``T_DQ``, the Tensor-Core rate, the epilogue rate, the
    launch constant and the per-M-tile cost of a full tile.  :meth:`total` then prices an
    ``M x N x K`` GEMM with a handful of float operations, and :meth:`breakdown` returns the
    full :class:`CostBreakdown` that :func:`gemm_cost` reports.

    The activation-load term of Equation 3 is dropped as in the paper (activations are
    small and reused from fast memory); the epilogue term is retained because it is what
    converts INT32 accumulators back to FP16 and applies first-level scales, and it matters
    for very small K.
    """

    __slots__ = ("n", "k", "params", "t_load", "t_dequant", "_nk", "_phi_tc",
                 "_phi_fp32", "_terms")

    def __init__(self, n: int, k: int, gpu: GpuSpec, params: KernelCostParams):
        if n <= 0 or k <= 0:
            raise ValueError("GEMM dimensions must be positive")
        self.n = n
        self.k = k
        self.params = params
        nk = n * k
        self._nk = nk
        self._phi_tc = gpu.tensor_core_throughput(params.mma_precision) * params.tensor_efficiency
        self._phi_fp32 = gpu.cuda_core_fp32_tops
        #: Per-M-tile weight load and dequantization (M-independent).
        self.t_load = nk / _weight_load_throughput(gpu, params)
        self.t_dequant = (
            (params.alpha + params.load_overhead_alpha) * nk / gpu.cuda_core_int32_tops
        )
        # What :meth:`total` reads, in one tuple.  ``2 * m * N * K`` is an integer below
        # 2**53, so the folded ``m * 2nk`` equals the helpers' ``m * 2.0 * nk`` bit for bit.
        self._terms = (
            params.tile_m, self._per_m_tile(self._t_mma(params.tile_m)),
            self.t_load, self.t_dequant, 2.0 * nk, self._phi_tc,
            params.pipeline == PipelineMode.FULL_OVERLAP,
            params.epilogue_ops_per_output, n, self._phi_fp32, params.launch_overhead_s,
        )

    def _t_mma(self, m: int) -> float:
        """Tensor-Core time of one M tile holding ``min(tile_m, m)`` rows."""
        return min(self.params.tile_m, m) * 2.0 * self._nk / self._phi_tc

    def _t_epilogue(self, m: int) -> float:
        """Epilogue over the ``m x N`` output (first-level dequant, bias, store)."""
        return self.params.epilogue_ops_per_output * m * self.n / self._phi_fp32

    def _per_m_tile(self, t_mma: float) -> float:
        """One M tile's main loop: how load, dequant and MMA combine under the pipeline."""
        if self.params.pipeline == PipelineMode.FULL_OVERLAP:
            return max(self.t_load, self.t_dequant, t_mma)
        return max(self.t_load, self.t_dequant + t_mma)  # SERIAL_DEQUANT

    def total(self, m: int) -> float:
        """Latency of the ``m x N x K`` GEMM: M tiles, epilogue and launch (Equation 6).

        ``ceil(m / tile_m) * full tile`` or one partial tile, plus :meth:`_t_epilogue` and
        the launch: the helpers' terms, read from one resolved tuple."""
        (tile_m, full_tile, t_load, t_dequant, two_nk, phi_tc, overlap, epilogue_ops, n,
         phi_fp32, launch) = self._terms
        if m >= tile_m:
            main_loop = -(-m // tile_m) * full_tile
        elif m > 0:
            t_mma = m * two_nk / phi_tc  # one partial M tile
            main_loop = (
                max(t_load, t_dequant, t_mma) if overlap else max(t_load, t_dequant + t_mma)
            )
        else:
            raise ValueError("GEMM dimensions must be positive")
        return main_loop + epilogue_ops * m * n / phi_fp32 + launch

    def breakdown(self, m: int) -> CostBreakdown:
        """:meth:`total` split into its Equation-6 terms, with the limiting resource."""
        params = self.params
        total = self.total(m)
        m_tiles = math.ceil(m / params.tile_m)
        t_load, t_dequant, t_mma = self.t_load, self.t_dequant, self._t_mma(m)
        if params.pipeline == PipelineMode.FULL_OVERLAP:
            limiter = {t_load: "memory", t_dequant: "cuda_cores", t_mma: "tensor_cores"}[
                self._per_m_tile(t_mma)
            ]
        else:
            limiter = "memory" if t_load >= t_dequant + t_mma else (
                "cuda_cores" if t_dequant > t_mma else "tensor_cores"
            )
        return CostBreakdown(
            t_load=m_tiles * t_load,
            t_dequant=m_tiles * t_dequant,
            t_mma=m_tiles * t_mma,
            t_epilogue=self._t_epilogue(m),
            t_launch=params.launch_overhead_s,
            total=total,
            limited_by=limiter,
            m_tiles=m_tiles,
            effective_m=min(params.tile_m, m),
        )


def gemm_cost(shape: GemmShape, gpu: GpuSpec, params: KernelCostParams) -> CostBreakdown:
    """Evaluate Equation 6 for one GEMM under a kernel configuration.

    One :class:`GemmLine` evaluation; callers that price many M at one ``(N, K)`` keep
    the line and call :meth:`GemmLine.total`.
    """
    return GemmLine(shape.n, shape.k, gpu, params).breakdown(shape.m)


def transition_batch_size(gpu: GpuSpec, weight_precision: str, mma_precision: str,
                          bandwidth_efficiency: float = 1.0,
                          tensor_efficiency: float = 1.0) -> float:
    """Batch size where ``T_LD == T_MMA`` — the memory-/compute-bound transition (§3.3).

    With Figure 1's metrics this evaluates to ≈150 for W4A8 and ≈300 for W8A8 on H100, and
    ≈156 for W8A8 on A100, matching the paper.
    """
    bytes_per_element = Precision.bytes(weight_precision)
    phi_bd = gpu.memory_bandwidth * bandwidth_efficiency / bytes_per_element
    phi_tc = gpu.tensor_core_throughput(mma_precision) * tensor_efficiency
    return phi_tc / (2.0 * phi_bd)


def alpha_budget(gpu: GpuSpec, weight_precision: str, mma_precision: str,
                 batch_size: Optional[int] = None) -> float:
    """Maximum dequantization instructions per element that can be hidden (§3.3).

    Without ``batch_size`` the budget is the memory-bound condition ``T_DQ <= T_LD``
    (≈5.07 on H100 for 4-bit weights); with ``batch_size`` it is the compute-bound condition
    ``T_DQ <= T_MMA`` (≈5.05 at the transition batch of 150).
    """
    phi_cuda = gpu.cuda_core_int32_tops
    if batch_size is None:
        bytes_per_element = Precision.bytes(weight_precision)
        phi_bd = gpu.memory_bandwidth / bytes_per_element
        return phi_cuda / phi_bd
    phi_tc = gpu.tensor_core_throughput(mma_precision)
    return 2.0 * batch_size * phi_cuda / phi_tc
