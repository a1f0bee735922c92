"""Kernel abstraction shared by LiquidGEMM and every baseline it is compared against.

A :class:`GemmKernel` bundles three things:

* **offline weight preparation** (`prepare_weights`) — quantization + layout reordering,
  returning a :class:`PreparedWeights` with explicit deployed-size accounting;
* **a numeric execution path** (`run`) — computes ``Y = X @ W^T`` through the kernel's actual
  arithmetic (integer accumulation, epilogue scaling), so correctness against an FP reference
  is testable;
* **a performance estimate** (`estimate`) — evaluates the paper's cost model (and optionally
  the event-driven pipeline simulator) on the kernel's :class:`KernelCostParams` for a given
  GPU (a :class:`~repro.gpu.specs.GpuSpec` or its name, resolved by
  :func:`~repro.gpu.specs.get_gpu`), returning a :class:`KernelReport`.

All kernels in :mod:`repro.kernels.library`, :mod:`repro.kernels.liquidgemm` and
:mod:`repro.kernels.ablation` share this interface, which is what makes the paper's unified
benchmark framework (Section 7.1) reproducible as a controlled comparison.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..costmodel.model import CostBreakdown, GemmShape, KernelCostParams, PipelineMode, gemm_cost
from ..gpu.specs import GpuSpec, Precision, get_gpu
from ..pipeline.simulator import PipelineKind, PipelineResult, simulate_pipeline
from ..pipeline.timing import decompose_work, derive_iteration_timing
from ..quant.activation import quantize_activation_per_token

__all__ = ["PreparedWeights", "KernelReport", "GemmKernel", "int8_gemm", "K_BLOCK"]

#: Largest ``|activation code * weight code|`` on the INT8 path: per-token activation
#: codes lie in [-127, 127] and INT8 weight codes in [-128, 127].
_MAX_INT8_PRODUCT = 127 * 128
#: Widest K block float32 accumulates exactly: 1,032 columns, whose partial sums are
#: integers of magnitude at most ``1032 * 127 * 128 < 2**24``.
K_BLOCK = 2**24 // _MAX_INT8_PRODUCT
#: The closed-form combination rule of each pipeline simulator kind: a serial main loop
#: adds dequantization to the MMAs, while ExCP and ImFP overlap load, dequant and MMA.
#: The closed form has no notion of ExCP's shared-memory round trip and synchronization
#: bubbles, so for ExCP it is an optimistic bound (Figure 13 runs the simulator).
_PIPELINE_MODES = {
    PipelineKind.SERIAL: PipelineMode.SERIAL_DEQUANT,
    PipelineKind.EXCP: PipelineMode.FULL_OVERLAP,
    PipelineKind.IMFP: PipelineMode.FULL_OVERLAP,
}


def int8_gemm(x: np.ndarray, w_i8: np.ndarray, scale_ch: np.ndarray) -> np.ndarray:
    """``Y = X @ W^T`` on INT8 Tensor Cores: the arithmetic every W8A8 / W4A8 kernel shares.

    Quantizes ``x`` per token to INT8, accumulates it against the ``(N, K)`` INT8 weight
    codes ``w_i8`` and applies the epilogue (per-token x per-channel ``scale_ch``).  The
    accumulation emulates the INT32 WGMMA accumulator, so ``K * 127 * 128`` must stay
    below 2**31.

    The product runs in float32 BLAS over K blocks of at most :data:`K_BLOCK` columns.
    Every partial sum inside a block is an integer below 2**24 in magnitude, and float32
    holds each such integer exactly, whatever order the BLAS sums in.  The blocks are then
    summed in float64, where every total below 2**31 is exact too.  The result is bit for
    bit the integer accumulator's.
    """
    k = w_i8.shape[1]
    if k * _MAX_INT8_PRODUCT >= 2**31:
        raise ValueError(f"K={k} can overflow the INT32 accumulator (K * 127 * 128 >= 2**31)")
    qa = quantize_activation_per_token(x)
    a = qa.q_i8.astype(np.float32)
    w = w_i8.astype(np.float32)
    acc = np.zeros((a.shape[0], w.shape[0]))
    for k0 in range(0, k, K_BLOCK):
        acc += a[:, k0 : k0 + K_BLOCK] @ w[:, k0 : k0 + K_BLOCK].T
    return acc * qa.scale_tok * scale_ch.reshape(1, -1)


@dataclass
class PreparedWeights:
    """Offline-prepared (quantized / reordered) weights for one GEMM operand."""

    kernel: str
    original: np.ndarray
    payload: Dict[str, Any] = field(default_factory=dict)
    deployed_bytes: int = 0

    @property
    def shape(self):
        return self.original.shape

    def compression_ratio(self) -> float:
        """FP16 bytes divided by deployed bytes (≈4 for 4-bit schemes)."""
        fp16_bytes = self.original.size * 2
        return fp16_bytes / self.deployed_bytes if self.deployed_bytes else float("nan")


@dataclass
class KernelReport:
    """Performance report for one GEMM executed (or estimated) by one kernel."""

    kernel: str
    shape: GemmShape
    gpu: str
    latency_s: float
    breakdown: CostBreakdown
    pipeline: Optional[PipelineResult] = None
    alpha: float = 0.0
    weight_bytes: int = 0
    notes: str = ""

    @property
    def tops(self) -> float:
        """Achieved throughput in tensor OPs per second."""
        return self.shape.flops / self.latency_s if self.latency_s > 0 else 0.0

    @property
    def latency_us(self) -> float:
        return self.latency_s * 1e6


class GemmKernel(abc.ABC):
    """Base class for every GEMM kernel implementation in the reproduction."""

    #: Human-readable kernel name (matches the labels used in the paper's figures).
    name: str = "abstract"
    #: Pipeline simulator kind used when ``use_pipeline_sim=True``.
    pipeline_kind: str = PipelineKind.SERIAL

    # ------------------------------------------------------------------ configuration
    @abc.abstractmethod
    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        """Cost-model parameters of this kernel on ``gpu``."""

    def _params(self, **fields) -> KernelCostParams:
        """:class:`KernelCostParams` named after this kernel, in the pipeline mode its
        ``pipeline_kind`` implies: each kernel declares its pipeline once."""
        return KernelCostParams(
            name=self.name, pipeline=_PIPELINE_MODES[self.pipeline_kind], **fields
        )

    # ------------------------------------------------------------------ offline
    @abc.abstractmethod
    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        """Quantize / reorder an FP weight matrix ``(N, K)`` for deployment."""

    # ------------------------------------------------------------------ numeric execution
    @abc.abstractmethod
    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        """Execute ``Y = X @ W^T`` through the kernel's arithmetic; returns FP output."""

    # ------------------------------------------------------------------ performance
    def estimate(
        self,
        shape: GemmShape,
        device="H800",
        use_pipeline_sim: bool = False,
        group_sizes: Optional[Sequence[GemmShape]] = None,
    ) -> KernelReport:
        """Estimate latency of this kernel for ``shape`` on ``device`` (a GPU spec or name).

        With ``use_pipeline_sim`` the event-driven warp-group simulator replaces the closed-
        form combination of stage times (the per-iteration stage durations are identical, so
        the two agree up to scheduling effects).  ``group_sizes`` turns the estimate into a
        grouped GEMM (e.g. the per-expert GEMMs of an MoE layer) executed back to back by the
        same persistent kernel.
        """
        gpu = get_gpu(device)
        params = self.cost_params(gpu)
        shapes: List[GemmShape] = list(group_sizes) if group_sizes else [shape]

        breakdowns = [gemm_cost(s, gpu, params) for s in shapes]
        total_latency = sum(b.total for b in breakdowns)
        main = breakdowns[0]

        pipeline_result = None
        if use_pipeline_sim:
            pipeline_result = self._simulate(shapes, gpu, params)
            # Pipeline simulation covers the main loops; keep epilogue/launch from the model.
            extras = sum(b.t_epilogue + b.t_launch for b in breakdowns)
            total_latency = pipeline_result.total_time + extras

        return KernelReport(
            kernel=self.name,
            shape=shape,
            gpu=gpu.name,
            latency_s=total_latency,
            breakdown=main,
            pipeline=pipeline_result,
            alpha=params.alpha,
            weight_bytes=sum(
                int(s.weight_elements * Precision.bytes(params.weight_precision)) for s in shapes
            ),
        )

    def _simulate(self, shapes: Sequence[GemmShape], gpu: GpuSpec, params: KernelCostParams
                  ) -> PipelineResult:
        timings = []
        iterations = []
        for s in shapes:
            work = decompose_work(s, gpu, params)
            timings.append(derive_iteration_timing(s, gpu, params))
            iterations.append(work.k_iterations * work.tiles_per_block)
        kwargs = self._pipeline_kwargs()
        if len(shapes) > 1 and "per_gemm_overhead" not in kwargs:
            # Grouped (e.g. per-expert MoE) GEMMs: the persistent ImFP kernel flows from one
            # GEMM into the next, while non-persistent kernels drain and refill the pipeline.
            kwargs["per_gemm_overhead"] = (
                0.0 if self.pipeline_kind == PipelineKind.IMFP else 2.0e-6
            )
        return simulate_pipeline(self.pipeline_kind, timings, iterations, **kwargs)

    def _pipeline_kwargs(self) -> Dict[str, Any]:
        """Extra keyword arguments for the pipeline simulator; kernels may override."""
        return {}

    # ------------------------------------------------------------------ convenience
    def reference(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Full-precision reference output used by accuracy checks."""
        return np.asarray(x, dtype=np.float64) @ np.asarray(w, dtype=np.float64).T

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"{type(self).__name__}(name={self.name!r})"
