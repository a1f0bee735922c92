"""Baseline GEMM kernels: TRT-FP16, TRT-W8A8, TRT-FP8, TRT-W4A16 and QServe W4A8.

Each baseline follows the same recipe: quantize the operands the way the corresponding system
does, execute the arithmetic numerically (integer accumulation where the real kernel uses
INT8 Tensor Cores), and describe its performance through :class:`KernelCostParams` so the
shared cost model / pipeline simulator can be applied uniformly.  Parameter choices are
documented inline with their provenance (measured from the ISA emulation, taken from the
paper, or standard kernel-engineering facts).
"""

from __future__ import annotations


import numpy as np

from ..costmodel.model import KernelCostParams
from ..dequant.qserve import qserve_alpha
from ..dequant.w4a16 import w4a16_alpha
from ..gpu.specs import GpuSpec, Precision
from ..pipeline.simulator import PipelineKind
from ..quant.base import QuantGranularity, dequantize, quantize_tensor, group_reshape, group_unreshape
from ..quant.kvcache import fp8_e4m3_round
from ..quant.progressive import QServeConfig, qserve_dequantize_int8, qserve_quantize
from .base import GemmKernel, PreparedWeights, int8_gemm

__all__ = [
    "Fp16Kernel",
    "W8A8Kernel",
    "Fp8Kernel",
    "W4A16Kernel",
    "QServeW4A8Kernel",
]

#: Sustained fraction of peak Tensor-Core throughput for Hopper warp-specialized (WGMMA
#: ping-pong) kernels vs. pre-Hopper-style mma.sync kernels.  These reflect the well-known
#: gap between CUTLASS 3.x Hopper kernels and Ampere-style kernels running on Hopper, and are
#: the only free parameters of the baseline models (see DESIGN.md).
_HOPPER_TENSOR_EFFICIENCY = 0.95
_AMPERE_STYLE_TENSOR_EFFICIENCY = 0.85
_DRAM_EFFICIENCY = 0.85


class Fp16Kernel(GemmKernel):
    """Unquantized FP16 GEMM (TRT-FP16): no dequantization, FP16 Tensor Cores."""

    name = "fp16"
    pipeline_kind = PipelineKind.SERIAL

    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return self._params(
            weight_precision=Precision.FP16,
            act_precision=Precision.FP16,
            mma_precision=Precision.FP16,
            alpha=0.0,
            tile_m=256,
            tile_n=128,
            tile_k=64,
            tensor_efficiency=_HOPPER_TENSOR_EFFICIENCY,
            bandwidth_efficiency=_DRAM_EFFICIENCY,
        )

    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        w = np.asarray(w, dtype=np.float64)
        return PreparedWeights(
            kernel=self.name,
            original=w,
            payload={"w_fp16": w.astype(np.float16)},
            deployed_bytes=w.size * 2,
        )

    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        w16 = weights.payload["w_fp16"].astype(np.float32)
        x16 = np.asarray(x, dtype=np.float16).astype(np.float32)
        return (x16 @ w16.T).astype(np.float64)


class W8A8Kernel(GemmKernel):
    """Symmetric W8A8 GEMM (TRT-W8A8): INT8 Tensor Cores, dequantization in the epilogue."""

    name = "w8a8"
    pipeline_kind = PipelineKind.SERIAL

    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return self._params(
            weight_precision=Precision.INT8,
            act_precision=Precision.INT8,
            mma_precision=Precision.INT8,
            alpha=0.0,
            tile_m=256,
            tile_n=128,
            tile_k=64,
            tensor_efficiency=_HOPPER_TENSOR_EFFICIENCY,
            bandwidth_efficiency=_DRAM_EFFICIENCY,
        )

    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        w = np.asarray(w, dtype=np.float64)
        codes, params = quantize_tensor(w, bits=8, symmetric=True,
                                        granularity=QuantGranularity.PER_CHANNEL)
        return PreparedWeights(
            kernel=self.name,
            original=w,
            payload={"q_i8": codes.astype(np.int8), "scale_ch": params.scale},
            deployed_bytes=codes.size + params.scale.size * 2,
        )

    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        return int8_gemm(x, weights.payload["q_i8"], weights.payload["scale_ch"])


class Fp8Kernel(GemmKernel):
    """FP8 (E4M3) GEMM (TRT-FP8): same byte traffic and Tensor-Core rate as INT8 on Hopper."""

    name = "fp8"
    pipeline_kind = PipelineKind.SERIAL

    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return self._params(
            weight_precision=Precision.FP8,
            act_precision=Precision.FP8,
            mma_precision=Precision.FP8,
            alpha=0.0,
            tile_m=256,
            tile_n=128,
            tile_k=64,
            tensor_efficiency=_HOPPER_TENSOR_EFFICIENCY,
            bandwidth_efficiency=_DRAM_EFFICIENCY,
        )

    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        w = np.asarray(w, dtype=np.float64)
        amax = np.abs(w).max(axis=1, keepdims=True)
        scale = np.maximum(amax / 448.0, np.finfo(np.float64).tiny)
        w_fp8 = fp8_e4m3_round(w / scale)
        return PreparedWeights(
            kernel=self.name,
            original=w,
            payload={"w_fp8": w_fp8, "scale_ch": scale},
            deployed_bytes=w.size + scale.size * 2,
        )

    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        amax = np.abs(x).max(axis=1, keepdims=True)
        x_scale = np.maximum(amax / 448.0, np.finfo(np.float64).tiny)
        x_fp8 = fp8_e4m3_round(x / x_scale)
        acc = x_fp8 @ weights.payload["w_fp8"].T
        return acc * x_scale * weights.payload["scale_ch"].reshape(1, -1)


class W4A16Kernel(GemmKernel):
    """Weight-only 4-bit GEMM (TRT-W4A16): group-wise INT4 weights dequantized to FP16.

    Dequantization is cheap (magic-number conversion, alpha measured from the emulation) but
    the MMA runs on the FP16 Tensor-Core roof and dequant stays serial with the MMAs in the
    mainloop, which is why the kernel falls behind W4A8 once the problem turns compute-bound.
    """

    name = "w4a16"
    pipeline_kind = PipelineKind.SERIAL

    def __init__(self, group_size: int = 128):
        self.group_size = group_size

    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return self._params(
            weight_precision=Precision.INT4,
            act_precision=Precision.FP16,
            mma_precision=Precision.FP16,
            alpha=w4a16_alpha(),
            tile_m=256,
            tile_n=128,
            tile_k=64,
            load_overhead_alpha=0.125,  # per-group FP16 scale/zero fetch amortized over 8 elems
            tensor_efficiency=_HOPPER_TENSOR_EFFICIENCY,
            bandwidth_efficiency=_DRAM_EFFICIENCY,
        )

    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        w = np.asarray(w, dtype=np.float64)
        codes, params = quantize_tensor(
            w, bits=4, symmetric=False, signed=False,
            granularity=QuantGranularity.PER_GROUP, group_size=self.group_size,
        )
        return PreparedWeights(
            kernel=self.name,
            original=w,
            payload={"q_u4": codes.astype(np.uint8), "params": params},
            deployed_bytes=(codes.size + 1) // 2 + params.scale.size * 4,
        )

    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        params = weights.payload["params"]
        codes = weights.payload["q_u4"]
        grouped = group_reshape(codes.astype(np.int32), self.group_size)
        w_hat = group_unreshape(dequantize(grouped, params))
        x16 = np.asarray(x, dtype=np.float16).astype(np.float64)
        return x16 @ w_hat.T


class QServeW4A8Kernel(GemmKernel):
    """QServe's W4A8 kernel: progressive quantization with subtraction-after-multiplication.

    Cost-model parameters:

    * ``alpha`` — measured by replaying the actual dequantization instruction sequence
      (unpack + IMAD + lowered ``vsub4``) through the ISA emulation: ≈4.6 instructions per
      element (Section 3.2's "dozens of operations" per register).
    * ``load_overhead_alpha`` — the conventional-layout LDS.32 path plus per-group scale /
      zero-point handling and pointer arithmetic charged to CUDA cores (Section 5.2), about
      1.5 additional instructions per element.
    * serial dequant pipeline and Ampere-style efficiency: QServe's kernel predates Hopper
      warp specialization, so dequantization is not overlapped with the MMAs and the Tensor
      Cores sustain a lower fraction of peak.
    """

    name = "qserve-w4a8"
    pipeline_kind = PipelineKind.SERIAL

    def __init__(self, group_size: int = 128):
        self.config = QServeConfig(group_size=group_size)

    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return self._params(
            weight_precision=Precision.INT4,
            act_precision=Precision.INT8,
            mma_precision=Precision.INT8,
            alpha=qserve_alpha(),
            tile_m=128,
            tile_n=128,
            tile_k=64,
            load_overhead_alpha=1.5,
            tensor_efficiency=_AMPERE_STYLE_TENSOR_EFFICIENCY,
            bandwidth_efficiency=_DRAM_EFFICIENCY,
        )

    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        w = np.asarray(w, dtype=np.float64)
        qw = qserve_quantize(w, self.config)
        return PreparedWeights(
            kernel=self.name,
            original=w,
            payload={"qserve": qw},
            deployed_bytes=qw.memory_bytes(),
        )

    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        qw = weights.payload["qserve"]
        return int8_gemm(x, qserve_dequantize_int8(qw), qw.scale_ch)
