"""LiquidGEMM: the paper's W4A8 kernel (LiquidQuant + dual-MMA layout + ImFP pipeline).

Offline (``prepare_weights``):

1. two-level LiquidQuant quantization (per-channel protective INT8, per-group shifted UINT4);
2. dual-MMA packed layout reordering of the UINT4 codes (so deployment-ready bytes are
   exactly what the GMEM/SMEM of the real kernel would hold).

Online (``run``):

1. per-token dynamic INT8 activation quantization (SmoothQuant-style, Section 6);
2. Equation-12 dequantization of the UINT4 codes back to INT8 — by default through the fast
   vectorized path whose bit-exact equivalence with the emulated IMAD/XOR register path is
   established by the test suite (``verify_tile_path`` replays the register path on real
   tiles);
3. INT8 x INT8 -> INT32 accumulation (the Tensor-Core WGMMA);
4. epilogue: first-level per-channel scale x per-token activation scale.

Performance (``estimate``): full-overlap pipeline (ImFP) on Hopper WGMMA efficiency with the
LQQ alpha measured from the instruction emulation, optionally cross-checked against the
event-driven pipeline simulator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..costmodel.model import KernelCostParams
from ..dequant.lqq import lqq_alpha, lqq_dequant_registers, registers_to_int8
from ..gpu.specs import GpuSpec, Precision
from ..isa import InstructionStats
from ..layout.dual_mma import (
    DUAL_MMA_TILE_COLS,
    DUAL_MMA_TILE_ROWS,
    PackedWeightMatrix,
    dual_mma_index_table,
    pack_weight_matrix,
)
from ..pipeline.simulator import PipelineKind
from ..quant.liquidquant import (
    LqqConfig,
    LqqQuantizedWeight,
    lqq_dequantize_int8,
    lqq_quantize,
)
from .base import GemmKernel, PreparedWeights, int8_gemm
from .library import _DRAM_EFFICIENCY, _HOPPER_TENSOR_EFFICIENCY

__all__ = ["LiquidGemmKernel"]


class LiquidGemmKernel(GemmKernel):
    """The paper's hardware-efficient W4A8 GEMM kernel."""

    name = "liquidgemm"
    pipeline_kind = PipelineKind.IMFP

    def __init__(self, group_size: int = 64, num_compute_warp_groups: int = 2):
        if group_size % 32 != 0:
            # The dual-MMA layout requires every 32-column MMA fragment to fall inside one
            # quantization group so each packed register carries a single (scale, offset).
            raise ValueError("LiquidGEMM requires the group size to be a multiple of 32")
        self.config = LqqConfig(group_size=group_size)
        self.num_compute_warp_groups = num_compute_warp_groups

    # ------------------------------------------------------------------ cost model
    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return self._params(
            weight_precision=Precision.INT4,
            act_precision=Precision.INT8,
            mma_precision=Precision.INT8,
            alpha=lqq_alpha(),
            tile_m=256,
            tile_n=128,
            tile_k=64,
            # Dual-MMA packed layout: one LDS.128 + one address op per 32 elements.
            load_overhead_alpha=2.0 / 32.0,
            tensor_efficiency=_HOPPER_TENSOR_EFFICIENCY,
            bandwidth_efficiency=_DRAM_EFFICIENCY,
        )

    def _pipeline_kwargs(self):
        # Ablation subclasses reuse this kernel with serial/ExCP pipelines, whose simulators
        # have no notion of multiple compute warp groups.
        if self.pipeline_kind == PipelineKind.IMFP:
            return {"num_compute_wgs": self.num_compute_warp_groups}
        return {}

    # ------------------------------------------------------------------ offline
    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        w = np.asarray(w, dtype=np.float64)
        qw = lqq_quantize(w, self.config)
        packed = pack_weight_matrix(qw.q_u4)
        return PreparedWeights(
            kernel=self.name,
            original=w,
            payload={"lqq": qw, "packed": packed},
            deployed_bytes=qw.memory_bytes(),
        )

    # ------------------------------------------------------------------ numeric execution
    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        qw: LqqQuantizedWeight = weights.payload["lqq"]
        return int8_gemm(x, lqq_dequantize_int8(qw), qw.scale_ch)

    # ------------------------------------------------------------------ register-path check
    def verify_tile_path(
        self,
        weights: PreparedWeights,
        tile_row: int = 0,
        tile_col: int = 0,
        stats: Optional[InstructionStats] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantize one dual-MMA tile through the emulated register path.

        Returns ``(register_path, reference)`` INT8 tiles of shape (64, 64) so tests and the
        quickstart example can assert bit-exact agreement between the IMAD/XOR register
        sequence operating on the packed layout and the plain Equation-12 reference.
        """
        qw: LqqQuantizedWeight = weights.payload["lqq"]
        packed: PackedWeightMatrix = weights.payload["packed"]
        tile = packed.tiles[tile_row][tile_col]
        r0, c0 = tile_row * DUAL_MMA_TILE_ROWS, tile_col * DUAL_MMA_TILE_COLS
        rows = min(DUAL_MMA_TILE_ROWS, qw.n - r0)
        cols = min(DUAL_MMA_TILE_COLS, qw.k - c0)
        reference = lqq_dequantize_int8(qw)[r0 : r0 + rows, c0 : c0 + cols]

        tile_rows, tile_cols = dual_mma_index_table()
        # Each register's eight elements lie in one weight row, hence share one group's
        # (scale, offset); out-of-range (padding) registers get scale 1 and offset 128.
        reg_rows, reg_cols = r0 + tile_rows[..., 0], c0 + tile_cols[..., 0]
        in_range = (reg_rows < qw.n) & (reg_cols < qw.k)
        group = (np.minimum(reg_rows, qw.n - 1),
                 np.minimum(reg_cols, qw.k - 1) // self.config.group_size)
        scales = np.where(in_range, qw.scale_u8[group], 1)
        offsets = np.where(in_range, qw.offset_a[group], 128)
        # One emulated sequence per lane (its LDS.128's four registers), as a thread runs it.
        byte_regs = np.stack([
            lqq_dequant_registers(registers, lane_scales, lane_offsets, stats)
            for registers, lane_scales, lane_offsets in zip(tile.words, scales, offsets)
        ])
        out = np.zeros((DUAL_MMA_TILE_ROWS, DUAL_MMA_TILE_COLS), dtype=np.int8)
        out[tile_rows, tile_cols] = np.concatenate(
            [registers_to_int8(byte_regs[..., 0]), registers_to_int8(byte_regs[..., 1])], axis=-1
        )
        # Padding rows/columns are irrelevant; only compare the in-range region.
        return out[:rows, :cols], reference
