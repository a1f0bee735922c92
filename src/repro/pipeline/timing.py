"""Per-iteration stage timings for the warp-group pipeline simulator.

The event-driven simulator (:mod:`repro.pipeline.simulator`) works in units of one main-loop
iteration of one thread block: load a ``tile_n x tile_k`` weight slice, dequantize it, run the
MMAs against the ``tile_m x tile_k`` activation slice.  This module converts a GEMM problem,
a GPU spec and a kernel configuration into those per-iteration stage durations, using the same
block-level throughput apportionment as the analytic cost model (Equation 6's ``S * L``
concurrent thread blocks, with ``L = 1`` resident block per SM), so the simulator and the
closed-form model agree in steady state and differ only where scheduling effects (bubbles,
sync, round trips, grouped-GEMM fill/drain) matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..costmodel.model import GemmShape, KernelCostParams
from ..gpu.specs import GpuSpec, Precision

__all__ = ["IterationTiming", "WorkDecomposition", "derive_iteration_timing", "decompose_work"]


@dataclass(frozen=True)
class IterationTiming:
    """Stage durations (seconds) for one main-loop iteration of one thread block."""

    t_load: float          # GMEM -> SMEM weight-tile transfer (TMA)
    t_dequant: float       # CUDA-core dequantization of the tile
    t_mma: float           # Tensor-core MMAs of the tile
    t_smem_roundtrip: float  # extra RF <-> SMEM traffic of the ExCP dequant warp group
    t_sync: float          # one software warp-group synchronization (mbarrier wait)

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class WorkDecomposition:
    """How a GEMM decomposes into per-block work for the simulator."""

    k_iterations: int        # main-loop iterations per output tile
    total_tiles: int         # output tiles over the whole GEMM
    concurrent_blocks: int   # S * L, with L = 1
    tiles_per_block: int     # sequential output tiles a single block processes


#: SMEM bandwidth per SM in bytes/s (128 B/clk on Hopper); only the ExCP round-trip uses it.
_SMEM_BYTES_PER_CLOCK = 128
#: Cost of one software warp-group synchronization (mbarrier arrive/wait round), seconds.
_SYNC_LATENCY_S = 1.5e-7


def decompose_work(shape: GemmShape, gpu: GpuSpec, params: KernelCostParams) -> WorkDecomposition:
    """Split a GEMM into tiles / iterations and distribute tiles over the SMs' blocks."""
    k_iterations = math.ceil(shape.k / params.tile_k)
    m_tiles = math.ceil(shape.m / params.tile_m)
    n_tiles = math.ceil(shape.n / params.tile_n)
    total_tiles = m_tiles * n_tiles
    concurrent = gpu.num_sms
    tiles_per_block = math.ceil(total_tiles / concurrent)
    return WorkDecomposition(
        k_iterations=k_iterations,
        total_tiles=total_tiles,
        concurrent_blocks=concurrent,
        tiles_per_block=tiles_per_block,
    )


def derive_iteration_timing(shape: GemmShape, gpu: GpuSpec, params: KernelCostParams
                            ) -> IterationTiming:
    """Per-iteration stage durations at block-level throughput shares."""
    concurrent = gpu.num_sms
    tile_elements = params.tile_n * params.tile_k
    effective_m = min(params.tile_m, shape.m)

    weight_bytes = tile_elements * Precision.bytes(params.weight_precision)
    block_bandwidth = gpu.memory_bandwidth * params.bandwidth_efficiency / concurrent
    t_load = weight_bytes / block_bandwidth

    block_cuda = gpu.cuda_core_int32_tops / concurrent
    alpha_total = params.alpha + params.load_overhead_alpha
    t_dequant = alpha_total * tile_elements / block_cuda if alpha_total > 0 else 0.0

    block_tc = gpu.tensor_core_throughput(params.mma_precision) * params.tensor_efficiency / concurrent
    t_mma = 2.0 * effective_m * tile_elements / block_tc

    # ExCP round trip: read packed tile (4-bit), write dequantized tile (8-bit), read it again
    # for the MMA warp group.  The block is alone on its SM, so it has the SMEM bandwidth.
    smem_bandwidth = _SMEM_BYTES_PER_CLOCK * gpu.clock_hz
    roundtrip_bytes = tile_elements * (0.5 + 1.0 + 1.0)
    t_roundtrip = roundtrip_bytes / smem_bandwidth

    return IterationTiming(
        t_load=t_load,
        t_dequant=t_dequant,
        t_mma=t_mma,
        t_smem_roundtrip=t_roundtrip,
        t_sync=_SYNC_LATENCY_S,
    )
