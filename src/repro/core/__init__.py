"""The paper's primary contribution, exposed as a small public API.

The heavy lifting lives in the substrates (:mod:`repro.quant`, :mod:`repro.layout`,
:mod:`repro.dequant`, :mod:`repro.pipeline`, :mod:`repro.kernels`); this package re-exports
the LiquidGEMM kernel and the convenience functions most downstream users want.
"""

from ..kernels.liquidgemm import LiquidGemmKernel
from .api import (
    ClusterSimulation,
    GemmResult,
    RunSpec,
    ServingSimulation,
    WorkloadSpec,
    compare_kernels,
    quantize_weights,
    run,
    simulate_cluster,
    simulate_serving,
    w4a8_gemm,
)

__all__ = [
    "LiquidGemmKernel",
    "ClusterSimulation",
    "GemmResult",
    "RunSpec",
    "ServingSimulation",
    "WorkloadSpec",
    "compare_kernels",
    "quantize_weights",
    "run",
    "simulate_cluster",
    "simulate_serving",
    "w4a8_gemm",
]
