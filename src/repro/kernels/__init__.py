"""GEMM kernels: LiquidGEMM, its ablation variants, and the baselines it is compared against."""

from .base import GemmKernel, KernelReport, PreparedWeights
from .library import Fp16Kernel, Fp8Kernel, QServeW4A8Kernel, W4A16Kernel, W8A8Kernel
from .liquidgemm import LiquidGemmKernel
from .ablation import (
    AblationBaselineKernel,
    AblationExcpKernel,
    AblationImfpKernel,
    AblationLqqKernel,
    ablation_kernels,
)
from .registry import available_kernels, default_comparison_set, figure12_kernels, get_kernel

__all__ = [
    "GemmKernel",
    "KernelReport",
    "PreparedWeights",
    "Fp16Kernel",
    "Fp8Kernel",
    "QServeW4A8Kernel",
    "W4A16Kernel",
    "W8A8Kernel",
    "LiquidGemmKernel",
    "AblationBaselineKernel",
    "AblationExcpKernel",
    "AblationImfpKernel",
    "AblationLqqKernel",
    "ablation_kernels",
    "available_kernels",
    "default_comparison_set",
    "figure12_kernels",
    "get_kernel",
]
