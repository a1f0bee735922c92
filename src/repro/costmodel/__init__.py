"""Analytical cost model (Equations 3-6) and roofline analysis (Figure 1c)."""

from .model import (
    CostBreakdown,
    GemmLine,
    GemmShape,
    KernelCostParams,
    PipelineMode,
    alpha_budget,
    gemm_cost,
    transition_batch_size,
)
from .roofline import (
    STANDARD_CONFIGS,
    RooflineConfig,
    RooflinePoint,
    ridge_points,
    roofline_curve,
)

__all__ = [
    "CostBreakdown",
    "GemmLine",
    "GemmShape",
    "KernelCostParams",
    "PipelineMode",
    "alpha_budget",
    "gemm_cost",
    "transition_batch_size",
    "STANDARD_CONFIGS",
    "RooflineConfig",
    "RooflinePoint",
    "ridge_points",
    "roofline_curve",
]
