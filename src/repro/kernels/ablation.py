"""Ablation variants of LiquidGEMM (Figure 13): Baseline, +LQQ, +ExCP, +ImFP.

The paper's ablation enables the two techniques one at a time:

* **Baseline** — the W4A8 kernel skeleton with QServe-style dequantization (expensive alpha)
  and no warp-specialized pipeline: dequant and MMA serialize in the main loop.
* **LQQ** — swap in LiquidQuant's two-instruction dequantization; pipeline unchanged.
* **ExCP** — LQQ plus the explicit coarse-grained pipeline (separate Load / Dequant / MMA warp
  groups communicating through shared memory, with its round-trip traffic and software
  synchronization).
* **ImFP** — LQQ plus the implicit fine-grained pipeline (the shipping LiquidGEMM).

ExCP and ImFP share memory layout and dequantization logic, exactly as in the paper; they
differ only in the pipeline organisation, which here means the pipeline simulator kind (the
closed-form combination rule follows from it).  Every variant keeps LiquidGEMM's cost
parameters under its own name and pipeline; only the baseline also swaps in QServe's alpha.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..costmodel.model import KernelCostParams
from ..dequant.qserve import qserve_alpha
from ..gpu.specs import GpuSpec
from ..pipeline.simulator import PipelineKind
from .liquidgemm import LiquidGemmKernel

__all__ = [
    "AblationBaselineKernel",
    "AblationLqqKernel",
    "AblationExcpKernel",
    "AblationImfpKernel",
    "ablation_kernels",
]


class AblationBaselineKernel(LiquidGemmKernel):
    """W4A8 skeleton with QServe-style dequantization, no pipeline specialization."""

    name = "ablation-baseline"
    pipeline_kind = PipelineKind.SERIAL

    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return dataclasses.replace(super().cost_params(gpu), alpha=qserve_alpha())


class AblationLqqKernel(LiquidGemmKernel):
    """LiquidQuant dequantization enabled, pipeline still serial (the "+LQQ" bar)."""

    name = "ablation-lqq"
    pipeline_kind = PipelineKind.SERIAL


class AblationExcpKernel(LiquidGemmKernel):
    """LQQ + explicit coarse-grained pipeline (three specialized warp groups)."""

    name = "ablation-excp"
    pipeline_kind = PipelineKind.EXCP


class AblationImfpKernel(LiquidGemmKernel):
    """LQQ + implicit fine-grained pipeline — identical to the shipping LiquidGEMM."""

    name = "ablation-imfp"
    pipeline_kind = PipelineKind.IMFP


def ablation_kernels() -> Dict[str, LiquidGemmKernel]:
    """The four ablation configurations in presentation order."""
    return {
        "baseline": AblationBaselineKernel(),
        "lqq": AblationLqqKernel(),
        "excp": AblationExcpKernel(),
        "imfp": AblationImfpKernel(),
    }
