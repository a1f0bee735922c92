"""Simulated GPU hardware: specs and the shared-memory bank-conflict model."""

from .specs import A100, H100, H800, GpuSpec, Precision, get_gpu, list_gpus
from .memory import smem_bank_conflicts

__all__ = [
    "A100",
    "H100",
    "H800",
    "GpuSpec",
    "Precision",
    "get_gpu",
    "list_gpus",
    "smem_bank_conflicts",
]
