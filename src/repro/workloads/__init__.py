"""Workload generators: per-model layer GEMM shapes, batch sweeps, and request traces."""

from .shapes import (
    PAPER_BATCH_SIZES,
    LayerGemms,
    batch_sweep,
    decode_layer_gemms,
    moe_expert_batch,
)
from .traces import (
    SHAREGPT_OUTPUTS,
    SHAREGPT_PROMPTS,
    ArrivalProcess,
    LengthDistribution,
    WorkloadSpec,
    agent_swarm_trace,
    generate_trace,
    merge_traces,
    multi_turn_chat_trace,
    rag_trace,
    sharegpt_trace,
    tenant_mix_trace,
)

__all__ = [
    "PAPER_BATCH_SIZES",
    "LayerGemms",
    "batch_sweep",
    "decode_layer_gemms",
    "moe_expert_batch",
    "ArrivalProcess",
    "LengthDistribution",
    "SHAREGPT_PROMPTS",
    "SHAREGPT_OUTPUTS",
    "generate_trace",
    "WorkloadSpec",
    "sharegpt_trace",
    "merge_traces",
    "multi_turn_chat_trace",
    "rag_trace",
    "agent_swarm_trace",
    "tenant_mix_trace",
]
