"""Per-layer attention cost model (FlashAttention-2 style, Section 6).

During decoding each new token attends over the whole KV cache, so attention is overwhelmingly
memory-bound: the dominant cost is streaming ``batch x context_length x 2 x kv_dim`` cached
K/V elements from HBM, followed by a comparatively small amount of Tensor-Core work
(``q·K^T`` and ``p·V``) and the write of the new token's K/V entry.  That is exactly why the
KV-cache precision (FP8 / INT8 / INT4) and the attention kernel's sustained bandwidth are what
differentiate the serving systems in Figures 4 and 10.

Two cost forms are provided, the two :meth:`~repro.serving.engine.ServingEngine.iteration_time`
prices every iteration with:

* :func:`decode_attention_cost_from_totals` — one decode step over a batch, given its size
  and its *summed* cached context.  Every term is linear per sequence, so a ragged batch
  costs what its totals say, and a uniform batch of ``B`` sequences at context ``c`` is the
  call at ``(B, B * c)`` (the Table 1 / Figure 4 fixed-batch quantity);
* :func:`chunked_prefill_attention_cost` — one prefill chunk attending causally over the
  already-cached prefix plus itself (Sarathi-style chunked prefill).  A whole prompt is the
  chunk at ``context_start=0``.  The cached prefix may be a scalar (one chunk) or an int64
  array (one chunk size priced at many prefix lengths, elementwise).

Both accept a ``tp_degree``: with Megatron-style tensor parallelism the query heads are
split ``tp_degree`` ways and the KV heads are split (or replicated, for GQA models with fewer
KV heads than GPUs), so each GPU streams and computes only its shard.  The costs returned are
*per GPU* — the group runs in lockstep, so the per-GPU time is the step time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..gpu.specs import GpuSpec, Precision
from .models import ModelConfig

__all__ = [
    "AttentionCost",
    "decode_attention_cost_from_totals",
    "chunked_prefill_attention_cost",
]


@dataclass(frozen=True)
class AttentionCost:
    """Per-layer attention cost decomposition (seconds).

    The terms are floats, or float64 arrays when the chunk form is priced over an array of
    cached-prefix lengths; :attr:`total` then sums elementwise.
    """

    kv_read: float
    kv_write: float
    compute: float
    overhead: float

    @property
    def total(self) -> float:
        return self.kv_read + self.kv_write + self.compute + self.overhead


#: Kernel launch + softmax bookkeeping overhead per attention layer call.
_ATTENTION_LAUNCH_OVERHEAD_S = 4.0e-6


def _tensor_precision(gpu: GpuSpec) -> str:
    return Precision.FP16 if gpu.supports_precision(Precision.FP16) else Precision.INT8


def _check_efficiency(attention_efficiency: float) -> None:
    if not 0 < attention_efficiency <= 1.0:
        raise ValueError("attention_efficiency must be in (0, 1]")


def decode_attention_cost_from_totals(
    model: ModelConfig,
    gpu: GpuSpec,
    batch_size: int,
    total_context: float,
    kv_bytes_per_element: float,
    bandwidth_efficiency: float = 0.85,
    attention_efficiency: float = 1.0,
    tp_degree: int = 1,
) -> AttentionCost:
    """Closed-form decode attention cost given a batch size and *summed* context length.

    Every term of the ragged decode model is linear per sequence, so one layer's cost is a
    function of ``(batch_size, sum(context_lengths))`` alone; a uniform batch at context
    ``c`` is ``total_context = batch_size * c``.  The serving engine hoists this function's
    scalar sub-expressions and evaluates them in the same operand order, so its memoized and
    vectorized decode attention equals this call bit for bit.

    ``attention_efficiency`` scales the *whole* kernel (bandwidth and compute alike) and is the
    knob that distinguishes the systems' attention implementations (e.g. TRT-FP8's
    FP8-optimized attention vs. QServe's kernels on GQA models); see
    :mod:`repro.serving.systems` for the calibrated per-system values.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if total_context < batch_size:
        raise ValueError("total_context must cover at least one token per sequence")
    _check_efficiency(attention_efficiency)

    kv_dim = model.kv_dim_per_gpu(tp_degree)
    heads = model.heads_per_gpu(tp_degree)

    effective_bw = gpu.memory_bandwidth * bandwidth_efficiency * attention_efficiency

    kv_elements = 2.0 * total_context * kv_dim
    kv_read = kv_elements * kv_bytes_per_element / effective_bw

    new_kv_bytes = 2.0 * batch_size * kv_dim * kv_bytes_per_element
    kv_write = new_kv_bytes / effective_bw

    # q·K^T and p·V: 2 * context * heads * head_dim MACs each per sequence.
    flops = 8.0 * total_context * heads * model.head_dim
    compute = flops / (gpu.tensor_core_throughput(_tensor_precision(gpu)) * attention_efficiency)

    return AttentionCost(
        kv_read=kv_read,
        kv_write=kv_write,
        compute=compute,
        overhead=_ATTENTION_LAUNCH_OVERHEAD_S,
    )


def chunked_prefill_attention_cost(
    model: ModelConfig,
    gpu: GpuSpec,
    chunk_tokens: int,
    context_start: Union[int, np.ndarray],
    kv_bytes_per_element: float,
    bandwidth_efficiency: float = 0.85,
    attention_efficiency: float = 1.0,
    tp_degree: int = 1,
) -> AttentionCost:
    """Cost of one layer's attention for a prefill *chunk* of a longer prompt.

    The chunk's ``chunk_tokens`` queries attend causally over the ``context_start`` tokens
    already resident in the paged KV cache plus the causal prefix inside the chunk itself.
    The cached prefix is streamed from HBM (at KV-cache precision); the chunk's own K/V is
    produced on the fly and written back once.  A whole prompt is the chunk at
    ``context_start=0``: its attention is quadratic in the prompt length.

    An int ``context_start`` prices one chunk in plain Python arithmetic.  An int64 array
    prices the same chunk size at many cached-prefix lengths — the shape of a pinned
    fast-forward epoch, where a prefill advances by one chunk per iteration — and every term
    is then an array.  Both run the same operations in the same order, so each element
    equals the scalar call at that prefix length bit for bit.
    """
    if chunk_tokens <= 0:
        raise ValueError("chunk_tokens must be positive")
    lowest = context_start.min() if isinstance(context_start, np.ndarray) else context_start
    if lowest < 0:
        raise ValueError("context_start must be non-negative")
    _check_efficiency(attention_efficiency)

    kv_dim = model.kv_dim_per_gpu(tp_degree)
    heads = model.heads_per_gpu(tp_degree)
    effective_bw = gpu.memory_bandwidth * bandwidth_efficiency * attention_efficiency

    # Each query position q in the chunk attends over context_start + (its offset + 1) keys.
    attended = chunk_tokens * context_start + chunk_tokens * (chunk_tokens + 1) / 2.0

    kv_read = 2.0 * context_start * kv_dim * kv_bytes_per_element / effective_bw
    kv_write = 2.0 * chunk_tokens * kv_dim * kv_bytes_per_element / effective_bw

    flops = 8.0 * attended * heads * model.head_dim
    # Prefill-style attention sustains lower Tensor-Core utilization than pure GEMM.
    compute = flops / (
        gpu.tensor_core_throughput(_tensor_precision(gpu)) * 0.6 * attention_efficiency
    )
    return AttentionCost(
        kv_read=kv_read,
        kv_write=kv_write,
        compute=compute,
        overhead=_ATTENTION_LAUNCH_OVERHEAD_S,
    )
