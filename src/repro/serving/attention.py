"""Per-layer attention cost model (FlashAttention-2 style, Section 6).

During decoding each new token attends over the whole KV cache, so attention is overwhelmingly
memory-bound: the dominant cost is streaming ``batch x context_length x 2 x kv_dim`` cached
K/V elements from HBM, followed by a comparatively small amount of Tensor-Core work
(``q·K^T`` and ``p·V``) and the write of the new token's K/V entry.  That is exactly why the
KV-cache precision (FP8 / INT8 / INT4) and the attention kernel's sustained bandwidth are what
differentiate the serving systems in Figures 4 and 10.

:class:`AttentionLine` holds the two cost forms for one model shard on one GPU, with every
term that does not depend on the iteration resolved once (KV dim, heads, head dim, KV bytes
per element, and the bandwidth and Tensor-Core denominators):

* the *decode* form — one decode step over a batch, given its size and its *summed* cached
  context.  Every term is linear per sequence, so a ragged batch costs what its totals say,
  and a uniform batch of ``B`` sequences at context ``c`` is the form at ``(B, B * c)`` (the
  Table 1 / Figure 4 fixed-batch quantity);
* the *chunk* form — one prefill chunk attending causally over the already-cached prefix
  plus itself (Sarathi-style chunked prefill).  A whole prompt is the chunk at
  ``context_start=0``.

Both forms take scalars or int64 arrays (a run of iterations, elementwise) and run the same
operations in the same order either way, so each element equals the scalar evaluation bit
for bit.  :class:`~repro.serving.engine.ServingEngine` keeps one line and prices every
iteration through it; :func:`decode_attention_cost_from_totals` and
:func:`chunked_prefill_attention_cost` are one-call wrappers that validate their arguments
and return the :class:`AttentionCost` split.

Every form takes a ``tp_degree``: with Megatron-style tensor parallelism the query heads are
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
    "AttentionLine",
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


class AttentionLine:
    """Decode and chunked-prefill attention for one model shard on one GPU.

    Everything that does not depend on the iteration is resolved once: the per-GPU KV dim
    and head count, the head dim, the KV-cache bytes per element, the effective bandwidth
    and the two Tensor-Core denominators (decode, and prefill at 0.6 of it).  Every term
    is evaluated left to right in one fixed operand order (``2.0 * tokens * kv_dim *
    kv_bytes / bw``), so an int64-array evaluation equals the scalar one element for
    element, bit for bit.

    ``attention_efficiency`` scales the *whole* kernel (bandwidth and compute alike) and is
    the knob that distinguishes the systems' attention implementations (e.g. TRT-FP8's
    FP8-optimized attention vs. QServe's kernels on GQA models); see
    :mod:`repro.serving.systems` for the calibrated per-system values.
    """

    __slots__ = ("kv_dim", "heads", "head_dim", "kv_bytes_per_element", "_effective_bw",
                 "_decode_tc", "_chunk_tc")

    def __init__(
        self,
        model: ModelConfig,
        gpu: GpuSpec,
        kv_bytes_per_element: float,
        bandwidth_efficiency: float = 0.85,
        attention_efficiency: float = 1.0,
        tp_degree: int = 1,
    ):
        _check_efficiency(attention_efficiency)
        self.kv_dim = model.kv_dim_per_gpu(tp_degree)
        self.heads = model.heads_per_gpu(tp_degree)
        self.head_dim = model.head_dim
        self.kv_bytes_per_element = kv_bytes_per_element
        self._effective_bw = gpu.memory_bandwidth * bandwidth_efficiency * attention_efficiency
        peak = gpu.tensor_core_throughput(_tensor_precision(gpu))
        self._decode_tc = peak * attention_efficiency
        # Prefill-style attention sustains lower Tensor-Core utilization than pure GEMM.
        self._chunk_tc = peak * 0.6 * attention_efficiency

    def _kv_time(self, tokens):
        """Streaming ``2 x tokens x kv_dim`` K/V elements: a read of cached context or the
        write of new entries."""
        return 2.0 * tokens * self.kv_dim * self.kv_bytes_per_element / self._effective_bw

    def _decode_compute(self, total_context):
        """``q·K^T`` and ``p·V``: 2 * context * heads * head_dim MACs each per sequence."""
        return 8.0 * total_context * self.heads * self.head_dim / self._decode_tc

    def _chunk_compute(self, chunk_tokens: int, context_start):
        """The chunk's causal attention: each query position q attends over
        ``context_start + (its offset + 1)`` keys."""
        attended = chunk_tokens * context_start + chunk_tokens * (chunk_tokens + 1) / 2.0
        return 8.0 * attended * self.heads * self.head_dim / self._chunk_tc

    def decode(self, batch_size: int, total_context):
        """Total decode attention of ``batch_size`` sequences over ``total_context``."""
        return (
            self._kv_time(total_context) + self._kv_time(batch_size)
            + self._decode_compute(total_context) + _ATTENTION_LAUNCH_OVERHEAD_S
        )

    def chunk(self, chunk_tokens: int, context_start):
        """Total attention of one ``chunk_tokens`` chunk over ``context_start`` cached."""
        return (
            self._kv_time(context_start) + self._kv_time(chunk_tokens)
            + self._chunk_compute(chunk_tokens, context_start) + _ATTENTION_LAUNCH_OVERHEAD_S
        )

    def decode_cost(self, batch_size: int, total_context) -> AttentionCost:
        """:meth:`decode` split into its terms; ``.total`` equals it bit for bit."""
        return AttentionCost(
            kv_read=self._kv_time(total_context),
            kv_write=self._kv_time(batch_size),
            compute=self._decode_compute(total_context),
            overhead=_ATTENTION_LAUNCH_OVERHEAD_S,
        )

    def chunk_cost(self, chunk_tokens: int, context_start) -> AttentionCost:
        """:meth:`chunk` split into its terms; ``.total`` equals it bit for bit."""
        return AttentionCost(
            kv_read=self._kv_time(context_start),
            kv_write=self._kv_time(chunk_tokens),
            compute=self._chunk_compute(chunk_tokens, context_start),
            overhead=_ATTENTION_LAUNCH_OVERHEAD_S,
        )


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
    ``c`` is ``total_context = batch_size * c``.  One :meth:`AttentionLine.decode_cost`;
    callers that price many iterations keep the line.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if total_context < batch_size:
        raise ValueError("total_context must cover at least one token per sequence")
    return AttentionLine(
        model, gpu, kv_bytes_per_element, bandwidth_efficiency, attention_efficiency,
        tp_degree,
    ).decode_cost(batch_size, total_context)


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

    An int ``context_start`` prices one chunk; an int64 array prices the same chunk size at
    many cached-prefix lengths, elementwise.  One :meth:`AttentionLine.chunk_cost`.
    """
    if chunk_tokens <= 0:
        raise ValueError("chunk_tokens must be positive")
    lowest = context_start.min() if isinstance(context_start, np.ndarray) else context_start
    if lowest < 0:
        raise ValueError("context_start must be non-negative")
    return AttentionLine(
        model, gpu, kv_bytes_per_element, bandwidth_efficiency, attention_efficiency,
        tp_degree,
    ).chunk_cost(chunk_tokens, context_start)
