"""End-to-end LLM serving performance model (Table 1, Figures 4, 10, 11).

The engine composes the substrates built elsewhere in the library, reaching the
quantization/kernel core exclusively through the unified backend layer
(:mod:`repro.backend` — one :class:`~repro.backend.KernelBackend` per (system, device)):

* per-layer GEMM latency from the backend's resolved kernel cost parameters on the layer
  shapes of :mod:`repro.workloads.shapes` — MoE layers become grouped per-expert GEMMs;
* attention cost from the memory-bound decode model (:mod:`repro.serving.attention`) with the
  backend's KV-cache bytes-per-element and attention efficiency;
* an "Others" bucket (element-wise kernels: layer norms, rotary embedding, residuals, SwiGLU
  activation, dynamic activation quantization) plus per-layer framework overhead;
* KV-cache capacity from the paged allocator (:mod:`repro.serving.kvcache`) under the GPU
  memory budget, which bounds the usable batch size.

Two families of entry points are exposed:

* the **uniform-batch** analytical API (``decode_step_time``, ``prefill_time``,
  ``throughput``, ``peak_throughput``) that reproduces the paper's fixed-batch numbers, and
* the **ragged-batch** step cost consumed by the request-level scheduler simulation:
  ``iteration_time`` prices one mixed iteration — decode tokens over per-sequence contexts
  plus chunked prefill tokens in a single forward pass — or, elementwise, a whole run of
  them; ``mixed_step_time`` is its wrapper over per-sequence contexts and
  :class:`PrefillChunk` objects.

Tensor parallelism (``tp_degree``) is threaded through everything: GEMM shapes, attention,
weight memory and the KV budget are one GPU's Megatron-style shard, and every layer pays two
ring all-reduces over the group interconnect.  Reported throughput is that of the whole TP
group (the GPUs run in lockstep, so per-GPU step time is group step time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import KernelBackend, build_backend
from ..costmodel.model import GemmShape, gemm_cost
from ..gpu.device import Device
from ..kernels.base import GemmKernel, as_device
from ..workloads.shapes import decode_layer_gemms
from .attention import (
    _ATTENTION_LAUNCH_OVERHEAD_S,
    _tensor_precision,
    chunked_prefill_attention_cost,
    chunked_prefill_attention_times,
    decode_attention_cost,
    prefill_attention_cost,
)
from .kvcache import KvCacheConfig, PagedKvCache
from .models import ModelConfig, get_model
from .systems import SystemProfile, get_system

__all__ = [
    "LayerBreakdown",
    "PrefillChunk",
    "ThroughputPoint",
    "ServingResult",
    "ServingEngine",
    "peak_resident_tokens",
]


def peak_resident_tokens(prompt_tokens: int, output_tokens: int) -> int:
    """Peak KV residency of one request, in tokens.

    The last generated token is never appended to the cache (it is never an input), so a
    request caches at most ``prompt + output - 1`` tokens.  Every capacity check — the
    scheduler's admission guard, ``throughput`` and ``peak_throughput`` — must use this one
    form; two of them previously disagreed and misreported borderline batches as OOM.
    """
    return prompt_tokens + output_tokens - 1

#: Default entry bound of each step-cost memo cache (see :class:`_BoundedMemo`): large
#: enough that a single simulation never evicts, small enough that a long multi-config
#: sweep reusing one engine stays at a few MB of memo state per cache.
_MEMO_CACHE_ENTRIES = 65536


class _BoundedMemo(dict):
    """Insertion-ordered memo dict with FIFO eviction at ``maxsize`` entries.

    The serving engine memoizes pure cost-model evaluations keyed by iteration shape.
    One trace touches a few thousand distinct keys, but a long sweep over many workloads
    through a shared engine would otherwise grow the memos without bound.  Eviction is
    FIFO (oldest inserted first) so the hit path stays a plain ``dict.get`` — zero
    overhead where it matters — and only the miss path pays the bound check.  Evicting
    never changes results: every entry is a pure function of its key.
    """

    __slots__ = ("maxsize", "evictions")

    def __init__(self, maxsize: int = _MEMO_CACHE_ENTRIES):
        super().__init__()
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.evictions = 0

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.maxsize and key not in self:
            super().__delitem__(next(iter(self)))
            self.evictions += 1
        super().__setitem__(key, value)


#: Element-wise passes over the hidden state per layer (2 layer norms, rotary, 2 residuals,
#: SwiGLU multiply, activation quantization) in units of (read+write) hidden-state sweeps.
_ELEMENTWISE_PASSES = 7.0
#: Launch/synchronization latency of one NCCL collective over the TP group.
_ALLREDUCE_LATENCY_S = 8.0e-6
#: Fixed setup latency of one KV swap transfer over the host link (DMA launch, pinning).
_HOST_TRANSFER_LATENCY_S = 15.0e-6
#: Fixed setup latency of one GPU-to-GPU KV handoff over the interconnect (P2P launch).
_INTERCONNECT_TRANSFER_LATENCY_S = 10.0e-6


@dataclass
class LayerBreakdown:
    """Per-layer decode-step time split (seconds) — the Figure 4 / Figure 10 quantity.

    ``comm`` is the tensor-parallel all-reduce share; it is zero for single-GPU configs, so
    the historical three-way split is unchanged there.
    """

    gemm: float
    attention: float
    others: float
    comm: float = 0.0

    @property
    def total(self) -> float:
        return self.gemm + self.attention + self.others + self.comm

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {"gemm": 0.0, "attention": 0.0, "others": 0.0, "comm": 0.0}
        return {
            "gemm": self.gemm / total,
            "attention": self.attention / total,
            "others": self.others / total,
            "comm": self.comm / total,
        }


@dataclass(frozen=True, slots=True)
class PrefillChunk:
    """One prompt chunk processed inside a mixed scheduler iteration.

    ``tokens`` new prompt positions are prefilled on top of ``context_start`` tokens already
    resident in the KV cache.  ``produces_token`` marks the chunk that completes the prompt:
    its last position runs the LM head and emits the request's first output token.
    """

    tokens: int
    context_start: int
    produces_token: bool = False


@dataclass
class ThroughputPoint:
    """Throughput of one (system, model, batch) configuration."""

    batch_size: int
    tokens_per_second: float
    decode_step_s: float
    request_latency_s: float
    fits_in_memory: bool


@dataclass
class ServingResult:
    """Outcome of a peak-throughput search (one Table 1 cell)."""

    system: str
    model: str
    peak_throughput: float
    peak_batch_size: int
    sweep: List[ThroughputPoint] = field(default_factory=list)
    oom: bool = False
    tp_degree: int = 1

    @property
    def label(self) -> str:
        if self.oom:
            return "OOM"
        return f"{self.peak_throughput:,.0f} ({self.peak_batch_size})"


class ServingEngine:
    """Performance model of one serving system running one model on one GPU (or TP group)."""

    def __init__(
        self,
        system,
        model,
        device="H800",
        tp_degree: int = 1,
        memo_cache_entries: int = _MEMO_CACHE_ENTRIES,
        backend: Optional[KernelBackend] = None,
        tracer=None,
    ):
        self.system: SystemProfile = system if isinstance(system, SystemProfile) else get_system(system)
        self.model: ModelConfig = model if isinstance(model, ModelConfig) else get_model(model)
        self.device: Device = as_device(device)
        self.model.validate_tp(tp_degree)
        self.tp_degree = tp_degree
        # The backend is the engine's one window into the kernel/quant core: GEMM cost
        # params (system kernel + the reference kernel for LM head / recompute baselines),
        # KV bytes-per-element, deployed-size accounting.  ``backend`` lets callers inject
        # a pre-built (possibly non-registry) backend; by default it is resolved from the
        # profile, which validates kernel and KV-format names up front.
        self.backend: KernelBackend = (
            backend if backend is not None else build_backend(self.system, self.device)
        )
        self.kernel: GemmKernel = self.backend.kernel
        if self.model.is_moe and not self.system.supports_moe:
            self.supported = False
        else:
            self.supported = True
        # Step-cost caches: GEMM/LM-head latency depends only on the iteration token count,
        # which the request-level simulation hits thousands of times.  Every memo is
        # bounded (``memo_cache_entries``, FIFO eviction) so a long multi-configuration
        # sweep reusing one engine cannot grow memory without bound; sizes and eviction
        # counts are exposed by :meth:`cache_stats`.
        self._gemm_time_cache: Dict[int, float] = _BoundedMemo(memo_cache_entries)
        self._lm_head_cache: Dict[int, float] = _BoundedMemo(memo_cache_entries)
        self._others_time_cache: Dict[int, float] = _BoundedMemo(memo_cache_entries)
        self._comm_time_cache: Dict[int, float] = _BoundedMemo(memo_cache_entries)
        # Context-independent terms of one iteration (decode KV write, layer GEMMs,
        # element-wise kernels, all-reduces, LM head), keyed by the iteration's
        # (decode batch, total tokens, logits tokens): the few shapes a run repeats.
        self._step_coeff_cache: Dict[
            Tuple[int, int, int], Tuple[float, float, float, float, float]
        ] = _BoundedMemo(memo_cache_entries)
        # Chunked-prefill attention repeats heavily at the scheduler's fixed chunk
        # granularity (e.g. (256, 0), (256, 256), ...), so it memoizes on the chunk shape.
        self._chunk_attention_cache: Dict[Tuple[int, int], float] = _BoundedMemo(memo_cache_entries)
        self._memo_caches: Dict[str, _BoundedMemo] = {
            "layer_gemm": self._gemm_time_cache,
            "lm_head": self._lm_head_cache,
            "layer_others": self._others_time_cache,
            "allreduce": self._comm_time_cache,
            "step_coeffs": self._step_coeff_cache,
            "chunk_attention": self._chunk_attention_cache,
        }
        spec = self.device.spec
        attn_eff = self.backend.attention_efficiency
        self._attn_kv_dim = self.model.kv_dim_per_gpu(self.tp_degree)
        self._attn_heads = self.model.heads_per_gpu(self.tp_degree)
        self._attn_kv_bytes = self.backend.kv_bytes_per_element
        # Exactly the scalar sub-expressions of decode_attention_cost_from_totals, hoisted:
        # same operand order, so memoized/vectorized evaluation is bit-identical.
        self._attn_effective_bw = spec.memory_bandwidth * 0.85 * attn_eff
        self._attn_tc_denom = (
            spec.tensor_core_throughput(_tensor_precision(spec)) * attn_eff
        )
        # Kernel cost-model parameters are pure functions of the GPU spec; the backend
        # resolved them once at construction (resolving per GEMM estimate used to be a
        # measurable share of the scheduler-simulation profile).
        self._kernel_params = self.backend.gemm_cost_params
        self._reference_params = self.backend.reference_cost_params
        # Telemetry: registering with a tracer routes cache_stats() into the run summary
        # (the engine emits no events of its own — its costs appear via the scheduler's
        # iteration / fast-forward spans).  Schedulers also register their engine, so a
        # tracer passed at either layer ends up attached exactly once.
        if tracer is not None:
            tracer.attach_engine(self)

    # ------------------------------------------------------------------ cache introspection
    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Debug snapshot of every step-cost memo cache: entries, bound and evictions.

        The hook long sweeps use to verify memoization stays effective (hits keep
        landing) and bounded (evictions only appear once a cache saturates its
        ``memo_cache_entries`` budget).
        """
        return {
            name: {
                "entries": len(cache),
                "max_entries": cache.maxsize,
                "evictions": cache.evictions,
            }
            for name, cache in self._memo_caches.items()
        }

    # ------------------------------------------------------------------ memory accounting
    def weight_memory_bytes(self) -> int:
        """GPU memory occupied by one GPU's shard of the model weights.

        Deployed-size accounting lives on the backend (linear layers at the system's
        bytes-per-parameter; embeddings / LM head kept FP16, vocab-parallel across the
        TP group); this is its engine-facing alias.
        """
        return self.backend.deployed_weight_bytes(self.model, self.tp_degree)

    def kv_budget_bytes(self) -> int:
        """Per-GPU KV-cache budget after weights and the activation reserve."""
        return self.backend.kv_budget_bytes(self.model, self.tp_degree)

    def kv_cache_config(self) -> KvCacheConfig:
        return KvCacheConfig(
            model=self.model,
            kv_format=self.system.kv_format,
            memory_budget_bytes=self.kv_budget_bytes(),
            tp_degree=self.tp_degree,
            host_memory_budget_bytes=self.system.host_kv_swap_bytes,
        )

    def max_batch_size(self, tokens_per_sequence: int) -> int:
        """Largest batch of equal-length sequences that fits in the KV budget."""
        config = self.kv_cache_config()
        if config.memory_budget_bytes <= 0:
            return 0
        capacity = PagedKvCache.max_batch_size(config, tokens_per_sequence)
        return min(capacity, self.system.max_batch_size)

    # ------------------------------------------------------------------ collectives
    def allreduce_time(self, num_tokens: int) -> float:
        """One FP16 ring all-reduce of ``num_tokens`` hidden-state vectors over the TP group."""
        if self.tp_degree == 1 or num_tokens <= 0:
            return 0.0
        cached = self._comm_time_cache.get(num_tokens)
        if cached is not None:
            return cached
        payload = num_tokens * self.model.hidden_size * 2.0
        ring = (
            2.0 * (self.tp_degree - 1) / self.tp_degree * payload
            / self.device.spec.interconnect_bandwidth
        )
        total = ring + _ALLREDUCE_LATENCY_S
        self._comm_time_cache[num_tokens] = total
        return total

    def kv_transfer_time(self, num_bytes: float) -> float:
        """One-way KV transfer over the GPU <-> host link (one swap-out or swap-in).

        With tensor parallelism each GPU moves only its own shard over its own link, so the
        caller passes per-GPU bytes (which is what :class:`PagedKvCache` accounts in).
        """
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.device.spec.host_link_bandwidth + _HOST_TRANSFER_LATENCY_S

    def interconnect_transfer_time(self, num_bytes: float) -> float:
        """One-way KV transfer between two replicas over the GPU interconnect.

        This is the tax a disaggregated prefill/decode cluster pays per handoff
        (DistServe-style): the finished prefill's KV blocks move from the prefill replica
        to the decode replica over the NVLink/PCIe fabric
        (:attr:`~repro.gpu.specs.GpuSpec.interconnect_bandwidth`).
        """
        if num_bytes <= 0:
            return 0.0
        return (
            num_bytes / self.device.spec.interconnect_bandwidth
            + _INTERCONNECT_TRANSFER_LATENCY_S
        )

    def recompute_time(self, num_tokens: int) -> float:
        """Estimated cost of rebuilding ``num_tokens`` of KV state by re-prefilling.

        This is what a recompute preemption pays when the victim resumes; the cost-based
        preemption policy compares it against the swap round trip.
        """
        if num_tokens <= 0:
            return 0.0
        return self.prefill_time(1, num_tokens)

    def _logits_gather_time(self, num_tokens: int) -> float:
        """All-gather of the vocab-parallel logits after the LM head."""
        if self.tp_degree == 1 or num_tokens <= 0:
            return 0.0
        payload = num_tokens * self.model.vocab_size * 2.0
        ring = (
            (self.tp_degree - 1) / self.tp_degree * payload
            / self.device.spec.interconnect_bandwidth
        )
        return ring + _ALLREDUCE_LATENCY_S

    # ------------------------------------------------------------------ per-layer timing
    def layer_gemm_time(self, num_tokens: int) -> float:
        """Per-GPU GEMM time of one transformer layer processing ``num_tokens`` tokens."""
        cached = self._gemm_time_cache.get(num_tokens)
        if cached is not None:
            return cached
        gemms = decode_layer_gemms(self.model, num_tokens, tp_degree=self.tp_degree)
        # Inlined kernel.estimate(shape).latency_s: the report object, device resolution
        # and cost-param lookup are skipped, but each shape's latency remains the same
        # gemm_cost(...).total sum the public estimate API returns.
        spec = self.device.spec
        params = self._kernel_params
        total = 0.0
        for shape in gemms.attention_gemms():
            total += gemm_cost(shape, spec, params).total
        if self.model.is_moe:
            # Per-expert FFN GEMMs executed as one grouped GEMM (persistent kernel).
            total += sum(gemm_cost(s, spec, params).total for s in gemms.gate_up)
            total += sum(gemm_cost(s, spec, params).total for s in gemms.down)
        else:
            for shape in gemms.ffn_gemms():
                total += gemm_cost(shape, spec, params).total
        self._gemm_time_cache[num_tokens] = total
        return total

    def layer_attention_time(self, batch_size: int, context_length: int) -> float:
        cost = decode_attention_cost(
            self.model,
            self.device.spec,
            batch_size,
            context_length,
            self.backend.kv_bytes_per_element,
            attention_efficiency=self.backend.attention_efficiency,
            tp_degree=self.tp_degree,
        )
        return cost.total

    def layer_others_time(self, num_tokens: int) -> float:
        cached = self._others_time_cache.get(num_tokens)
        if cached is not None:
            return cached
        elementwise_bytes = (
            _ELEMENTWISE_PASSES * 2.0 * num_tokens * self.model.hidden_size * 2.0
        )
        elementwise = elementwise_bytes / (self.device.spec.memory_bandwidth * 0.7)
        fixed = 6.0e-6 + self.system.framework_overhead_per_layer_s
        total = self.system.others_scale * elementwise + fixed
        self._others_time_cache[num_tokens] = total
        return total

    def layer_breakdown(self, batch_size: int, context_length: int) -> LayerBreakdown:
        """Per-layer decode time split — the quantity plotted in Figures 4 and 10."""
        return LayerBreakdown(
            gemm=self.layer_gemm_time(batch_size),
            attention=self.layer_attention_time(batch_size, context_length),
            others=self.layer_others_time(batch_size),
            comm=2.0 * self.allreduce_time(batch_size),
        )

    # ------------------------------------------------------------------ step / request timing
    def lm_head_time(self, num_tokens: int) -> float:
        if num_tokens <= 0:
            return 0.0
        cached = self._lm_head_cache.get(num_tokens)
        if cached is not None:
            return cached
        shape = GemmShape(num_tokens, self.model.vocab_size // self.tp_degree, self.model.hidden_size)
        # LM head runs under the backend's reference kernel (FP16 unless the profile
        # overrides it): logits stay full precision in every system compared.
        total = gemm_cost(shape, self.device.spec, self._reference_params).total
        total += self._logits_gather_time(num_tokens)
        self._lm_head_cache[num_tokens] = total
        return total

    def decode_step_time(self, batch_size: int, context_length: int) -> float:
        """Latency of generating one token for every sequence in a uniform batch."""
        per_layer = self.layer_breakdown(batch_size, context_length).total
        return per_layer * self.model.num_layers + self.lm_head_time(batch_size)

    def mixed_step_time(
        self,
        decode_context_lengths: Sequence[int],
        prefill_chunks: Sequence[PrefillChunk] = (),
    ) -> float:
        """Latency of one mixed scheduler iteration (ragged decode + chunked prefill).

        All decode tokens and prefill-chunk tokens share a single ragged forward pass: the
        layer GEMMs and element-wise kernels see the combined token count, while attention is
        charged per sequence (decode) and per chunk (prefill).  The LM head runs only for the
        positions that emit a token: every decode sequence plus prompt-completing chunks.
        Each decode sequence is charged attention over *its own* cached context, so the
        uniform :meth:`decode_step_time` is the equal-lengths special case.
        """
        decode_batch = len(decode_context_lengths)
        if decode_batch and min(decode_context_lengths) <= 0:
            raise ValueError("context lengths must be positive")
        return self.iteration_time(
            decode_batch,
            int(sum(decode_context_lengths)),
            [(c.tokens, c.context_start) for c in prefill_chunks],
            decode_batch + sum(1 for c in prefill_chunks if c.produces_token),
        )

    def iteration_time(
        self,
        decode_batch: int,
        decode_total: Union[int, np.ndarray],
        chunks: Sequence[Tuple[int, Union[int, np.ndarray]]],
        logits_tokens: int,
    ) -> Union[float, np.ndarray]:
        """Latency of one scheduler iteration, or of a run of pinned iterations.

        ``decode_batch`` sequences decode one token each over ``decode_total`` summed
        cached context (every per-sequence attention term is linear, so the sum
        determines the cost exactly); ``chunks`` holds one ``(chunk_tokens,
        context_start)`` pair per prefill chunk, in planning order; ``logits_tokens``
        positions run the LM head.  The layer GEMMs and element-wise kernels see the
        combined token count.

        Scalar/array polymorphic: integer totals and context starts price one iteration
        and return a float; int64 arrays of decode totals and/or of a chunk's context
        starts price a run of iterations and return an array.  Every operation below is
        IEEE-754 elementwise and mirrors the operand order of
        :func:`~repro.serving.attention.decode_attention_cost_from_totals` and
        :func:`~repro.serving.attention.chunked_prefill_attention_cost`, so each element
        equals the scalar call bit for bit — the contract analytic fast-forward rests on.
        """
        total_tokens = decode_batch
        for tokens, _ in chunks:
            total_tokens += tokens
        if total_tokens <= 0:
            raise ValueError("an iteration must process at least one token")
        key = (decode_batch, total_tokens, logits_tokens)
        coeffs = self._step_coeff_cache.get(key)
        if coeffs is None:
            coeffs = (
                (2.0 * decode_batch * self._attn_kv_dim * self._attn_kv_bytes)
                / self._attn_effective_bw,
                self.layer_gemm_time(total_tokens),
                self.layer_others_time(total_tokens),
                2.0 * self.allreduce_time(total_tokens),
                self.lm_head_time(logits_tokens),
            )
            self._step_coeff_cache[key] = coeffs
        kv_write, gemm, others, comm, lm_head = coeffs

        attention = 0.0
        if decode_batch:
            kv_read = (
                2.0 * decode_total * self._attn_kv_dim * self._attn_kv_bytes
                / self._attn_effective_bw
            )
            compute = (
                8.0 * decode_total * self._attn_heads * self.model.head_dim
                / self._attn_tc_denom
            )
            attention = kv_read + kv_write + compute + _ATTENTION_LAUNCH_OVERHEAD_S
        cache = self._chunk_attention_cache
        for chunk_key in chunks:
            if isinstance(chunk_key[1], np.ndarray):
                chunk_attention = chunked_prefill_attention_times(
                    self.model,
                    self.device.spec,
                    chunk_key[0],
                    chunk_key[1],
                    self.backend.kv_bytes_per_element,
                    attention_efficiency=self.backend.attention_efficiency,
                    tp_degree=self.tp_degree,
                )
            else:
                chunk_attention = cache.get(chunk_key)
                if chunk_attention is None:
                    chunk_attention = chunked_prefill_attention_cost(
                        self.model,
                        self.device.spec,
                        chunk_key[0],
                        chunk_key[1],
                        self.backend.kv_bytes_per_element,
                        attention_efficiency=self.backend.attention_efficiency,
                        tp_degree=self.tp_degree,
                    ).total
                    cache[chunk_key] = chunk_attention
            attention = attention + chunk_attention

        per_layer = gemm + attention + others + comm
        return per_layer * self.model.num_layers + lm_head

    def prefill_time(self, batch_size: int, prompt_length: int) -> float:
        """Approximate prompt-processing time for a batch of requests.

        Prefill GEMMs are compute-bound; we charge one GPU's share of the model's full
        forward FLOPs at a sustained fraction of the Tensor-Core peak, plus the quadratic
        attention term and the per-layer tensor-parallel all-reduces.
        """
        flops = 2.0 * batch_size * prompt_length * self.model.active_params_per_token() / self.tp_degree
        mma_precision = self.backend.mma_precision
        peak = self.device.spec.tensor_core_throughput(mma_precision)
        gemm = flops / (peak * 0.75)
        attention = (
            prefill_attention_cost(
                self.model, self.device.spec, batch_size, prompt_length,
                attention_efficiency=self.backend.attention_efficiency,
                tp_degree=self.tp_degree,
            ).total
            * self.model.num_layers
        )
        comm = 2.0 * self.allreduce_time(batch_size * prompt_length) * self.model.num_layers
        return gemm + attention + comm

    # ------------------------------------------------------------------ throughput
    def throughput(self, batch_size: int, input_len: int = 1024, output_len: int = 512
                   ) -> ThroughputPoint:
        """Sustained token generation throughput at a fixed batch size.

        A batch of requests is processed as: one prefill over ``input_len`` tokens, then
        ``output_len`` decode steps with the context growing from ``input_len`` to
        ``input_len + output_len``.  Throughput counts generated tokens only, matching the
        paper's tokens/s metric; for TP groups it is the throughput of the whole group.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        fits = batch_size <= self.max_batch_size(peak_resident_tokens(input_len, output_len))

        # Decode cost grows linearly with context; evaluating at the mean context length is
        # exact for the linear terms and a very tight approximation overall.
        mean_context = input_len + output_len / 2.0
        decode_step = self.decode_step_time(batch_size, int(mean_context))
        decode_total = decode_step * output_len
        prefill = self.prefill_time(batch_size, input_len)
        request_latency = prefill + decode_total
        tokens = batch_size * output_len
        return ThroughputPoint(
            batch_size=batch_size,
            tokens_per_second=tokens / request_latency,
            decode_step_s=decode_step,
            request_latency_s=request_latency,
            fits_in_memory=fits,
        )

    def peak_throughput(
        self,
        input_len: int = 1024,
        output_len: int = 512,
        batch_sizes: Optional[Sequence[int]] = None,
    ) -> ServingResult:
        """Search batch sizes (1..256, plus the memory limit) for the peak throughput."""
        if not self.supported:
            return ServingResult(system=self.system.name, model=self.model.name,
                                 peak_throughput=0.0, peak_batch_size=0, oom=True,
                                 tp_degree=self.tp_degree)
        max_batch = self.max_batch_size(peak_resident_tokens(input_len, output_len))
        if max_batch < 1:
            return ServingResult(system=self.system.name, model=self.model.name,
                                 peak_throughput=0.0, peak_batch_size=0, oom=True,
                                 tp_degree=self.tp_degree)

        if batch_sizes is None:
            batch_sizes = [1, 2, 4, 8, 13, 16, 24, 32, 36, 45, 46, 48, 53, 64, 96, 100, 109,
                           119, 124, 128, 144, 160, 184, 194, 200, 225, 256]
        candidates = sorted({b for b in batch_sizes if 1 <= b <= max_batch} | {max_batch})

        sweep: List[ThroughputPoint] = []
        best: Optional[ThroughputPoint] = None
        for batch in candidates:
            point = self.throughput(batch, input_len, output_len)
            sweep.append(point)
            if best is None or point.tokens_per_second > best.tokens_per_second:
                best = point
        assert best is not None
        return ServingResult(
            system=self.system.name,
            model=self.model.name,
            peak_throughput=best.tokens_per_second,
            peak_batch_size=best.batch_size,
            sweep=sweep,
            tp_degree=self.tp_degree,
        )
