"""End-to-end LLM serving performance model (Table 1, Figures 4, 10, 11).

The engine composes the substrates built elsewhere in the library, reaching the
quantization/kernel core exclusively through the unified backend layer
(:mod:`repro.backend` — one :class:`~repro.backend.KernelBackend` per (system, GPU)):

* per-layer GEMM latency from Equation 6 resolved once per engine: one
  :class:`~repro.costmodel.model.GemmLine` per layer GEMM of :mod:`repro.workloads.shapes`
  under the backend's kernel (MoE layers become grouped per-expert GEMMs) and one for the
  LM head under its reference kernel, so a new token count costs a few float operations;
* attention cost from one :class:`~repro.serving.attention.AttentionLine`: the decode and
  chunked-prefill forms resolved once per engine under the backend's KV-cache
  bytes-per-element and attention efficiency;
* an "Others" bucket (element-wise kernels: layer norms, rotary embedding, residuals, SwiGLU
  activation, dynamic activation quantization) plus per-layer framework overhead;
* KV-cache capacity from the paged allocator (:mod:`repro.serving.kvcache`) under the GPU
  memory budget, which bounds the usable batch size.

One cost core prices every forward pass, in the request-level simulation and in the
paper's fixed-batch figures alike: ``iteration_time`` charges one iteration — decode tokens
over their summed cached context plus prefill chunks over their cached prefixes — or,
elementwise, a whole run of them.  The scheduler charges its iterations through it
(``mixed_step_time`` is its wrapper over per-sequence contexts and :class:`PrefillChunk`
objects; ``price_epoch`` prices a whole fast-forward epoch in one call), and the
fixed-batch API is a set of thin wrappers over it:

* ``decode_step_time(B, c)`` is one decode iteration of ``B`` sequences at context ``c``;
* ``prefill_time(B, L)`` is one iteration of ``B`` whole ``L``-token prompts, so the prefill
  GEMMs run under the system's own kernel; ``recompute_time(n)`` is ``prefill_time(1, n)``;
* ``throughput`` and ``peak_throughput`` (Table 1, Figure 11) are closed forms over those
  two.

Tensor parallelism (``tp_degree``) is threaded through everything: GEMM shapes, attention,
weight memory and the KV budget are one GPU's Megatron-style shard, and every layer pays two
ring all-reduces over the group interconnect.  Reported throughput is that of the whole TP
group (the GPUs run in lockstep, so per-GPU step time is group step time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import KernelBackend, build_backend
from ..costmodel.model import GemmLine
from ..gpu.specs import GpuSpec, get_gpu
from ..kernels.base import GemmKernel
from ..workloads.shapes import decode_layer_gemms, moe_expert_batch
from .attention import AttentionLine
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
#: Iteration count from which :meth:`ServingEngine.price_epoch` prices with one array
#: evaluation instead of a scalar loop.  Measured on a 2-vCPU Xeon host: the loop costs
#: about 0.38 us per iteration plus 0.45 us per chunk (one attention-line call for the
#: decode batch and one per chunk), the array form about 11.2 us plus 8.7 us per chunk
#: and 0.013 us per iteration, and up to 1 us more under a horizon (the first
#: iteration's price).  Priced that way, the epochs of two passes of each perfbench
#: serving workload cost least at 28 to 32, and within 1% of that anywhere from 28 to 36.
_EPOCH_ARRAY_ITERATIONS = 32


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
    """Performance model of one serving system running one model on one GPU (or TP group).

    ``device`` is a :class:`~repro.gpu.specs.GpuSpec` or a GPU name; :func:`get_gpu`
    resolves it once, into :attr:`gpu`, and every cost the engine prices comes from that
    one GPU: the backend, the GEMM lines and the attention line are all resolved on it.
    """

    def __init__(
        self,
        system,
        model,
        device="H800",
        tp_degree: int = 1,
        memo_cache_entries: int = _MEMO_CACHE_ENTRIES,
    ):
        self.system: SystemProfile = system if isinstance(system, SystemProfile) else get_system(system)
        self.model: ModelConfig = model if isinstance(model, ModelConfig) else get_model(model)
        self.gpu: GpuSpec = get_gpu(device)
        self.model.validate_tp(tp_degree)
        self.tp_degree = tp_degree
        # The backend is the engine's one window into the kernel/quant core: GEMM cost
        # params (system kernel + the reference kernel for LM head / recompute baselines),
        # KV bytes-per-element, attention efficiency, deployed-size accounting.  Resolving
        # it from the profile validates kernel and KV-format names up front.
        self.backend: KernelBackend = build_backend(self.system, self.gpu)
        self.kernel: GemmKernel = self.backend.kernel
        if self.model.is_moe and not self.system.supports_moe:
            self.supported = False
        else:
            self.supported = True
        # One step-cost memo, bounded (``memo_cache_entries``, FIFO eviction) so a long
        # multi-configuration sweep reusing one engine cannot grow memory without bound;
        # its size and eviction count are exposed by :meth:`cache_stats`.  It holds one
        # iteration's context-independent terms (layer GEMMs, element-wise kernels,
        # all-reduces, LM head), keyed by the iteration's (total tokens, logits tokens):
        # the few shapes a run repeats.  Each term is a closed form of a few float
        # operations, so none is memoized on its own.
        self._step_coeff_cache: Dict[
            Tuple[int, int], Tuple[float, float, float, float]
        ] = _BoundedMemo(memo_cache_entries)
        self._memo_caches: Dict[str, _BoundedMemo] = {"step_coeffs": self._step_coeff_cache}
        gpu = self.gpu
        # Decode and chunked-prefill attention resolved once: every iteration's attention
        # is a few float operations on this line.
        self._attention_line = AttentionLine(
            self.model, gpu, self.backend.kv_bytes_per_element,
            attention_efficiency=self.backend.attention_efficiency, tp_degree=self.tp_degree,
        )
        # Equation 6 resolved once per weight shape: one GemmLine per layer GEMM (QKV,
        # output projection, gate+up, down; for MoE the per-expert FFN shapes) under the
        # system's kernel, and the LM head under the backend's reference kernel (FP16
        # unless the profile overrides it: logits stay full precision in every system
        # compared).  Pricing a new token count is then a few float operations per line.
        gemms = decode_layer_gemms(self.model, 1, tp_degree=self.tp_degree)
        self._qkv_out_lines = tuple(
            GemmLine(shape.n, shape.k, gpu, self.backend.gemm_cost_params)
            for shape in gemms.attention_gemms()
        )
        self._ffn_lines = tuple(
            GemmLine(shape.n, shape.k, gpu, self.backend.gemm_cost_params)
            for shape in (gemms.gate_up[0], gemms.down[0])
        )
        self._lm_head_line = GemmLine(
            self.model.vocab_size // self.tp_degree, self.model.hidden_size, gpu,
            self.backend.reference_cost_params,
        )

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
        payload = num_tokens * self.model.hidden_size * 2.0
        ring = (
            2.0 * (self.tp_degree - 1) / self.tp_degree * payload
            / self.gpu.interconnect_bandwidth
        )
        return ring + _ALLREDUCE_LATENCY_S

    def kv_transfer_time(self, num_bytes: float) -> float:
        """One-way KV transfer over the GPU <-> host link (one swap-out or swap-in).

        With tensor parallelism each GPU moves only its own shard over its own link, so the
        caller passes per-GPU bytes (which is what :class:`PagedKvCache` accounts in).
        """
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.gpu.host_link_bandwidth + _HOST_TRANSFER_LATENCY_S

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
            num_bytes / self.gpu.interconnect_bandwidth
            + _INTERCONNECT_TRANSFER_LATENCY_S
        )

    def recompute_time(self, num_tokens: int) -> float:
        """Estimated cost of rebuilding ``num_tokens`` of KV state by re-prefilling.

        This is what a recompute preemption pays when the victim resumes; the cost-based
        preemption policy compares it against the swap round trip.  It is
        ``prefill_time(1, num_tokens)``: one :meth:`iteration_time` of the whole context
        as one chunk, under the system's own GEMM kernel.

        A gap remains: ``step()`` re-prefills in ``prefill_chunk_tokens`` chunks beside
        the running decodes, and each chunk pays the weights' streaming again.  On
        LiquidServe/llama2-7b, 1,024 tokens cost 10.75 ms as one chunk and 13.40 ms as
        four 256-token chunks priced alone, so this estimate stays on the low side.
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
            / self.gpu.interconnect_bandwidth
        )
        return ring + _ALLREDUCE_LATENCY_S

    # ------------------------------------------------------------------ per-layer timing
    def layer_gemm_time(self, num_tokens: int) -> float:
        """Per-GPU GEMM time of one transformer layer processing ``num_tokens`` tokens.

        The sum of ``gemm_cost(shape).total`` over :func:`decode_layer_gemms`' shapes,
        bit for bit: the attention GEMMs run at ``num_tokens`` rows, and each FFN GEMM at
        :func:`moe_expert_batch` rows once per expert (one expert for a dense model),
        summed in sequence as one grouped GEMM (persistent kernel) executes them.
        """
        qkv, out_proj = self._qkv_out_lines
        total = qkv.total(num_tokens) + out_proj.total(num_tokens)
        expert_tokens = moe_expert_batch(num_tokens, self.model)
        for line in self._ffn_lines:
            total += sum(repeat(line.total(expert_tokens), self.model.num_experts))
        return total

    def layer_attention_time(self, batch_size: int, context_length: int) -> float:
        """Per-layer decode attention of a uniform batch: the decode form at ``(B, B*c)``."""
        return self._attention_line.decode(batch_size, batch_size * context_length)

    def layer_others_time(self, num_tokens: int) -> float:
        elementwise_bytes = (
            _ELEMENTWISE_PASSES * 2.0 * num_tokens * self.model.hidden_size * 2.0
        )
        elementwise = elementwise_bytes / (self.gpu.memory_bandwidth * 0.7)
        fixed = 6.0e-6 + self.system.framework_overhead_per_layer_s
        return self.system.others_scale * elementwise + fixed

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
        """LM head over ``num_tokens`` positions (reference kernel) plus the logits gather."""
        if num_tokens <= 0:
            return 0.0
        return self._lm_head_line.total(num_tokens) + self._logits_gather_time(num_tokens)

    def decode_step_time(self, batch_size: int, context_length: int) -> float:
        """Latency of generating one token for every sequence in a uniform batch.

        One :meth:`iteration_time` of ``batch_size`` decode tokens at ``batch_size *
        context_length`` summed context.  It equals the per-layer :meth:`layer_breakdown`
        total times the layer count plus the LM head bit for bit.
        """
        if batch_size <= 0 or context_length <= 0:
            raise ValueError("batch_size and context_length must be positive")
        return self.iteration_time(batch_size, batch_size * context_length, (), batch_size)

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
        starts price a run of iterations and return an array.  Every operation is
        IEEE-754 elementwise in the same order (the engine's
        :class:`~repro.serving.attention.AttentionLine` prices attention either way), so
        each element equals the scalar call bit for bit — the contract analytic
        fast-forward rests on.
        """
        total_tokens = decode_batch
        for tokens, _ in chunks:
            if tokens <= 0:
                raise ValueError("chunk_tokens must be positive")
            total_tokens += tokens
        if total_tokens <= 0:
            raise ValueError("an iteration must process at least one token")
        return self._compose(
            self._step_coeffs(total_tokens, logits_tokens), decode_batch, decode_total, chunks
        )

    def _step_coeffs(
        self, total_tokens: int, logits_tokens: int
    ) -> Tuple[float, float, float, float]:
        """One iteration's context-independent terms (memoized): layer GEMMs, element-wise
        kernels, all-reduces and the LM head."""
        key = (total_tokens, logits_tokens)
        coeffs = self._step_coeff_cache.get(key)
        if coeffs is None:
            coeffs = (
                self.layer_gemm_time(total_tokens),
                self.layer_others_time(total_tokens),
                2.0 * self.allreduce_time(total_tokens),
                self.lm_head_time(logits_tokens),
            )
            self._step_coeff_cache[key] = coeffs
        return coeffs

    def _compose(self, coeffs, decode_batch, decode_total, chunks):
        """The time of the iteration ``(decode_total, chunks)`` from its context-independent
        terms ``coeffs`` and the attention line: elementwise when the decode total or a
        chunk's context start is an int64 array.  :meth:`price_epoch`'s scalar loop is
        this composition with the step folded into its operands."""
        gemm, others, comm, lm_head = coeffs
        line = self._attention_line
        attention = line.decode(decode_batch, decode_total) if decode_batch else 0.0
        for tokens, start in chunks:
            attention = attention + line.chunk(tokens, start)
        return (gemm + attention + others + comm) * self.model.num_layers + lm_head

    def price_epoch(
        self,
        decode_batch: int,
        decode_total: int,
        chunks: Sequence[Tuple[int, int]],
        iterations: int,
        clock: float,
        stop_before: Optional[float] = None,
    ) -> Tuple[int, float]:
        """Run the clock over a pinned fast-forward epoch; returns ``(iterations run, end clock)``.

        The epoch's first iteration decodes ``decode_batch`` sequences over
        ``decode_total`` summed context and prefills each ``(chunk_tokens,
        context_start)`` chunk; every later one is the same composition one iteration
        on: each sequence's context and each chunk's cached prefix have grown by what the
        previous iteration added.  No chunk completes its prompt inside an epoch, so the
        decode batch is also the LM head's token count.  Only iterations *starting*
        strictly before ``stop_before`` run.

        Equal, bit for bit, to adding :meth:`iteration_time` of each iteration to
        ``clock`` in sequence.  The epoch's context-independent terms are resolved once.
        The iterations the horizon can reach are priced by one array evaluation whose
        first element is seeded with the clock, then an in-place ``np.cumsum`` (the same
        sequential additions), when there are at least :data:`_EPOCH_ARRAY_ITERATIONS`
        of them, and by a scalar loop otherwise.
        """
        total_tokens = decode_batch
        for tokens, _ in chunks:
            total_tokens += tokens
        coeffs = self._step_coeffs(total_tokens, decode_batch)
        horizon = math.inf if stop_before is None else stop_before
        if not clock < horizon:
            return 0, clock
        done = 0
        if iterations >= _EPOCH_ARRAY_ITERATIONS:
            span = iterations
            if stop_before is not None:
                # Contexts only grow inside an epoch, so no iteration is cheaper than the
                # first and at most ``reach`` of them start before the horizon.  The array
                # covers those plus slack for rounding; the loop below finishes any rest.
                reach = (stop_before - clock) / self._compose(
                    coeffs, decode_batch, decode_total, chunks
                )
                if reach < iterations:
                    span = min(iterations, int(reach) + 2)
            if span >= _EPOCH_ARRAY_ITERATIONS:
                ends = self._compose(
                    coeffs, decode_batch,
                    np.arange(decode_total, decode_total + span * decode_batch, decode_batch)
                    if decode_batch else decode_total,
                    [(tokens, np.arange(start, start + span * tokens, tokens))
                     for tokens, start in chunks],
                )
                ends[0] += clock
                np.add.accumulate(ends, out=ends)  # an in-place np.cumsum
                # Iteration 0 starts at ``clock``, iteration i + 1 where iteration i ends.
                done = min(span, int(ends.searchsorted(horizon)) + 1)
                clock = float(ends[done - 1])
        if done < iterations and clock < horizon:
            # Each iteration is priced only once the clock shows it starts in time.
            gemm, others, comm, lm_head = coeffs
            decode, chunk = self._attention_line.decode, self._attention_line.chunk
            layers = self.model.num_layers
            for step in range(done, iterations):
                attention = (
                    decode(decode_batch, decode_total + step * decode_batch) if decode_batch
                    else 0.0
                )
                for tokens, start in chunks:
                    attention = attention + chunk(tokens, start + step * tokens)
                clock += (gemm + attention + others + comm) * layers + lm_head
                done += 1
                if not clock < horizon:
                    break
        return done, clock

    def prefill_time(self, batch_size: int, prompt_length: int) -> float:
        """Prompt-processing time of a batch of ``batch_size`` ``prompt_length``-token prompts.

        One :meth:`iteration_time` with every prompt as one whole chunk at
        ``context_start=0``: the layer GEMMs see ``batch_size * prompt_length`` tokens under
        the system's own kernel, attention is each prompt's causal (quadratic) chunk form,
        and each prompt's last position runs the LM head.
        """
        return self.iteration_time(0, 0, [(prompt_length, 0)] * batch_size, batch_size)

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
