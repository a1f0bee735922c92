"""Serving-system profiles: the seven systems compared in Table 1.

A :class:`SystemProfile` bundles everything that distinguishes one serving system from another
at the level this reproduction models:

* which GEMM kernel it uses (by registry name),
* how many bytes per parameter its weight format occupies in GPU memory,
* how the KV cache is stored,
* how efficient its attention implementation is (relative to the shared memory-bound model),
* how much per-layer framework overhead it adds outside GEMM and attention.

The first three are documented facts about the respective systems.  The last two are the only
*calibrated* quantities in the serving model: they absorb implementation quality differences
(e.g. TRT-FP8's FP8-optimized attention kernels, QServe's less-optimized attention on GQA
models and heavier framework path) that the paper itself places outside its scope but that are
clearly visible in its Figure 10 breakdowns.  They are held constant across all models and
batch sizes — nothing is fitted per experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["SystemProfile", "ClusterSpec", "SYSTEMS", "get_system", "list_systems",
           "TABLE1_SYSTEMS", "REPLICA_ROLE_MIXED", "REPLICA_ROLE_PREFILL",
           "REPLICA_ROLE_DECODE"]


@dataclass(frozen=True)
class SystemProfile:
    """Configuration of one end-to-end serving system."""

    name: str
    kernel: str                      # GEMM kernel registry name
    weight_bytes_per_param: float    # deployed bytes per linear-layer parameter
    kv_format: str                   # KV-cache storage format (repro.quant.kvcache)
    attention_efficiency: float      # relative efficiency of the attention kernels
    framework_overhead_per_layer_s: float  # extra per-layer host/runtime overhead
    others_scale: float = 1.0        # multiplier on the element-wise "Others" bucket
    supports_moe: bool = True        # TRT-W8A8 lacks Mixtral support (Table 1 "NA")
    max_batch_size: int = 256        # largest batch the system's runtime supports
    #: Iteration-level token budget (decode tokens + prefill-chunk tokens per scheduler
    #: iteration, the vLLM ``max_num_batched_tokens`` knob).  Bounds chunked prefill so a
    #: long prompt cannot stall running decodes for a whole serial prefill.
    max_batched_tokens: int = 2048
    #: Pinned host memory available per GPU for swap-based preemption (vLLM's ``swap_space``
    #: knob, 4 GiB by default).  0 disables swapping: every preemption recomputes.
    host_kv_swap_bytes: int = 4 * 2**30
    #: Kernel used for the LM head and FP-reference baselines (recompute costing, logits).
    #: Every system the paper compares keeps those FP16, hence the default; the backend
    #: layer resolves it, so non-default reference kernels are expressible per profile.
    reference_kernel: str = "fp16"

    def __post_init__(self):
        if self.weight_bytes_per_param <= 0:
            raise ValueError("weight_bytes_per_param must be positive")
        if not 0 < self.attention_efficiency <= 1.0:
            raise ValueError("attention_efficiency must be in (0, 1]")
        if self.framework_overhead_per_layer_s < 0:
            raise ValueError("framework overhead must be non-negative")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.max_batched_tokens < 1:
            raise ValueError("max_batched_tokens must be positive")
        if self.host_kv_swap_bytes < 0:
            raise ValueError("host_kv_swap_bytes must be non-negative")

    def derive(self, name: Optional[str] = None, **overrides) -> "SystemProfile":
        """A copy of this profile with some fields replaced — the composable-sweep hook.

        ``derive(kernel="liquidgemm", kv_format="int4")`` turns any registered profile
        into a quant-format x kernel x kv_format grid point without registering a new
        named system.  Overrides passed as ``None`` are ignored (so sweep axes can carry
        "use the system default" as ``None``).  Unless ``name`` is given, the derived
        profile is named ``base[field=value,...]`` listing exactly the changed fields.
        Field *names* are validated here; kernel / KV-format *values* are validated when
        the backend layer resolves them against the registries.
        """
        effective = {k: v for k, v in overrides.items() if v is not None}
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(effective) - valid)
        if unknown:
            raise TypeError(
                f"unknown SystemProfile field(s) {unknown}; valid: {sorted(valid)}"
            )
        changed = {
            k: v for k, v in effective.items() if getattr(self, k) != v
        }
        if name is None:
            if not changed:
                return self
            suffix = ",".join(f"{k}={v}" for k, v in sorted(changed.items()))
            name = f"{self.name}[{suffix}]"
        return dataclasses.replace(self, name=name, **changed)


#: Replica roles a cluster topology can assign (see :class:`ClusterSpec`).
REPLICA_ROLE_MIXED = "mixed"        # co-located: prefill and decode on the same replica
REPLICA_ROLE_PREFILL = "prefill"    # disaggregated: runs prompt prefill + first token only
REPLICA_ROLE_DECODE = "decode"      # disaggregated: decodes sequences migrated to it


@dataclass(frozen=True)
class ClusterSpec:
    """Topology of a multi-replica serving cluster (one GPU/TP-group per replica).

    ``colocated`` mode runs ``num_replicas`` identical replicas behind the router — the
    classic data-parallel baseline.  ``disaggregated`` mode splits the fleet DistServe-style
    into ``num_prefill_replicas`` compute-bound prefill replicas and
    ``num_decode_replicas`` latency-bound decode replicas; finished prefills migrate their
    KV blocks over the interconnect before decode admission.  ``router`` selects the
    :mod:`~repro.serving.router` policy (``None`` picks the mode's default: round-robin for
    co-located, the disaggregation-aware policy for disaggregated).
    """

    mode: str = "colocated"              # "colocated" | "disaggregated"
    num_replicas: Optional[int] = None   # co-located replica count (None = 2)
    num_prefill_replicas: int = 1        # disaggregated prefill pool
    num_decode_replicas: int = 1         # disaggregated decode pool
    router: Optional[str] = None         # router policy name; None = mode default

    def __post_init__(self):
        if self.mode not in ("colocated", "disaggregated"):
            raise ValueError(
                f"unknown cluster mode {self.mode!r}; expected 'colocated' or 'disaggregated'"
            )
        if self.mode == "colocated":
            if self.num_replicas is not None and self.num_replicas < 1:
                raise ValueError("num_replicas must be >= 1")
        else:
            if self.num_replicas is not None:
                raise ValueError(
                    "disaggregated mode sizes the fleet with num_prefill_replicas / "
                    "num_decode_replicas; num_replicas applies to colocated mode only"
                )
            if self.num_prefill_replicas < 1 or self.num_decode_replicas < 1:
                raise ValueError(
                    "disaggregated mode needs >= 1 prefill and >= 1 decode replica"
                )

    @property
    def colocated_replicas(self) -> int:
        return 2 if self.num_replicas is None else self.num_replicas

    @property
    def total_replicas(self) -> int:
        """Total GPU count (at tp_degree=1) — the equal-resources axis of any A/B."""
        if self.mode == "colocated":
            return self.colocated_replicas
        return self.num_prefill_replicas + self.num_decode_replicas

    def roles(self) -> List[str]:
        """Role of each replica, in replica-id order (prefill pool first)."""
        if self.mode == "colocated":
            return [REPLICA_ROLE_MIXED] * self.colocated_replicas
        return (
            [REPLICA_ROLE_PREFILL] * self.num_prefill_replicas
            + [REPLICA_ROLE_DECODE] * self.num_decode_replicas
        )

    @property
    def default_router(self) -> str:
        return "disaggregated" if self.mode == "disaggregated" else "round-robin"

    @property
    def label(self) -> str:
        """Short shape name: ``colocated-N`` or ``disaggregated-Pp+Dd``."""
        if self.mode == "colocated":
            return f"colocated-{self.colocated_replicas}"
        return f"disaggregated-{self.num_prefill_replicas}p+{self.num_decode_replicas}d"

    @staticmethod
    def from_shape(shape: Mapping[str, Any]) -> Optional["ClusterSpec"]:
        """The spec a plain shape dict names; ``None`` for ``{"mode": "single"}``.

        ``None``-valued fields and a ``label`` key are dropped, so an unset field takes
        this class's default — the one place the cluster-shape defaults live.
        """
        fields = {k: v for k, v in shape.items() if k != "label" and v is not None}
        if fields.get("mode", "single") == "single":
            return None
        return ClusterSpec(**fields)


#: Deployed bytes per parameter for the two-level 4-bit formats: 4-bit codes plus one byte of
#: per-group metadata every `group` elements plus an FP16 per-channel scale (amortized).
_W4_BYTES = 0.5 + 2.0 / 64.0 + 2.0 / 4096.0
_W4_BYTES_G128 = 0.5 + 2.0 / 128.0 + 2.0 / 4096.0

SYSTEMS: Dict[str, SystemProfile] = {
    "trt-fp16": SystemProfile(
        name="trt-fp16", kernel="fp16", weight_bytes_per_param=2.0, kv_format="fp8",
        attention_efficiency=0.90, framework_overhead_per_layer_s=3.0e-6,
    ),
    "trt-w4a16": SystemProfile(
        name="trt-w4a16", kernel="w4a16", weight_bytes_per_param=_W4_BYTES_G128, kv_format="fp8",
        attention_efficiency=0.90, framework_overhead_per_layer_s=3.0e-6,
    ),
    "trt-w8a8": SystemProfile(
        name="trt-w8a8", kernel="w8a8", weight_bytes_per_param=1.0, kv_format="int8",
        attention_efficiency=0.90, framework_overhead_per_layer_s=3.0e-6, supports_moe=False,
    ),
    "trt-fp8": SystemProfile(
        name="trt-fp8", kernel="fp8", weight_bytes_per_param=1.0, kv_format="fp8",
        attention_efficiency=0.95, framework_overhead_per_layer_s=3.0e-6,
    ),
    "qserve": SystemProfile(
        name="qserve", kernel="qserve-w4a8", weight_bytes_per_param=_W4_BYTES_G128,
        kv_format="int4", attention_efficiency=0.40,
        framework_overhead_per_layer_s=40.0e-6, others_scale=2.0, max_batch_size=128,
    ),
    "liquidserve": SystemProfile(
        name="liquidserve", kernel="liquidgemm", weight_bytes_per_param=_W4_BYTES,
        kv_format="int8", attention_efficiency=0.93, framework_overhead_per_layer_s=4.0e-6,
    ),
    "liquidserve-wo": SystemProfile(
        name="liquidserve-wo", kernel="qserve-w4a8", weight_bytes_per_param=_W4_BYTES_G128,
        kv_format="int8", attention_efficiency=0.93, framework_overhead_per_layer_s=4.0e-6,
    ),
}

#: Row order used by the Table 1 reproduction.
TABLE1_SYSTEMS: List[str] = [
    "trt-fp16",
    "trt-w4a16",
    "trt-w8a8",
    "trt-fp8",
    "qserve",
    "liquidserve-wo",
    "liquidserve",
]


def get_system(name: str) -> SystemProfile:
    key = name.lower()
    if key not in SYSTEMS:
        raise KeyError(f"unknown serving system {name!r}; known: {sorted(SYSTEMS)}")
    return SYSTEMS[key]


def list_systems() -> List[str]:
    return sorted(SYSTEMS)
