"""The unified kernel-backend layer: one pluggable interface from GEMM kernels to sweeps.

Everything the serving stack needs from the quantization/kernel core used to be scavenged
piecemeal — ``ServingEngine`` called :func:`repro.kernels.registry.get_kernel` directly,
``PagedKvCache`` resolved KV bytes-per-element from :mod:`repro.quant.kvcache`, and the FP16
recompute/LM-head reference kernel was hardcoded.  :class:`KernelBackend` bundles all of it,
constructed **once** from a :class:`~repro.serving.systems.SystemProfile` and a GPU
(:class:`~repro.gpu.specs.GpuSpec`):

* the system's GEMM kernel and its resolved :class:`~repro.costmodel.model.KernelCostParams`
  (including the dequant-path overheads ``alpha`` / ``load_overhead_alpha``);
* the *reference* kernel (FP16 unless the profile overrides it) used for the LM head and
  recompute/attention baselines;
* KV-cache format and bytes-per-element;
* deployed weight bytes-per-parameter and the deployed-size accounting for a model shard;
* attention efficiency;
* an accuracy proxy (mean output RMSE of the kernel's weight-quantization scheme from
  :mod:`repro.accuracy.study`) for accuracy-vs-SLO frontier reporting.

This module sits *below* :mod:`repro.serving` in the layer diagram
(``kernels/quant -> backend -> engine -> scheduler -> cluster -> sweep``): it imports the
kernel registry and quantization formats so that no module under ``serving/`` has to, and it
deliberately does not import :mod:`repro.serving` — any object carrying the profile
attributes (``kernel``, ``kv_format``, ``weight_bytes_per_param``, ``attention_efficiency``,
optionally ``reference_kernel``) builds a backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional

from ..costmodel.model import KernelCostParams
from ..gpu.specs import GpuSpec, get_gpu
from ..kernels.base import GemmKernel
from ..kernels.registry import available_kernels, get_kernel
from ..quant.kvcache import KV_FORMATS, kv_bytes_per_element

__all__ = [
    "KernelBackend",
    "build_backend",
    "kv_format_bytes",
    "available_kv_formats",
    "available_kernels",
    "weight_quant_scheme",
    "scheme_output_rmse",
    "DEFAULT_REFERENCE_KERNEL",
]

#: The reference kernel used for LM-head / recompute baselines unless the profile overrides
#: it (``SystemProfile.reference_kernel``).  Embeddings and logits stay FP16 in every system
#: the paper compares, which is why this is the default rather than the system's own kernel.
DEFAULT_REFERENCE_KERNEL = "fp16"

#: Memory reserved on every GPU for activations, CUDA graphs, workspace and fragmentation
#: slack — part of the deployed-size accounting the backend owns.
ACTIVATION_RESERVE_BYTES = 2 * 2**30


def kv_format_bytes(format_name: str) -> float:
    """Bytes per stored K/V element of a named KV-cache format.

    The backend-layer alias of :func:`repro.quant.kvcache.kv_bytes_per_element`, so serving
    modules resolve formats through the backend interface instead of reaching into
    :mod:`repro.quant` directly.
    """
    return kv_bytes_per_element(format_name)


def available_kv_formats() -> list:
    """Names of all registered KV-cache storage formats."""
    return sorted(KV_FORMATS)


#: Which weight-quantization scheme of the accuracy study each GEMM kernel deploys.
#: ``None`` means the kernel stores weights at >= 8 bits, where the two-level 4-bit
#: reconstruction error the study measures does not apply (proxy error 0).
_KERNEL_QUANT_SCHEME: Dict[str, Optional[str]] = {
    "fp16": None,
    "fp8": None,
    "w8a8": None,
    "w4a16": "rtn-int4",
    "qserve-w4a8": "qserve",
    "liquidgemm": "lqq",
}


def weight_quant_scheme(kernel_name: str) -> Optional[str]:
    """Accuracy-study scheme deployed by ``kernel_name`` (``None`` for >= 8-bit weights).

    Ablation kernels are LiquidGEMM variants and map to the LQQ scheme; unknown kernels
    default to ``None`` (no 4-bit weight path to proxy).
    """
    key = kernel_name.lower()
    if key.startswith("ablation-"):
        return "lqq"
    return _KERNEL_QUANT_SCHEME.get(key)


@lru_cache(maxsize=None)
def scheme_output_rmse(scheme: Optional[str]) -> float:
    """Mean GEMM-output RMSE of one weight-quantization scheme (the accuracy proxy).

    Runs the seeded synthetic-weight study of :mod:`repro.accuracy.study` once per scheme
    and caches the scalar; ``None`` (>= 8-bit weights) is 0 by definition.  Deterministic
    across processes and machines (fixed seed, fixed shapes), so sweep frontier payloads
    are reproducible.
    """
    if scheme is None:
        return 0.0
    from ..accuracy.study import run_accuracy_study  # lazy: keeps backend import light

    return run_accuracy_study(seed=0).mean_output_rmse(scheme)


@dataclass(frozen=True)
class KernelBackend:
    """Everything the serving stack consumes from the kernel/quantization core, resolved.

    Instances are built by :func:`build_backend` (or ``KernelBackend.from_system``) and are
    immutable: cost parameters are resolved once per (profile, GPU), which is also what
    makes engine construction cheap enough for per-worker caches in :mod:`repro.sweep`.
    """

    system_name: str
    kernel_name: str
    reference_kernel_name: str
    kernel: GemmKernel
    reference_kernel: GemmKernel
    gemm_cost_params: KernelCostParams
    reference_cost_params: KernelCostParams
    weight_bytes_per_param: float
    kv_format: str
    kv_bytes_per_element: float
    attention_efficiency: float
    gpu: GpuSpec

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_system(cls, system: Any, device: Any = "H800") -> "KernelBackend":
        """Build the backend for one system profile on one GPU.

        ``system`` is any object with ``kernel``, ``kv_format``, ``weight_bytes_per_param``
        and ``attention_efficiency`` attributes (a ``SystemProfile`` or a derived one);
        ``device`` is a :class:`~repro.gpu.specs.GpuSpec` or a GPU name.
        Kernel and KV-format names are validated here, up front, against the registries —
        the one place the whole serving stack resolves them.
        """
        gpu = get_gpu(device)
        kernel_name = system.kernel
        reference_name = getattr(system, "reference_kernel", DEFAULT_REFERENCE_KERNEL)
        try:
            kernel = get_kernel(kernel_name)
            reference = (
                kernel if reference_name == kernel_name else get_kernel(reference_name)
            )
        except KeyError as exc:
            raise KeyError(
                f"system {getattr(system, 'name', '?')!r}: {exc.args[0]}"
            ) from exc
        kv_bytes = kv_format_bytes(system.kv_format)  # raises with known formats listed
        return cls(
            system_name=getattr(system, "name", kernel_name),
            kernel_name=kernel_name,
            reference_kernel_name=reference_name,
            kernel=kernel,
            reference_kernel=reference,
            gemm_cost_params=kernel.cost_params(gpu),
            reference_cost_params=reference.cost_params(gpu),
            weight_bytes_per_param=system.weight_bytes_per_param,
            kv_format=system.kv_format,
            kv_bytes_per_element=kv_bytes,
            attention_efficiency=system.attention_efficiency,
            gpu=gpu,
        )

    # ------------------------------------------------------------------ kernel facts
    @property
    def dequant_alpha(self) -> float:
        """CUDA-core dequant instructions per weight element (the paper's ``alpha``)."""
        return self.gemm_cost_params.alpha

    @property
    def mma_precision(self) -> str:
        """Tensor-Core data type the system's GEMM kernel computes in."""
        return self.gemm_cost_params.mma_precision

    @property
    def weight_quant_scheme(self) -> Optional[str]:
        """Accuracy-study scheme of the deployed weight format (None for >= 8 bit)."""
        return weight_quant_scheme(self.kernel_name)

    def accuracy_rmse(self) -> float:
        """Mean GEMM-output RMSE proxy of the deployed weight format (cached, seeded)."""
        return scheme_output_rmse(self.weight_quant_scheme)

    # ------------------------------------------------------------------ deployed size
    def deployed_weight_bytes(self, model: Any, tp_degree: int = 1) -> int:
        """GPU bytes of one GPU's shard of ``model``'s weights under this backend.

        Linear layers are stored at the system's deployed bytes-per-parameter (4-bit codes
        plus scale metadata for the two-level formats); embeddings and the LM head stay
        FP16, vocab-parallel across the TP group.
        """
        linear = model.gemm_weight_params_per_gpu(tp_degree) * self.weight_bytes_per_param
        embeddings = model.embedding_params() * 2.0 / tp_degree
        return int(linear + embeddings)

    def kv_budget_bytes(self, model: Any, tp_degree: int = 1) -> int:
        """Per-GPU KV-cache budget after weights and the activation reserve."""
        budget = (
            self.gpu.memory_capacity
            - self.deployed_weight_bytes(model, tp_degree)
            - ACTIVATION_RESERVE_BYTES
        )
        return int(max(0, budget))

    # ------------------------------------------------------------------ reporting
    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (embedded in sweep/bench payloads)."""
        return {
            "system": self.system_name,
            "kernel": self.kernel_name,
            "reference_kernel": self.reference_kernel_name,
            "kv_format": self.kv_format,
            "kv_bytes_per_element": self.kv_bytes_per_element,
            "weight_bytes_per_param": self.weight_bytes_per_param,
            "attention_efficiency": self.attention_efficiency,
            "dequant_alpha": self.dequant_alpha,
            "mma_precision": self.mma_precision,
            "weight_quant_scheme": self.weight_quant_scheme,
            "device": self.gpu.name,
        }


def build_backend(system: Any, device: Any = "H800") -> KernelBackend:
    """Construct the :class:`KernelBackend` for ``system`` on ``device``.

    The single entry point the serving stack uses; see
    :meth:`KernelBackend.from_system` for the accepted argument shapes.
    """
    return KernelBackend.from_system(system, device)
