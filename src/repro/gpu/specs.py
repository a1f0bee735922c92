"""GPU hardware specifications used by the cost model, pipeline simulator and serving model.

The paper's performance analysis (Figure 1, Section 3) is phrased entirely in terms of a
small set of published hardware metrics: Tensor Core throughput per precision, CUDA Core
INT32 throughput, and memory bandwidth.  This module captures those metrics for the GPUs
the paper discusses (A100, H100, H800) and exposes a parametric :class:`GpuSpec` so the
cost model, roofline analysis, pipeline simulator and serving engine all draw numbers from
one place.  :func:`get_gpu` is the one resolver: every ``device=`` argument in the library
(a GPU name or a :class:`GpuSpec`) goes through it.

Throughputs are stored in *operations per second* (an FMA counts as two operations, the
same convention as the paper and NVIDIA datasheets).  Memory bandwidth is bytes per second.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Union

__all__ = [
    "Precision",
    "GpuSpec",
    "A100",
    "H100",
    "H800",
    "get_gpu",
    "list_gpus",
]

TERA = 1e12
GIGA = 1e9


class Precision:
    """Canonical names for the operand precisions used throughout the library."""

    FP16 = "fp16"
    BF16 = "bf16"
    FP8 = "fp8"
    INT8 = "int8"
    INT4 = "int4"
    UINT4 = "uint4"
    FP32 = "fp32"
    INT32 = "int32"

    #: Storage width in bits for each precision.
    BITS: Dict[str, int] = {
        FP32: 32,
        INT32: 32,
        FP16: 16,
        BF16: 16,
        FP8: 8,
        INT8: 8,
        INT4: 4,
        UINT4: 4,
    }

    @classmethod
    def bits(cls, precision: str) -> int:
        """Return the storage width in bits of ``precision``."""
        try:
            return cls.BITS[precision]
        except KeyError as exc:  # pragma: no cover - defensive
            raise ValueError(f"unknown precision {precision!r}") from exc

    @classmethod
    def bytes(cls, precision: str) -> float:
        """Return the storage width in bytes (may be fractional for sub-byte types)."""
        return cls.bits(precision) / 8.0


@dataclass(frozen=True)
class GpuSpec:
    """A parametric description of a data-center GPU.

    Attributes mirror Figure 1a of the paper, plus the SM count and clock the pipeline
    simulator apportions per thread block, and the memory capacity and link bandwidths
    the serving model charges.
    """

    name: str
    #: Tensor Core throughput per precision, OPs/s (dense, no sparsity).
    tensor_core_tops: Dict[str, float]
    #: CUDA Core INT32 throughput, OPs/s.
    cuda_core_int32_tops: float
    #: CUDA Core FP32 throughput, OPs/s.
    cuda_core_fp32_tops: float
    #: HBM bandwidth, bytes/s.
    memory_bandwidth: float
    #: HBM capacity, bytes.
    memory_capacity: float
    #: Number of streaming multiprocessors.
    num_sms: int
    #: SM clock in Hz (boost clock; converts the per-clock SMEM bandwidth to bytes/s).
    clock_hz: float
    #: NVLink / PCIe bandwidth, bytes/s: TP all-reduces and disaggregated KV handoffs.
    interconnect_bandwidth: float = 64e9
    #: GPU <-> host-memory link bandwidth, bytes/s (PCIe, effective): the rate at which KV
    #: blocks move during swap-based preemption.
    host_link_bandwidth: float = 25e9

    def tensor_core_throughput(self, precision: str) -> float:
        """Tensor Core throughput in OPs/s for ``precision``.

        Raises ``ValueError`` if the precision has no Tensor Core support on this GPU
        (e.g. INT4 on Hopper), mirroring the paper's observation that Atom's W4A4
        kernels cannot use Tensor Cores on H800.
        """
        try:
            return self.tensor_core_tops[precision]
        except KeyError as exc:
            raise ValueError(
                f"{self.name} has no tensor-core support for precision {precision!r}"
            ) from exc

    def supports_precision(self, precision: str) -> bool:
        """True if the Tensor Cores can execute MMA at ``precision``."""
        return precision in self.tensor_core_tops

    def with_overrides(self, **kwargs) -> "GpuSpec":
        """Return a copy of this spec with selected fields replaced.

        Useful for sensitivity studies (e.g. scaling memory bandwidth to explore how the
        memory/compute transition point moves, Section 3.3 of the paper).
        """
        return dataclasses.replace(self, **kwargs)

    def scaled(self, *, bandwidth: float = 1.0, tensor: float = 1.0, cuda: float = 1.0) -> "GpuSpec":
        """Return a spec with bandwidth / tensor-core / cuda-core throughput scaled."""
        return dataclasses.replace(
            self,
            name=f"{self.name}-scaled",
            memory_bandwidth=self.memory_bandwidth * bandwidth,
            tensor_core_tops={k: v * tensor for k, v in self.tensor_core_tops.items()},
            cuda_core_int32_tops=self.cuda_core_int32_tops * cuda,
            cuda_core_fp32_tops=self.cuda_core_fp32_tops * cuda,
        )


#: NVIDIA A100-SXM4-80GB (Figure 1a).
A100 = GpuSpec(
    name="A100",
    tensor_core_tops={
        Precision.FP16: 312 * TERA,
        Precision.BF16: 312 * TERA,
        Precision.INT8: 624 * TERA,
        Precision.INT4: 1248 * TERA,
    },
    cuda_core_int32_tops=19.5 * TERA,
    cuda_core_fp32_tops=19.5 * TERA,
    memory_bandwidth=2.0e12,
    memory_capacity=80 * 2**30,
    num_sms=108,
    clock_hz=1.41e9,
    host_link_bandwidth=25e9,  # PCIe Gen4 x16, effective
)

#: NVIDIA H100-SXM5-80GB (Figure 1a).
H100 = GpuSpec(
    name="H100",
    tensor_core_tops={
        Precision.FP16: 989.4 * TERA,
        Precision.BF16: 989.4 * TERA,
        Precision.FP8: 1978.9 * TERA,
        Precision.INT8: 1978.9 * TERA,
    },
    cuda_core_int32_tops=33.5 * TERA,
    cuda_core_fp32_tops=66.9 * TERA,
    memory_bandwidth=3.3e12,
    memory_capacity=80 * 2**30,
    num_sms=132,
    clock_hz=1.83e9,
    host_link_bandwidth=55e9,  # PCIe Gen5 x16, effective
)

#: NVIDIA H800-SXM5-80GB: H100 silicon with reduced NVLink; compute/memory metrics match
#: H100 for the purposes of the paper's single-GPU kernel study (the paper's testbed).
H800 = H100.with_overrides(name="H800", interconnect_bandwidth=32e9)


_REGISTRY: Dict[str, GpuSpec] = {g.name.lower(): g for g in (A100, H100, H800)}


def get_gpu(device: Union[str, GpuSpec]) -> GpuSpec:
    """Resolve a GPU: a :class:`GpuSpec` is returned as is, a name is looked up
    (case-insensitive) in the registry."""
    if isinstance(device, GpuSpec):
        return device
    try:
        return _REGISTRY[str(device).lower()]
    except KeyError as exc:
        raise KeyError(f"unknown GPU {device!r}; known: {sorted(_REGISTRY)}") from exc


def list_gpus() -> Dict[str, GpuSpec]:
    """Return a copy of the GPU registry."""
    return dict(_REGISTRY)
