"""LiquidGEMM reproduction: hardware-efficient W4A8 GEMM for LLM serving, on a simulated GPU.

Reproduction of *LiquidGEMM: Hardware-Efficient W4A8 GEMM Kernel for High-Performance LLM
Serving* (SC 2025).  The package is organised as the paper's system plus every substrate it
depends on:

=====================  ========================================================================
subpackage             contents
=====================  ========================================================================
``repro.core``         public API: LiquidGEMM kernel, quantize/run/compare helpers
``repro.quant``        quantization algorithms (RTN, SmoothQuant, QServe progressive, LQQ, KV)
``repro.layout``       weight memory layouts (WGMMA fragments, dual-MMA packed layout)
``repro.dequant``      register-level dequantization with instruction accounting
``repro.isa``          bit-exact emulation of the PTX-level 32-bit instructions involved
``repro.gpu``          GPU specs (A100/H100/H800) and the shared-memory bank-conflict model
``repro.costmodel``    the paper's analytical cost model (Eq. 3-6) and roofline analysis
``repro.pipeline``     event-driven warp-group pipeline simulation (serial / ExCP / ImFP)
``repro.kernels``      LiquidGEMM + baseline kernels behind one interface
``repro.backend``      unified kernel-backend layer: one interface from kernels/quant to serving
``repro.serving``      end-to-end LLM serving model (models, attention, paged KV, systems)
``repro.workloads``    per-model GEMM shapes and batch sweeps
``repro.sweep``        process-parallel multi-configuration sweep engine over the simulator
``repro.accuracy``     quantization-accuracy study on synthetic weights
``repro.reporting``    text table/series formatting and payload schema validation
``repro.telemetry``    structured event tracing, counter sampling, Perfetto/summary export
=====================  ========================================================================
"""

from .backend import KernelBackend, build_backend
from .core import GemmResult, LiquidGemmKernel, compare_kernels, quantize_weights, w4a8_gemm
from .costmodel import GemmShape
from .gpu import A100, H100, H800, GpuSpec, Precision, get_gpu
from .kernels import available_kernels, default_comparison_set, get_kernel
from .serving import ServingEngine, get_model, get_system, list_models, list_systems
from .telemetry import Tracer

__version__ = "0.1.0"

__all__ = [
    "GemmResult",
    "LiquidGemmKernel",
    "compare_kernels",
    "quantize_weights",
    "w4a8_gemm",
    "GemmShape",
    "A100",
    "H100",
    "H800",
    "GpuSpec",
    "Precision",
    "get_gpu",
    "available_kernels",
    "default_comparison_set",
    "get_kernel",
    "KernelBackend",
    "build_backend",
    "ServingEngine",
    "get_model",
    "get_system",
    "list_models",
    "list_systems",
    "Tracer",
    "__version__",
]
