"""Conformance suite for the unified kernel-backend layer (:mod:`repro.backend`).

Every registered :class:`~repro.serving.systems.SystemProfile` must build a
:class:`~repro.backend.KernelBackend` whose costs are finite and positive across
decode / mixed / prefill GEMM shapes, whose resolved parameters are bit-identical to
composing the kernel registry and quant formats directly, and which — injected into a
:class:`~repro.serving.engine.ServingEngine` — reproduces the default-constructed
engine's numbers exactly.
"""

import dataclasses
import json
import math

import pytest

from repro.backend import (
    ACTIVATION_RESERVE_BYTES,
    DEFAULT_REFERENCE_KERNEL,
    KernelBackend,
    available_kernels,
    available_kv_formats,
    build_backend,
    kv_format_bytes,
    scheme_output_rmse,
    weight_quant_scheme,
)
from repro.costmodel.model import GemmShape, gemm_cost
from repro.kernels.registry import get_kernel
from repro.quant.kvcache import KV_FORMATS, kv_bytes_per_element
from repro.serving.engine import PrefillChunk, ServingEngine
from repro.serving.metrics import SloSpec
from repro.serving.models import get_model
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.systems import SYSTEMS, get_system
from repro.workloads.traces import (
    SHAREGPT_OUTPUTS,
    SHAREGPT_PROMPTS,
    ArrivalProcess,
    generate_trace,
)

ALL_SYSTEMS = sorted(SYSTEMS)

#: One GEMM shape per serving phase: a decode micro-batch, a mixed decode+chunk
#: iteration, and a compute-bound prefill.
PHASE_SHAPES = {
    "decode": GemmShape(m=8, n=4096, k=4096),
    "mixed": GemmShape(m=264, n=4096, k=4096),
    "prefill": GemmShape(m=2048, n=11008, k=4096),
}


# --------------------------------------------------------------------------- conformance
@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
@pytest.mark.parametrize("phase", sorted(PHASE_SHAPES))
def test_costs_finite_and_positive(system_name, phase):
    backend = build_backend(get_system(system_name))
    shape = PHASE_SHAPES[phase]
    for params in (backend.gemm_cost_params, backend.reference_cost_params):
        t = gemm_cost(shape, backend.gpu, params).total
        assert math.isfinite(t) and t > 0.0


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_backend_fields_well_formed(system_name):
    profile = get_system(system_name)
    backend = build_backend(profile)
    assert backend.system_name == profile.name
    assert backend.kernel_name == profile.kernel
    assert backend.reference_kernel_name == DEFAULT_REFERENCE_KERNEL
    assert backend.kv_format == profile.kv_format
    assert backend.kv_bytes_per_element > 0
    assert 0 < backend.attention_efficiency <= 1.0
    assert backend.weight_bytes_per_param > 0
    assert backend.dequant_alpha >= 0.0
    assert backend.mma_precision in ("fp16", "fp8", "int8", "int4")
    assert backend.accuracy_rmse() >= 0.0


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_bit_identical_to_direct_registry_composition(system_name):
    """The backend resolves exactly what the engine used to scavenge piecemeal."""
    profile = get_system(system_name)
    backend = build_backend(profile, "H800")
    spec = backend.gpu
    assert backend.gemm_cost_params == get_kernel(profile.kernel).cost_params(spec)
    assert backend.reference_cost_params == get_kernel("fp16").cost_params(spec)
    assert backend.kv_bytes_per_element == kv_bytes_per_element(profile.kv_format)
    shape = PHASE_SHAPES["mixed"]
    direct = gemm_cost(shape, spec, get_kernel(profile.kernel).cost_params(spec)).total
    # bit-identical, not approx
    assert gemm_cost(shape, backend.gpu, backend.gemm_cost_params).total == direct


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_deployed_size_accounting(system_name):
    backend = build_backend(get_system(system_name))
    model = get_model("llama2-7b")
    deployed = backend.deployed_weight_bytes(model, tp_degree=1)
    budget = backend.kv_budget_bytes(model, tp_degree=1)
    assert 0 < deployed < backend.gpu.memory_capacity
    assert budget == int(
        max(0, backend.gpu.memory_capacity - deployed - ACTIVATION_RESERVE_BYTES)
    )
    # TP sharding shrinks the per-GPU shard.
    assert backend.deployed_weight_bytes(model, tp_degree=2) < deployed


@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_describe_is_json_safe(system_name):
    payload = build_backend(get_system(system_name)).describe()
    json.dumps(payload)
    assert payload["system"] == system_name


# --------------------------------------------------------------------------- engine equality
@pytest.mark.parametrize("system_name", ALL_SYSTEMS)
def test_engine_bit_identical_with_injected_backend(system_name):
    """Injecting a pre-built backend reproduces the default engine exactly."""
    default = ServingEngine(system_name, "llama2-7b")
    injected = ServingEngine(
        system_name, "llama2-7b", backend=build_backend(get_system(system_name), "H800")
    )
    assert default.weight_memory_bytes() == injected.weight_memory_bytes()
    assert default.kv_budget_bytes() == injected.kv_budget_bytes()
    for args in ((8, 512), (64, 2048)):
        assert default.decode_step_time(*args) == injected.decode_step_time(*args)
    assert default.prefill_time(1, 1024) == injected.prefill_time(1, 1024)
    assert default.lm_head_time(64) == injected.lm_head_time(64)
    chunk = [PrefillChunk(256, 512)]
    assert default.mixed_step_time([], chunk) == injected.mixed_step_time([], chunk)


def test_injected_attention_efficiency_reaches_every_prefill_cost():
    """Prefill, recompute and chunked prefill all read the backend's attention efficiency,
    not the system profile's: halving it on an injected backend slows all three."""
    base = build_backend(get_system("liquidserve"), "H800")
    halved = dataclasses.replace(
        base, attention_efficiency=base.attention_efficiency / 2
    )
    default = ServingEngine("liquidserve", "llama2-7b", backend=base)
    slower = ServingEngine("liquidserve", "llama2-7b", backend=halved)
    assert slower.prefill_time(1, 4096) > default.prefill_time(1, 4096)
    assert slower.recompute_time(4096) > default.recompute_time(4096)
    chunk = [PrefillChunk(256, 2048)]
    assert slower.mixed_step_time([], chunk) > default.mixed_step_time([], chunk)


def test_scheduler_run_bit_identical_with_injected_backend():
    """A full scheduler simulation is byte-identical across construction paths."""
    trace = generate_trace(
        40, ArrivalProcess(rate_rps=20.0), SHAREGPT_PROMPTS, SHAREGPT_OUTPUTS, seed=7
    )
    slo = SloSpec(ttft_s=2.0, tpot_s=0.1)
    reports = []
    for backend in (None, build_backend(get_system("liquidserve"), "H800")):
        engine = ServingEngine("liquidserve", "llama2-7b", backend=backend)
        stats = ContinuousBatchingScheduler(engine, kv_budget_bytes=2 * 2**30).run(trace)
        report = stats.slo_report(slo)
        reports.append(
            (
                stats.generated_tokens,
                stats.throughput_tokens_per_s,
                stats.num_iterations,
                stats.preemptions,
                report.p99_ttft_s,
                report.p99_tpot_s,
                report.goodput_rps,
            )
        )
    assert reports[0] == reports[1]


# --------------------------------------------------------------------------- derive + validation
def test_derive_overrides_and_names():
    base = get_system("trt-fp16")
    derived = base.derive(kernel="liquidgemm", kv_format="int4")
    assert derived.kernel == "liquidgemm" and derived.kv_format == "int4"
    assert derived.name == "trt-fp16[kernel=liquidgemm,kv_format=int4]"
    # Untouched fields carry over.
    assert derived.attention_efficiency == base.attention_efficiency


def test_derive_ignores_none_and_noops():
    base = get_system("liquidserve")
    assert base.derive(kernel=None, kv_format=None) is base
    assert base.derive(kernel=base.kernel) is base  # same value -> no change


def test_derive_rejects_unknown_fields():
    with pytest.raises(TypeError, match="unknown SystemProfile field"):
        get_system("liquidserve").derive(kernle="fp16")


def test_derived_backend_resolves_overrides():
    backend = build_backend(get_system("trt-fp16").derive(kernel="liquidgemm", kv_format="int4"))
    assert backend.kernel_name == "liquidgemm"
    assert backend.kv_bytes_per_element == kv_bytes_per_element("int4")
    assert backend.weight_quant_scheme == "lqq"


def test_unknown_kernel_error_names_system():
    bad = get_system("liquidserve").derive(kernel="no-such-kernel")
    with pytest.raises(KeyError, match="liquidserve.*no-such-kernel"):
        build_backend(bad)


def test_unknown_kv_format_rejected():
    bad = get_system("liquidserve").derive(kv_format="no-such-format")
    with pytest.raises(KeyError):
        build_backend(bad)


# --------------------------------------------------------------------------- registries + proxy
def test_registry_listings():
    assert set(available_kv_formats()) == set(KV_FORMATS)
    assert "liquidgemm" in available_kernels() and "fp16" in available_kernels()
    for fmt in available_kv_formats():
        assert kv_format_bytes(fmt) == kv_bytes_per_element(fmt)


def test_weight_quant_scheme_mapping():
    assert weight_quant_scheme("fp16") is None
    assert weight_quant_scheme("fp8") is None
    assert weight_quant_scheme("w8a8") is None
    assert weight_quant_scheme("w4a16") == "rtn-int4"
    assert weight_quant_scheme("qserve-w4a8") == "qserve"
    assert weight_quant_scheme("liquidgemm") == "lqq"
    assert weight_quant_scheme("ablation-imfp") == "lqq"


def test_scheme_output_rmse_proxy():
    assert scheme_output_rmse(None) == 0.0
    lqq = scheme_output_rmse("lqq")
    assert math.isfinite(lqq) and lqq > 0.0
    assert scheme_output_rmse("lqq") == lqq  # cached + deterministic


def test_serving_modules_do_not_import_kernel_or_quant_registries():
    """Acceptance criterion: serving/ goes through the backend layer, full stop."""
    import pathlib
    import re

    banned = re.compile(
        r"^\s*(from|import)\s+\S*(kernels\.registry|kernels\s+import|quant\.kvcache)"
    )
    serving_dir = pathlib.Path(__file__).resolve().parent.parent / "src/repro/serving"
    offenders = []
    for path in sorted(serving_dir.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if banned.match(line):
                offenders.append(f"{path.name}: {line.strip()}")
    assert not offenders, f"serving modules importing kernel/quant core: {offenders}"
