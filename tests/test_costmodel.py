"""Tests for the analytical cost model and roofline analysis (repro.costmodel)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import (
    GemmLine,
    GemmShape,
    KernelCostParams,
    PipelineMode,
    STANDARD_CONFIGS,
    alpha_budget,
    gemm_cost,
    ridge_points,
    roofline_curve,
    transition_batch_size,
)
from repro.gpu import A100, H100, H800, Precision, list_gpus
from repro.kernels import available_kernels, get_kernel


def params(**overrides):
    base = dict(
        name="test",
        weight_precision="int4",
        act_precision="int8",
        mma_precision="int8",
        alpha=0.875,
        pipeline=PipelineMode.FULL_OVERLAP,
        tile_m=128,
        tile_n=128,
        tile_k=64,
        bandwidth_efficiency=1.0,
        tensor_efficiency=1.0,
        launch_overhead_s=0.0,
        epilogue_ops_per_output=0.0,
    )
    base.update(overrides)
    return KernelCostParams(**base)


class TestGemmShape:
    def test_properties(self):
        s = GemmShape(8, 64, 128)
        assert s.weight_elements == 64 * 128
        assert s.macs == 8 * 64 * 128
        assert s.flops == 2 * s.macs

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmShape(0, 1, 1)


class TestKernelCostParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(pipeline="bogus")
        with pytest.raises(ValueError):
            params(tensor_efficiency=0.0)
        with pytest.raises(ValueError):
            params(alpha=-1.0)


class TestSection33Numbers:
    """The model must reproduce the paper's §3.3 analysis from the Figure 1 metrics."""

    def test_w4a8_transition_is_150_on_h100(self):
        assert transition_batch_size(H100, "int4", "int8") == pytest.approx(150, abs=1)

    def test_w8a8_transition_is_300_on_h100(self):
        assert transition_batch_size(H100, "int8", "int8") == pytest.approx(300, abs=1)

    def test_w8a8_transition_is_156_on_a100(self):
        assert transition_batch_size(A100, "int8", "int8") == pytest.approx(156, abs=1)

    def test_alpha_budget_memory_bound(self):
        assert alpha_budget(H100, "int4", "int8") == pytest.approx(5.07, abs=0.05)

    def test_alpha_budget_compute_bound_at_150(self):
        assert alpha_budget(H100, "int4", "int8", batch_size=150) == pytest.approx(5.07, abs=0.05)

    def test_w4a8_halves_the_w8a8_threshold(self):
        w4 = transition_batch_size(H100, "int4", "int8")
        w8 = transition_batch_size(H100, "int8", "int8")
        assert w4 == pytest.approx(w8 / 2)


class TestGemmCost:
    def test_memory_bound_at_small_batch(self):
        cost = gemm_cost(GemmShape(4, 8192, 4096), H800, params())
        assert cost.limited_by == "memory"
        assert cost.total == pytest.approx(cost.t_load, rel=1e-6)

    def test_compute_bound_at_large_batch(self):
        cost = gemm_cost(GemmShape(512, 8192, 4096), H800, params(tile_m=256))
        assert cost.limited_by == "tensor_cores"

    def test_serial_dequant_adds_dequant_to_mma(self):
        shape = GemmShape(256, 8192, 4096)
        overlap = gemm_cost(shape, H800, params(tile_m=256, alpha=4.6))
        serial = gemm_cost(shape, H800, params(tile_m=256, alpha=4.6,
                                               pipeline=PipelineMode.SERIAL_DEQUANT))
        assert serial.total > overlap.total

    def test_m_tiles_scaling(self):
        small = gemm_cost(GemmShape(128, 4096, 4096), H800, params())
        large = gemm_cost(GemmShape(256, 4096, 4096), H800, params())
        assert large.m_tiles == 2 * small.m_tiles
        assert large.total == pytest.approx(2 * small.total, rel=1e-6)

    def test_alpha_increases_dequant_time_only(self):
        shape = GemmShape(64, 4096, 4096)
        cheap = gemm_cost(shape, H800, params(alpha=1.0))
        pricey = gemm_cost(shape, H800, params(alpha=10.0))
        assert pricey.t_dequant == pytest.approx(10 * cheap.t_dequant, rel=1e-6)
        assert pricey.t_load == pytest.approx(cheap.t_load, rel=1e-6)
        assert pricey.t_mma == pytest.approx(cheap.t_mma, rel=1e-6)

    def test_weight_precision_halving_halves_load_time(self):
        shape = GemmShape(64, 4096, 4096)
        w4 = gemm_cost(shape, H800, params(weight_precision="int4"))
        w8 = gemm_cost(shape, H800, params(weight_precision="int8"))
        assert w8.t_load == pytest.approx(2 * w4.t_load, rel=1e-6)

    def test_launch_overhead_additive(self):
        shape = GemmShape(8, 512, 512)
        without = gemm_cost(shape, H800, params())
        with_overhead = gemm_cost(shape, H800, params(launch_overhead_s=1e-5))
        assert with_overhead.total - without.total == pytest.approx(1e-5, rel=1e-6)

    @given(st.integers(1, 512), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_problem_size(self, m, n_blocks, k_blocks):
        """Cost never decreases when the problem grows in any dimension."""
        n, k = 256 * n_blocks, 256 * k_blocks
        p = params()
        base = gemm_cost(GemmShape(m, n, k), H800, p).total
        assert gemm_cost(GemmShape(m + 1, n, k), H800, p).total >= base - 1e-15
        assert gemm_cost(GemmShape(m, n + 256, k), H800, p).total >= base - 1e-15
        assert gemm_cost(GemmShape(m, n, k + 256), H800, p).total >= base - 1e-15

    def test_breakdown_dict(self):
        d = gemm_cost(GemmShape(8, 512, 512), H800, params()).as_dict()
        assert set(d) >= {"t_load", "t_dequant", "t_mma", "total"}


def _equation6(shape, gpu, p):
    """Equation 6 for one shape, written out term by term: the reference every
    :class:`GemmLine` evaluation must equal bit for bit."""
    m_tiles = math.ceil(shape.m / p.tile_m)
    effective_m = min(p.tile_m, shape.m)
    nk = shape.n * shape.k
    phi_bd = gpu.memory_bandwidth * p.bandwidth_efficiency / Precision.bytes(p.weight_precision)
    phi_tc = gpu.tensor_core_throughput(p.mma_precision) * p.tensor_efficiency
    t_load = nk / phi_bd
    t_dequant = (p.alpha + p.load_overhead_alpha) * nk / gpu.cuda_core_int32_tops
    t_mma = effective_m * 2.0 * nk / phi_tc
    if p.pipeline == PipelineMode.FULL_OVERLAP:
        per_m_tile = max(t_load, t_dequant, t_mma)
    else:
        per_m_tile = max(t_load, t_dequant + t_mma)
    t_epilogue = p.epilogue_ops_per_output * shape.m * shape.n / gpu.cuda_core_fp32_tops
    return m_tiles * per_m_tile + t_epilogue + p.launch_overhead_s


class TestGemmLine:
    """One line prices every M at a fixed (N, K), kernel and GPU; ``gemm_cost`` is one
    line evaluation.  Both must equal Equation 6 written out, bit for bit."""

    def test_every_kernel_and_gpu_matches_equation6(self):
        probes = 0
        for gpu in list_gpus().values():
            for name in available_kernels():
                p = get_kernel(name).cost_params(gpu)
                if not gpu.supports_precision(p.mma_precision):
                    continue
                for n, k in ((12288, 4096), (4096, 11008), (32000, 8192), (7, 5)):
                    line = GemmLine(n, k, gpu, p)
                    for m in [*range(1, 2 * p.tile_m + 2), 1023, 1024, 1025, 262144]:
                        shape = GemmShape(m, n, k)
                        expected = _equation6(shape, gpu, p)
                        assert line.total(m) == expected
                        assert gemm_cost(shape, gpu, p).total == expected
                        probes += 1
        assert probes > 10000

    @pytest.mark.parametrize("mode", PipelineMode.ALL)
    def test_every_pipeline_mode_matches_equation6(self, mode):
        p = params(pipeline=mode, alpha=2.0, load_overhead_alpha=0.5,
                   epilogue_ops_per_output=2.0, launch_overhead_s=3e-6)
        line = GemmLine(4096, 4096, H800, p)
        for m in range(1, 2 * p.tile_m + 2):
            assert line.total(m) == _equation6(GemmShape(m, 4096, 4096), H800, p)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=2**18),
        k=st.integers(min_value=1, max_value=2**16),
        ms=st.lists(st.integers(min_value=1, max_value=2**20), min_size=1, max_size=12),
    )
    def test_total_reads_its_helpers_terms(self, n, k, ms):
        """``total`` reads its terms, the folded ``2 * N * K`` among them, out of one
        resolved tuple; for every kernel and GPU it equals the helpers' left-to-right
        terms: ``ceil(m / tile_m)`` M tiles of ``_per_m_tile(_t_mma(m))`` (one partial
        tile below ``tile_m``), plus ``_t_epilogue(m)`` and the launch."""
        for gpu in list_gpus().values():
            for name in available_kernels():
                p = get_kernel(name).cost_params(gpu)
                if not gpu.supports_precision(p.mma_precision):
                    continue
                line = GemmLine(n, k, gpu, p)
                for m in [*ms, p.tile_m - 1, p.tile_m]:
                    expected = (
                        math.ceil(m / p.tile_m) * line._per_m_tile(line._t_mma(m))
                        + line._t_epilogue(m) + p.launch_overhead_s
                    )
                    assert line.total(m) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmLine(0, 64, H800, params())
        with pytest.raises(ValueError):
            GemmLine(64, -1, H800, params())
        for m in (0, -1):
            with pytest.raises(ValueError):
                GemmLine(64, 64, H800, params()).total(m)
        with pytest.raises(ValueError, match="tensor-core"):
            GemmLine(64, 64, A100, params(mma_precision="fp8"))


class TestRoofline:
    def test_ridge_points_match_transitions(self):
        ridges = ridge_points(H100)
        assert ridges["w4a8"] == pytest.approx(150, abs=1)
        assert ridges["w8a8"] == pytest.approx(300, abs=1)
        assert "w4a4" not in ridges  # H100 tensor cores cannot run INT4

    def test_a100_includes_w4a4(self):
        assert "w4a4" in ridge_points(A100)

    def test_curve_monotone_then_flat(self):
        curve = roofline_curve(H100, STANDARD_CONFIGS["w4a8"], [1, 8, 64, 150, 256, 1024])
        tops = [p.attainable_tops for p in curve]
        assert all(b >= a - 1e-6 for a, b in zip(tops, tops[1:]))
        assert tops[-1] == pytest.approx(H100.tensor_core_throughput("int8"))
        assert curve[0].bound == "memory" and curve[-1].bound == "compute"

    def test_w4a8_beats_w8a8_in_memory_bound_region(self):
        batch = [8, 32, 64]
        w4 = roofline_curve(H100, STANDARD_CONFIGS["w4a8"], batch)
        w8 = roofline_curve(H100, STANDARD_CONFIGS["w8a8"], batch)
        for p4, p8 in zip(w4, w8):
            assert p4.attainable_tops == pytest.approx(2 * p8.attainable_tops)

    def test_unsupported_precision_raises(self):
        with pytest.raises(ValueError):
            roofline_curve(H100, STANDARD_CONFIGS["w4a4"], [8])

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            roofline_curve(H100, STANDARD_CONFIGS["w8a8"], [0])
