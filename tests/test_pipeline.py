"""Tests for the warp-group pipeline simulator (repro.pipeline)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import GemmShape, KernelCostParams, PipelineMode
from repro.gpu import H800
from repro.pipeline import (
    IterationTiming,
    PipelineKind,
    decompose_work,
    derive_iteration_timing,
    simulate_excp,
    simulate_imfp,
    simulate_pipeline,
    simulate_serial,
)


def timing(load=1.0, dq=0.5, mma=0.8, roundtrip=0.3, sync=0.1):
    return IterationTiming(t_load=load, t_dequant=dq, t_mma=mma,
                           t_smem_roundtrip=roundtrip, t_sync=sync)


KERNEL_PARAMS = KernelCostParams(
    name="x", weight_precision="int4", act_precision="int8", mma_precision="int8",
    alpha=0.875, pipeline=PipelineMode.FULL_OVERLAP, tile_m=128, tile_n=128, tile_k=64,
)


class TestIterationTiming:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IterationTiming(-1, 0, 0, 0, 0)

    def test_derive_matches_cost_model_scales(self):
        shape = GemmShape(128, 8192, 4096)
        t = derive_iteration_timing(shape, H800, KERNEL_PARAMS)
        assert t.t_load > 0 and t.t_dequant > 0 and t.t_mma > 0
        # Tile is 128x64 int4 = 4 KiB; at block-level bandwidth this is sub-microsecond.
        assert t.t_load < 5e-6

    def test_decompose_work(self):
        shape = GemmShape(256, 8192, 4096)
        work = decompose_work(shape, H800, KERNEL_PARAMS)
        assert work.k_iterations == 4096 // 64
        assert work.total_tiles == (256 // 128) * (8192 // 128)
        assert work.concurrent_blocks == 132
        assert work.tiles_per_block >= 1


class TestSerialPipeline:
    def test_steady_state_is_max_of_load_and_compute(self):
        t = timing(load=1.0, dq=0.3, mma=0.4)
        result = simulate_serial([t], [100])
        # Load (1.0) dominates dequant+mma (0.7): steady state ~= k * t_load.
        assert result.total_time == pytest.approx(100 * 1.0 + 0.7, rel=0.05)

    def test_compute_bound_case(self):
        t = timing(load=0.2, dq=0.5, mma=0.8)
        result = simulate_serial([t], [50])
        assert result.total_time == pytest.approx(50 * 1.3 + 0.2, rel=0.05)

    def test_busy_accounting_conserved(self):
        t = timing()
        result = simulate_serial([t], [20])
        assert result.busy["tma"] == pytest.approx(20 * t.t_load)
        assert result.busy["cuda"] == pytest.approx(20 * t.t_dequant)
        assert result.busy["tensor"] == pytest.approx(20 * t.t_mma)

    def test_iterations_counted(self):
        assert simulate_serial([timing(), timing()], [5, 7]).iterations == 12

    def test_per_gemm_overhead(self):
        t = timing(load=0.1, dq=0.1, mma=0.1)
        without = simulate_serial([t, t], [10, 10], per_gemm_overhead=0.0)
        with_overhead = simulate_serial([t, t], [10, 10], per_gemm_overhead=5.0)
        assert with_overhead.total_time >= without.total_time + 5.0 - 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_serial([timing()], [0])
        with pytest.raises(ValueError):
            simulate_serial([timing(), timing()], [1])


class TestExcpPipeline:
    def test_roundtrip_and_sync_on_critical_path(self):
        """When memory-bound, ExCP's dequant stage (roundtrip + sync) can exceed t_load and
        become the bottleneck — the Figure 13 regression at small batch."""
        t = timing(load=1.0, dq=0.2, mma=0.1, roundtrip=1.0, sync=0.2)
        serial = simulate_serial([t], [100])
        excp = simulate_excp([t], [100])
        assert excp.total_time > serial.total_time

    def test_pipelining_helps_when_compute_dominates(self):
        t = timing(load=0.5, dq=1.0, mma=1.0, roundtrip=0.1, sync=0.01)
        serial = simulate_serial([t], [100])
        excp = simulate_excp([t], [100])
        # Serial pays dq+mma (2.0) per iteration; ExCP overlaps them across warp groups.
        assert excp.total_time < serial.total_time

    def test_busy_conservation(self):
        t = timing()
        result = simulate_excp([t], [30])
        assert result.busy["cuda"] == pytest.approx(30 * t.t_dequant)
        assert result.busy["tensor"] == pytest.approx(30 * t.t_mma)
        assert result.busy["smem"] == pytest.approx(30 * t.t_smem_roundtrip)


class TestImfpPipeline:
    def test_overlap_reaches_max_of_stages(self):
        t = timing(load=0.5, dq=0.6, mma=1.0, roundtrip=0.0, sync=0.0)
        result = simulate_imfp([t], [200], num_compute_wgs=2)
        # Steady state should approach k * max(stage) = 200 * 1.0.
        assert result.total_time == pytest.approx(200 * 1.0, rel=0.05)

    def test_never_worse_than_serial(self):
        for load, dq, mma in [(1, 0.1, 0.1), (0.1, 1, 0.5), (0.2, 0.5, 1.5), (1, 1, 1)]:
            t = timing(load=load, dq=dq, mma=mma)
            serial = simulate_serial([t], [64])
            imfp = simulate_imfp([t], [64])
            assert imfp.total_time <= serial.total_time * 1.01

    def test_never_worse_than_excp(self):
        for load, dq, mma in [(1, 0.1, 0.1), (0.1, 1, 0.5), (0.2, 0.5, 1.5)]:
            t = timing(load=load, dq=dq, mma=mma, roundtrip=0.2, sync=0.05)
            excp = simulate_excp([t], [64])
            imfp = simulate_imfp([t], [64])
            assert imfp.total_time <= excp.total_time * 1.01

    def test_single_compute_wg_serializes(self):
        t = timing(load=0.1, dq=1.0, mma=1.0)
        one = simulate_imfp([t], [50], num_compute_wgs=1)
        two = simulate_imfp([t], [50], num_compute_wgs=2)
        assert one.total_time > two.total_time
        assert one.total_time == pytest.approx(50 * 2.0, rel=0.05)

    def test_busy_conservation(self):
        t = timing()
        result = simulate_imfp([t], [30])
        assert result.busy["cuda"] == pytest.approx(30 * t.t_dequant)
        assert result.busy["tensor"] == pytest.approx(30 * t.t_mma)

    def test_grouped_gemm_no_overhead(self):
        t = timing(load=0.1, dq=0.1, mma=0.1)
        grouped = simulate_imfp([t] * 8, [10] * 8, per_gemm_overhead=0.0)
        single = simulate_imfp([t], [80])
        assert grouped.total_time == pytest.approx(single.total_time, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_imfp([timing()], [1], num_compute_wgs=0)

    @given(
        st.floats(0.01, 2.0), st.floats(0.0, 2.0), st.floats(0.01, 2.0),
        st.integers(4, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_time_bounds(self, load, dq, mma, iters):
        """Total time is bounded below by the busiest resource and above by full serialization."""
        t = timing(load=load, dq=dq, mma=mma, roundtrip=0.0, sync=0.0)
        result = simulate_imfp([t], [iters])
        lower = iters * max(load, dq, mma)
        upper = iters * (load + dq + mma) + 1e-9
        assert lower - 1e-9 <= result.total_time <= upper

    def test_bubble_fraction_in_unit_range(self):
        result = simulate_imfp([timing()], [16])
        assert 0.0 <= result.bubble_fraction <= 1.0
        assert 0.0 <= result.utilization("tensor") <= 1.0


class TestDispatch:
    def test_dispatch_by_kind(self):
        t = timing()
        for kind in PipelineKind.ALL:
            assert simulate_pipeline(kind, [t], [4]).kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            simulate_pipeline("bogus", [timing()], [1])
