"""Tests for the attention cost model, serving systems, engine and scheduler."""

import sys

import pytest

import repro.costmodel.model as costmodel
from repro.core import simulate_serving
from repro.costmodel import GemmShape, gemm_cost
from repro.gpu import H800
from repro.serving import (
    ContinuousBatchingScheduler,
    PrefillChunk,
    Request,
    ServingEngine,
    TABLE1_SYSTEMS,
    chunked_prefill_attention_cost,
    decode_attention_cost_from_totals,
    get_model,
    get_system,
    list_systems,
)
from repro.workloads import decode_layer_gemms


class TestAttentionCost:
    """The decode form at ``(B, B*c)`` is a uniform batch of ``B`` sequences at context
    ``c``; the chunk form at ``context_start=0`` is a whole prompt."""

    def test_kv_read_dominates_decode(self):
        cost = decode_attention_cost_from_totals(get_model("llama2-7b"), H800, 64, 64 * 1024, 1.0)
        assert cost.kv_read > cost.compute
        assert cost.kv_read > cost.kv_write
        assert cost.total > 0

    def test_linear_in_batch_and_context(self):
        model = get_model("llama2-7b")
        base = decode_attention_cost_from_totals(model, H800, 16, 16 * 512, 1.0).kv_read
        assert decode_attention_cost_from_totals(
            model, H800, 32, 32 * 512, 1.0
        ).kv_read == pytest.approx(2 * base)
        assert decode_attention_cost_from_totals(
            model, H800, 16, 16 * 1024, 1.0
        ).kv_read == pytest.approx(2 * base)

    def test_kv_precision_scales_read_time(self):
        model = get_model("llama2-7b")
        int8 = decode_attention_cost_from_totals(model, H800, 16, 16 * 512, 1.0).kv_read
        int4 = decode_attention_cost_from_totals(model, H800, 16, 16 * 512, 0.5).kv_read
        fp16 = decode_attention_cost_from_totals(model, H800, 16, 16 * 512, 2.0).kv_read
        assert int4 == pytest.approx(int8 / 2) and fp16 == pytest.approx(2 * int8)

    def test_gqa_reduces_attention_cost(self):
        mha = decode_attention_cost_from_totals(
            get_model("llama2-7b"), H800, 16, 16 * 1024, 1.0
        ).total
        gqa = decode_attention_cost_from_totals(
            get_model("llama3-8b"), H800, 16, 16 * 1024, 1.0
        ).total
        assert gqa < mha / 2

    def test_attention_efficiency(self):
        model = get_model("llama2-7b")
        full = decode_attention_cost_from_totals(
            model, H800, 16, 16 * 512, 1.0, attention_efficiency=1.0
        )
        half = decode_attention_cost_from_totals(
            model, H800, 16, 16 * 512, 1.0, attention_efficiency=0.5
        )
        assert half.kv_read == pytest.approx(2 * full.kv_read)

    def test_validation(self):
        with pytest.raises(ValueError):
            decode_attention_cost_from_totals(get_model("llama2-7b"), H800, 0, 0 * 10, 1.0)
        with pytest.raises(ValueError):
            decode_attention_cost_from_totals(
                get_model("llama2-7b"), H800, 1, 1 * 10, 1.0, attention_efficiency=0
            )

    def test_prefill_quadratic_in_prompt(self):
        model = get_model("llama2-7b")
        short = chunked_prefill_attention_cost(model, H800, 256, 0, 1.0).compute
        long = chunked_prefill_attention_cost(model, H800, 512, 0, 1.0).compute
        assert long == pytest.approx(4 * short, rel=0.01)


class TestSystemProfiles:
    def test_all_table1_systems_defined(self):
        for name in TABLE1_SYSTEMS:
            assert get_system(name).name == name
        assert len(TABLE1_SYSTEMS) == 7

    def test_w8a8_does_not_support_moe(self):
        assert not get_system("trt-w8a8").supports_moe
        assert get_system("liquidserve").supports_moe

    def test_weight_bytes(self):
        assert get_system("trt-fp16").weight_bytes_per_param == 2.0
        assert get_system("trt-w8a8").weight_bytes_per_param == 1.0
        assert 0.5 < get_system("liquidserve").weight_bytes_per_param < 0.6

    def test_kv_formats(self):
        assert get_system("qserve").kv_format == "int4"
        assert get_system("liquidserve").kv_format == "int8"
        assert get_system("trt-fp8").kv_format == "fp8"

    def test_unknown_system(self):
        with pytest.raises(KeyError):
            get_system("vllm")

    def test_list_systems(self):
        assert set(TABLE1_SYSTEMS) <= set(list_systems())


class TestServingEngineMemory:
    def test_weight_memory_matches_model_size(self):
        engine = ServingEngine("trt-fp16", "llama2-7b")
        assert engine.weight_memory_bytes() == pytest.approx(13.5e9, rel=0.1)
        engine4 = ServingEngine("liquidserve", "llama2-7b")
        assert engine4.weight_memory_bytes() < engine.weight_memory_bytes() / 3

    def test_fp16_70b_does_not_fit(self):
        engine = ServingEngine("trt-fp16", "llama2-70b")
        assert engine.max_batch_size(1536) == 0
        assert engine.peak_throughput().oom

    def test_w8a8_mixtral_unsupported(self):
        assert ServingEngine("trt-w8a8", "mixtral-8x7b").peak_throughput().oom

    def test_4bit_weights_allow_larger_batches(self):
        fp16_batch = ServingEngine("trt-fp16", "llama2-13b").max_batch_size(1536)
        w4_batch = ServingEngine("liquidserve", "llama2-13b").max_batch_size(1536)
        assert w4_batch > fp16_batch

    def test_qserve_kv4_allows_larger_batches_than_int8(self):
        int8 = ServingEngine("liquidserve", "llama1-30b").kv_cache_config()
        int4 = ServingEngine("qserve", "llama1-30b").kv_cache_config()
        assert int4.bytes_per_token < int8.bytes_per_token


class TestGpuResolution:
    """``device`` is a GPU name or a ``GpuSpec``; ``get_gpu`` resolves it once, and the
    engine and its backend price everything from that one spec."""

    def test_name_and_spec_resolve_to_the_registered_spec(self):
        for device in ("h800", "H800", H800):
            engine = ServingEngine("liquidserve", "llama2-7b", device=device)
            assert engine.gpu is H800
            assert engine.backend.gpu is H800

    def test_overridden_spec_sets_the_host_link(self):
        slow = H800.with_overrides(host_link_bandwidth=1e9)
        engine = ServingEngine("liquidserve", "llama2-7b", device=slow)
        stock = ServingEngine("liquidserve", "llama2-7b")
        assert engine.gpu is slow
        nbytes = 2**30
        assert engine.kv_transfer_time(nbytes) - stock.kv_transfer_time(nbytes) == (
            pytest.approx(nbytes / 1e9 - nbytes / H800.host_link_bandwidth)
        )

    def test_unknown_gpu_lists_the_known_ones(self):
        with pytest.raises(KeyError, match="known") as excinfo:
            ServingEngine("liquidserve", "llama2-7b", device="B200")
        assert "h800" in str(excinfo.value) and "B200" in str(excinfo.value)


class TestServingEngineTiming:
    def test_breakdown_positive_and_additive(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        bd = engine.layer_breakdown(64, 1024)
        assert bd.gemm > 0 and bd.attention > 0 and bd.others > 0
        assert bd.total == pytest.approx(bd.gemm + bd.attention + bd.others)
        fr = bd.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_gemm_fraction_shrinks_with_batch(self):
        """Figure 4: GEMM dominates at small batch; attention grows with batch and context."""
        engine = ServingEngine("liquidserve", "llama2-7b")
        small = engine.layer_breakdown(4, 1024).fractions()["gemm"]
        large = engine.layer_breakdown(256, 1024).fractions()["gemm"]
        assert small > large
        assert small > 0.5

    def test_decode_step_scales_with_layers(self):
        b7 = ServingEngine("liquidserve", "llama2-7b").decode_step_time(16, 512)
        b13 = ServingEngine("liquidserve", "llama2-13b").decode_step_time(16, 512)
        assert b13 > b7

    def test_moe_gemm_slower_than_dense_equivalent(self):
        dense = ServingEngine("liquidserve", "mistral-7b").layer_gemm_time(64)
        moe = ServingEngine("liquidserve", "mixtral-8x7b").layer_gemm_time(64)
        assert moe > dense  # eight experts' weights stream through memory

    def test_throughput_point_fields(self):
        point = ServingEngine("liquidserve", "llama2-7b").throughput(32)
        assert point.tokens_per_second > 0
        assert point.decode_step_s > 0
        assert point.request_latency_s > point.decode_step_s
        assert point.fits_in_memory

    def test_throughput_fits_uses_peak_residency(self):
        """Regression: fits_in_memory checked input+output tokens while the scheduler's
        admission guard uses peak residency input+output-1 (the last generated token is
        never appended); a batch exactly at capacity was misreported as OOM."""
        engine = ServingEngine("liquidserve", "llama2-7b")
        # Lengths straddling a block boundary: peak residency needs one block fewer than
        # the naive input+output count, so the two capacities differ.
        input_len, output_len = 1024, 513
        at_peak = engine.max_batch_size(input_len + output_len - 1)
        naive = engine.max_batch_size(input_len + output_len)
        assert at_peak > naive
        assert engine.throughput(at_peak, input_len, output_len).fits_in_memory
        assert not engine.throughput(at_peak + 1, input_len, output_len).fits_in_memory

    def test_kv_transfer_time_scales_with_bytes(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        assert engine.kv_transfer_time(0) == 0.0
        one_mb = engine.kv_transfer_time(2**20)
        ten_mb = engine.kv_transfer_time(10 * 2**20)
        assert 0 < one_mb < ten_mb
        # Fixed DMA latency means 10x the bytes costs less than 10x the time.
        assert ten_mb < 10 * one_mb

    def test_recompute_time_grows_with_context(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        assert engine.recompute_time(0) == 0.0
        assert 0 < engine.recompute_time(256) < engine.recompute_time(2048)

    def test_host_swap_budget_reaches_kv_config(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        config = engine.kv_cache_config()
        assert config.host_memory_budget_bytes == engine.system.host_kv_swap_bytes
        assert config.total_host_blocks > 0


class TestOneCostCore:
    """The fixed-batch API is a set of wrappers over ``iteration_time``, the cost core
    the scheduler charges every iteration through, so Table 1, Fig. 11 and a preemption
    policy's recompute estimate are priced by the same function that runs the trace."""

    MODELS = ("llama2-7b", "llama2-70b", "llama3-8b", "mixtral-8x7b")

    def test_decode_step_is_one_decode_iteration(self):
        """1,400 probes: 7 systems x 4 models x TP 1/4 x 5 batch sizes x 5 contexts.  The
        decode iteration equals the Fig. 4/10 per-layer breakdown it is plotted from."""
        probes = 0
        for system in TABLE1_SYSTEMS:
            for model in self.MODELS:
                for tp in (1, 4):
                    engine = ServingEngine(system, model, tp_degree=tp)
                    for batch in (1, 7, 64, 128, 256):
                        for context in (1, 100, 1024, 1536, 4095):
                            step = engine.decode_step_time(batch, context)
                            assert step == engine.iteration_time(
                                batch, batch * context, (), batch
                            )
                            assert step == (
                                engine.layer_breakdown(batch, context).total
                                * engine.model.num_layers
                                + engine.lm_head_time(batch)
                            )
                            probes += 1
        assert probes == 1400

    def test_prefill_and_recompute_are_one_prompt_iteration(self):
        """Prefilling B whole prompts costs what the scheduler charges for B
        prompt-completing chunks at context 0; a recompute is the one-prompt case."""
        for system in TABLE1_SYSTEMS:
            for model in self.MODELS:
                for tp in (1, 4):
                    engine = ServingEngine(system, model, tp_degree=tp)
                    for batch in (1, 8, 64):
                        for prompt in (1, 256, 1024):
                            prefill = engine.prefill_time(batch, prompt)
                            assert prefill == engine.iteration_time(
                                0, 0, [(prompt, 0)] * batch, batch
                            )
                            assert prefill == engine.mixed_step_time(
                                [], [PrefillChunk(prompt, 0, True)] * batch
                            )
                    for tokens in (1, 256, 4096):
                        assert engine.recompute_time(tokens) == engine.prefill_time(1, tokens)

    def test_prefill_runs_under_the_system_gemm_kernel(self):
        """LiquidServe and LiquidServe/wo differ only in the W4A8 GEMM kernel, so the
        kernel must show in the compute-bound prefill, not only in decode."""
        liquid = ServingEngine("liquidserve", "llama2-7b").prefill_time(8, 1024)
        without = ServingEngine("liquidserve-wo", "llama2-7b").prefill_time(8, 1024)
        assert without > liquid

    def test_invalid_shapes_rejected(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        for batch, length in ((0, 16), (4, 0)):
            with pytest.raises(ValueError):
                engine.decode_step_time(batch, length)
            with pytest.raises(ValueError):
                engine.prefill_time(batch, length)


def _reference_layer_gemm_time(engine, m):
    """Per-shape Equation 6: ``gemm_cost(shape).total`` summed over the layer's GEMM
    shapes, each expert's FFN GEMMs added in sequence (a dense model has one expert)."""
    gemms = decode_layer_gemms(engine.model, m, tp_degree=engine.tp_degree)
    spec, params = engine.gpu, engine.backend.gemm_cost_params
    total = 0.0
    for shape in gemms.attention_gemms():
        total += gemm_cost(shape, spec, params).total
    total += sum(gemm_cost(shape, spec, params).total for shape in gemms.gate_up)
    total += sum(gemm_cost(shape, spec, params).total for shape in gemms.down)
    return total


def _reference_lm_head_time(engine, m):
    model = engine.model
    shape = GemmShape(m, model.vocab_size // engine.tp_degree, model.hidden_size)
    return (
        gemm_cost(shape, engine.gpu, engine.backend.reference_cost_params).total
        + engine._logits_gather_time(m)
    )


def _valid_tp_degrees(config, degrees):
    valid = []
    for tp in degrees:
        try:
            config.validate_tp(tp)
        except ValueError:
            continue
        valid.append(tp)
    return valid


class TestClosedFormGemmLines:
    """The engine prices its layer GEMMs and LM head through Equation-6 lines resolved
    once per engine; every token count must cost exactly what per-shape ``gemm_cost``
    gives, and a serving run must never fall back to a per-shape evaluation."""

    @pytest.mark.parametrize("system,model", [
        (system, model)
        for system in list_systems()
        for model in ("llama2-7b", "mixtral-8x7b")
        if get_system(system).supports_moe or not get_model(model).is_moe
    ])
    def test_lines_equal_per_shape_gemm_cost(self, system, model):
        for tp in _valid_tp_degrees(get_model(model), (1, 2, 4, 8)):
            engine = ServingEngine(system, model, tp_degree=tp)
            tile_m = max(engine.backend.gemm_cost_params.tile_m,
                         engine.backend.reference_cost_params.tile_m)
            for m in [*range(1, 2 * tile_m + 2), 1023, 1024, 1025, 4096, 262144]:
                assert engine.layer_gemm_time(m) == _reference_layer_gemm_time(engine, m)
                assert engine.lm_head_time(m) == _reference_lm_head_time(engine, m)

    def test_non_positive_token_count_rejected(self):
        for model in ("llama2-7b", "mixtral-8x7b"):
            engine = ServingEngine("liquidserve", model)
            for m in (0, -1):
                with pytest.raises(ValueError):
                    engine.layer_gemm_time(m)

    @pytest.mark.parametrize("model", ["llama2-7b", "mixtral-8x7b"])
    def test_serving_run_never_calls_gemm_cost(self, model, monkeypatch):
        calls = []
        original = costmodel.gemm_cost

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "gemm_cost", None) is original:
                monkeypatch.setattr(module, "gemm_cost", counting)
        sim = simulate_serving("liquidserve", model, num_requests=40,
                               arrival_rate_rps=20.0, seed=0)
        assert sim.stats.completed_requests == 40
        assert len(calls) == 0
        # The counter is live: a per-shape estimate through the kernel reaches it.
        engine = ServingEngine("liquidserve", model)
        engine.kernel.estimate(GemmShape(1, 64, 64), engine.gpu)
        assert len(calls) == 1


class TestTable1Properties:
    """The qualitative structure of Table 1 that the reproduction must preserve."""

    @pytest.fixture(scope="class")
    def peaks(self):
        out = {}
        for model in ("llama2-7b", "llama2-70b", "yi-34b", "mixtral-8x7b"):
            out[model] = {
                system: ServingEngine(system, model).peak_throughput(
                    batch_sizes=[1, 4, 16, 64, 128, 192, 256]
                )
                for system in TABLE1_SYSTEMS
            }
        return out

    def test_liquidserve_wins_on_every_model(self, peaks):
        for model, row in peaks.items():
            best_other = max(
                r.peak_throughput for name, r in row.items() if name != "liquidserve"
            )
            assert row["liquidserve"].peak_throughput >= best_other, model

    def test_liquidserve_beats_its_own_qserve_kernel_variant(self, peaks):
        """LiquidServe vs LiquidServe/wo isolates the GEMM kernel's contribution."""
        for model, row in peaks.items():
            assert row["liquidserve"].peak_throughput > 1.05 * row["liquidserve-wo"].peak_throughput

    def test_speedup_over_qserve_largest_on_large_or_gqa_models(self, peaks):
        s7 = peaks["llama2-7b"]["liquidserve"].peak_throughput / peaks["llama2-7b"]["qserve"].peak_throughput
        s70 = peaks["llama2-70b"]["liquidserve"].peak_throughput / peaks["llama2-70b"]["qserve"].peak_throughput
        assert s70 > s7 > 1.0

    def test_oom_entries(self, peaks):
        assert peaks["llama2-70b"]["trt-fp16"].oom
        assert peaks["mixtral-8x7b"]["trt-fp16"].oom
        assert peaks["mixtral-8x7b"]["trt-w8a8"].oom

    def test_peak_batch_reported(self, peaks):
        result = peaks["llama2-7b"]["liquidserve"]
        assert result.peak_batch_size >= 128
        assert "(" in result.label


class TestScheduler:
    def test_completes_all_requests(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        scheduler = ContinuousBatchingScheduler(engine, max_batch_size=8)
        requests = [Request(i, prompt_tokens=64, output_tokens=8, arrival_time_s=0.0) for i in range(12)]
        stats = scheduler.run(requests)
        assert stats.completed_requests == 12
        assert stats.generated_tokens == 12 * 8
        assert stats.peak_batch_size <= 8
        assert 0 < stats.peak_kv_utilization <= 1.0
        assert scheduler.kv_cache.num_used_blocks == 0  # everything released

    def test_throughput_positive_and_latency_ordering(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        stats = ContinuousBatchingScheduler(engine, max_batch_size=4).run(
            [Request(i, 32, 4) for i in range(4)]
        )
        assert stats.throughput_tokens_per_s > 0
        assert stats.mean_ttft_s <= stats.mean_latency_s

    def test_oversized_model_raises(self):
        engine = ServingEngine("trt-fp16", "llama2-70b")
        with pytest.raises(Exception):
            ContinuousBatchingScheduler(engine)


class TestBoundedMemoCaches:
    """The engine's step-cost memos must stay bounded (long multi-config sweeps reuse
    one engine) and observable (the cache-stats debug hook), without ever changing
    results — every entry is a pure function of its key."""

    def test_cache_stats_shape_and_growth(self):
        engine = ServingEngine("liquidserve", "llama2-7b")
        stats = engine.cache_stats()
        assert set(stats) == {"step_coeffs"}
        for entry in stats.values():
            assert entry == {"entries": 0, "max_entries": 65536, "evictions": 0}
        engine.iteration_time(4, 4096, (), 4)
        engine.iteration_time(4, 8192, (), 4)  # same shape: the coefficients are reused
        stats = engine.cache_stats()
        assert stats["step_coeffs"]["entries"] == 1
        engine.iteration_time(4, 4096, [(256, 0)], 4)
        engine.iteration_time(4, 4096, [(256, 512)], 4)  # chunk attention is not memoized
        stats = engine.cache_stats()
        assert stats["step_coeffs"]["entries"] == 2

    def test_eviction_bounds_entries_and_preserves_values(self):
        tiny = ServingEngine("liquidserve", "llama2-7b", memo_cache_entries=8)
        reference = ServingEngine("liquidserve", "llama2-7b")
        values = {
            batch: tiny.iteration_time(batch, 100 * batch, (), batch)
            for batch in range(1, 1 + 40)
        }
        stats = tiny.cache_stats()["step_coeffs"]
        assert stats["entries"] <= 8
        assert stats["evictions"] == 40 - 8
        # Re-computing an evicted key gives the identical value: eviction is invisible
        # to results, only to memory.
        for batch, value in values.items():
            assert tiny.iteration_time(batch, 100 * batch, (), batch) == value
            assert reference.iteration_time(batch, 100 * batch, (), batch) == value

    def test_memo_cache_entries_validated(self):
        with pytest.raises(ValueError, match="positive"):
            ServingEngine("liquidserve", "llama2-7b", memo_cache_entries=0)
