"""Tests for the top-level API plus cross-module integration scenarios."""

import numpy as np
import pytest

from repro import (
    LiquidGemmKernel,
    compare_kernels,
    quantize_weights,
    w4a8_gemm,
)
from repro.quant import (
    lqq_quantize,
    quantize_activation_per_token,
    smooth_and_quantize,
)
from repro.serving import ServingEngine


class TestPublicApi:
    def test_quantize_weights_prepared(self, medium_weight):
        prepared = quantize_weights(medium_weight)
        assert prepared.kernel == "liquidgemm"
        assert prepared.compression_ratio() > 3.5
        assert "lqq" in prepared.payload and "packed" in prepared.payload

    def test_w4a8_gemm_from_matrix(self, rng):
        w = rng.normal(0, 0.02, (128, 256))
        x = rng.normal(0, 1.0, (8, 256))
        result = w4a8_gemm(x, w)
        assert result.output.shape == (8, 128)
        assert result.error["relative_fro"] < 0.15
        assert result.report.latency_s > 0

    def test_w4a8_gemm_from_prepared(self, rng):
        w = rng.normal(0, 0.02, (128, 256))
        prepared = quantize_weights(w)
        x = rng.normal(0, 1.0, (4, 256))
        a = w4a8_gemm(x, prepared)
        b = w4a8_gemm(x, w)
        assert np.allclose(a.output, b.output)

    def test_compare_kernels_default_set(self):
        reports = compare_kernels(64, 4096, 4096)
        assert set(reports) == {"fp16", "w8a8", "fp8", "w4a16", "qserve-w4a8", "liquidgemm"}
        assert all(r.latency_s > 0 for r in reports.values())

    def test_compare_kernels_subset(self):
        reports = compare_kernels(16, 1024, 1024, kernels=["fp16", "liquidgemm"])
        assert set(reports) == {"fp16", "liquidgemm"}

    def test_version_exported(self):
        import repro

        assert repro.__version__


class TestSmoothQuantToLiquidGemmIntegration:
    def test_smoothing_then_lqq_then_gemm(self, rng):
        """Full offline pipeline of Section 6: SmoothQuant grid search -> LQQ -> W4A8 GEMM."""
        k = 128
        w = rng.normal(0, 0.02, (64, k))
        x_calib = rng.normal(0, 1.0, (32, k))
        outliers = rng.choice(k, 3, replace=False)
        x_calib[:, outliers] *= 20.0

        qw, smooth = smooth_and_quantize(x_calib, w, lqq_quantize, alphas=[0.4, 0.6])
        kernel = LiquidGemmKernel()
        x = rng.normal(0, 1.0, (8, k))
        x[:, outliers] *= 20.0

        # Apply the smoothing to the activations and run the W4A8 GEMM on the smoothed weights.
        from repro.kernels import PreparedWeights
        from repro.layout import pack_weight_matrix

        prepared = PreparedWeights(
            kernel=kernel.name,
            original=w * smooth.smooth_scale[None, :],
            payload={"lqq": qw, "packed": pack_weight_matrix(qw.q_u4)},
            deployed_bytes=qw.memory_bytes(),
        )
        y = kernel.run(x / smooth.smooth_scale[None, :], prepared)
        reference = x @ w.T
        rel = np.linalg.norm(y - reference) / np.linalg.norm(reference)
        assert rel < 0.2

    def test_activation_quantization_consistent_with_kernel(self, rng):
        x = rng.normal(0, 1.0, (8, 64))
        qa = quantize_activation_per_token(x)
        assert np.max(np.abs(qa.q_i8.astype(np.float64) * qa.scale_tok - x)) < qa.scale_tok.max()


class TestKernelToServingIntegration:
    def test_engine_uses_registered_kernel_latencies(self):
        """The serving engine's per-layer GEMM time must equal the sum of the kernel's own
        estimates over the layer shapes — no hidden scaling."""
        from repro.workloads import decode_layer_gemms

        engine = ServingEngine("liquidserve", "llama2-7b")
        gemms = decode_layer_gemms(engine.model, 64)
        expected = sum(
            engine.kernel.estimate(s, engine.gpu).latency_s for s in gemms.all()
        )
        assert engine.layer_gemm_time(64) == pytest.approx(expected, rel=1e-6)

    def test_faster_kernel_means_higher_throughput(self):
        liquid = ServingEngine("liquidserve", "llama2-70b").throughput(64)
        slow = ServingEngine("liquidserve-wo", "llama2-70b").throughput(64)
        assert liquid.tokens_per_second > slow.tokens_per_second

    def test_gemm_speedup_propagates_proportionally_at_small_batch(self):
        """At small batch the step is GEMM-dominated, so kernel gains show up end to end."""
        engine_fast = ServingEngine("liquidserve", "llama2-7b")
        engine_slow = ServingEngine("liquidserve-wo", "llama2-7b")
        fast = engine_fast.decode_step_time(4, 128)
        slow = engine_slow.decode_step_time(4, 128)
        assert slow / fast > 1.0

    def test_end_to_end_numeric_layer(self, rng):
        """Numerically execute one decode layer's GEMMs with the LiquidGEMM kernel."""
        from repro.workloads import decode_layer_gemms
        from repro.serving import get_model

        model = get_model("llama2-7b")
        gemms = decode_layer_gemms(model, 2)
        kernel = LiquidGemmKernel()
        hidden = rng.normal(0, 1.0, (2, model.hidden_size))
        w_qkv = rng.normal(0, 0.02, (gemms.qkv.n, gemms.qkv.k))
        y = kernel.run(hidden, kernel.prepare_weights(w_qkv))
        reference = hidden @ w_qkv.T
        assert np.linalg.norm(y - reference) / np.linalg.norm(reference) < 0.15
