"""Numerical-correctness tests for every GEMM kernel (repro.kernels)."""

import numpy as np
import pytest

from repro.kernels import (
    LiquidGemmKernel,
    QServeW4A8Kernel,
    W8A8Kernel,
    available_kernels,
    default_comparison_set,
    get_kernel,
)
from repro.quant import (
    lqq_dequantize_int8_reference,
    qserve_dequantize_int8,
    quantize_activation_per_token,
)

#: Relative Frobenius-error budgets per kernel, reflecting their quantization precision.
ERROR_BUDGETS = {
    "fp16": 0.002,
    "w8a8": 0.03,
    "fp8": 0.08,
    "w4a16": 0.15,
    "qserve-w4a8": 0.15,
    "liquidgemm": 0.15,
}


#: Each INT8 Tensor-Core kernel's ``(INT8 weight codes, per-channel scales)``, taken from its
#: prepared payload through the integer reference dequantization where there is one.
INT8_OPERANDS = {
    "w8a8": lambda p: (p.payload["q_i8"], p.payload["scale_ch"]),
    "qserve-w4a8": lambda p: (qserve_dequantize_int8(p.payload["qserve"]),
                              p.payload["qserve"].scale_ch),
    "liquidgemm": lambda p: (lqq_dequantize_int8_reference(p.payload["lqq"]),
                             p.payload["lqq"].scale_ch),
}


def int64_gemm(x, w_i8, scale_ch):
    """The INT8 GEMM in integer arithmetic: per-token codes, int64 accumulation, epilogue."""
    qa = quantize_activation_per_token(x)
    acc = qa.q_i8.astype(np.int64) @ w_i8.astype(np.int64).T
    return acc.astype(np.float64) * qa.scale_tok * scale_ch.reshape(1, -1)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    w = rng.normal(0.0, 0.02, (256, 512))
    x = rng.normal(0.0, 1.0, (32, 512))
    return x, w, x @ w.T


class TestAllKernelsNumerics:
    @pytest.mark.parametrize("name", sorted(ERROR_BUDGETS))
    def test_output_close_to_reference(self, problem, name):
        x, w, reference = problem
        kernel = get_kernel(name)
        prepared = kernel.prepare_weights(w)
        y = kernel.run(x, prepared)
        assert y.shape == reference.shape
        rel = np.linalg.norm(y - reference) / np.linalg.norm(reference)
        assert rel < ERROR_BUDGETS[name], f"{name}: rel error {rel:.4f}"

    @pytest.mark.parametrize("name", sorted(ERROR_BUDGETS))
    def test_deterministic(self, problem, name):
        x, w, _ = problem
        kernel = get_kernel(name)
        prepared = kernel.prepare_weights(w)
        assert np.array_equal(kernel.run(x, prepared), kernel.run(x, prepared))

    @pytest.mark.parametrize("name", ["liquidgemm", "qserve-w4a8", "w4a16"])
    def test_4bit_kernels_compress_4x(self, problem, name):
        _, w, _ = problem
        prepared = get_kernel(name).prepare_weights(w)
        assert prepared.compression_ratio() > 3.5

    def test_w8a8_compresses_2x(self, problem):
        _, w, _ = problem
        assert W8A8Kernel().prepare_weights(w).compression_ratio() > 1.9

    def test_registry_contains_all_paper_kernels(self):
        names = available_kernels()
        for expected in ("fp16", "w8a8", "fp8", "w4a16", "qserve-w4a8", "liquidgemm"):
            assert expected in names

    def test_registry_unknown(self):
        with pytest.raises(KeyError):
            get_kernel("int2")

    def test_comparison_set_is_figure12_set(self):
        assert set(default_comparison_set()) == {
            "fp16", "w8a8", "fp8", "w4a16", "qserve-w4a8", "liquidgemm"
        }


class TestLiquidGemmSpecifics:
    def test_group_size_must_be_multiple_of_32(self):
        with pytest.raises(ValueError):
            LiquidGemmKernel(group_size=48)

    def test_register_tile_path_bit_exact(self, problem):
        """The emulated IMAD/XOR register path on the packed layout must agree bit-for-bit
        with the vectorized Equation-12 dequantization (the core kernel-correctness claim)."""
        _, w, _ = problem
        kernel = LiquidGemmKernel()
        prepared = kernel.prepare_weights(w)
        for tile_row, tile_col in [(0, 0), (1, 3), (3, 7)]:
            register_path, reference = kernel.verify_tile_path(prepared, tile_row, tile_col)
            assert np.array_equal(register_path, reference)

    def test_register_tile_path_instruction_count(self, problem):
        from repro.isa import InstructionStats

        _, w, _ = problem
        kernel = LiquidGemmKernel()
        prepared = kernel.prepare_weights(w)
        stats = InstructionStats()
        kernel.verify_tile_path(prepared, 0, 0, stats=stats)
        # One 7-instruction sequence per distinct (scale, offset) of a lane's 4 registers:
        # its two rows each hold one 64-column group here, so 128 lanes x 2 x 7.
        assert stats.total_instructions == 1792
        assert stats.count("imad.u32") == stats.count("xor.b32") == 128 * 2 * 2

    def test_more_accurate_than_or_equal_to_qserve(self, problem):
        x, w, reference = problem
        liquid = LiquidGemmKernel()
        qserve = QServeW4A8Kernel()
        err_liquid = np.linalg.norm(liquid.run(x, liquid.prepare_weights(w)) - reference)
        err_qserve = np.linalg.norm(qserve.run(x, qserve.prepare_weights(w)) - reference)
        assert err_liquid <= err_qserve * 1.1

    def test_ragged_shapes_supported(self, rng):
        """N and K need not be multiples of the tile size for the numeric path."""
        w = rng.normal(0, 0.02, (100, 192))
        x = rng.normal(0, 1.0, (5, 192))
        kernel = LiquidGemmKernel()
        y = kernel.run(x, kernel.prepare_weights(w))
        rel = np.linalg.norm(y - x @ w.T) / np.linalg.norm(x @ w.T)
        assert rel < 0.2


class TestInt8Accumulation:
    @pytest.mark.parametrize("name", sorted(INT8_OPERANDS))
    def test_bit_identical_to_int64_formula(self, problem, name):
        x, w, _ = problem
        kernel = get_kernel(name)
        prepared = kernel.prepare_weights(w)
        assert_same_bits(kernel.run(x, prepared),
                         int64_gemm(x, *INT8_OPERANDS[name](prepared)))

    def test_float64_accumulation_exact_beyond_float32(self):
        """One-signed codes at K = 4096 drive |acc| to ~5.4e7, past 2**24: float32 loses
        integers there, the float64 accumulation must not."""
        rng = np.random.default_rng(11)
        k = 4096
        w = 1.0 + 0.1 * rng.random((64, k))
        x = 1.0 + 0.2 * rng.random((8, k))
        kernel = LiquidGemmKernel()
        prepared = kernel.prepare_weights(w)
        w_i8, scale_ch = INT8_OPERANDS["liquidgemm"](prepared)
        codes = quantize_activation_per_token(x).q_i8
        acc = codes.astype(np.int64) @ w_i8.astype(np.int64).T
        assert acc.min() > 2**24
        acc_f32 = codes.astype(np.float32) @ w_i8.astype(np.float32).T
        assert not np.array_equal(acc_f32.astype(np.int64), acc)
        assert_same_bits(kernel.run(x, prepared), int64_gemm(x, w_i8, scale_ch))

    def test_k_beyond_int32_accumulator_rejected(self):
        k = 132_160  # the smallest multiple of 64 with K * 127 * 128 >= 2**31
        assert (k - 64) * 127 * 128 < 2**31 <= k * 127 * 128
        kernel = LiquidGemmKernel()
        fits = kernel.prepare_weights(np.ones((1, k - 64)))
        assert kernel.run(np.ones((1, k - 64)), fits).shape == (1, 1)
        with pytest.raises(ValueError, match="INT32"):
            kernel.run(np.ones((1, k)), kernel.prepare_weights(np.ones((1, k))))
