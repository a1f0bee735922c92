"""Tests for activation quantization and KV-cache formats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    dequantize_activation,
    dequantize_kv,
    fp8_e4m3_round,
    kv_bytes_per_element,
    quantize_activation_per_token,
    quantize_kv,
)


def float64_per_token(x):
    """Per-token quantization as float64 formulas on fresh temporaries (``|x|`` row
    maximum, ``np.round``, ``np.clip``): the reference the in-place implementation must
    reproduce bit for bit."""
    amax = np.abs(x).max(axis=1, keepdims=True)
    scale = np.maximum(amax / 127.0, np.finfo(np.float64).tiny)
    return np.clip(np.round(x / scale), -127, 127).astype(np.int8), scale


@st.composite
def activation_rows(draw):
    """Activations whose rows are arbitrary (subnormals included), all zero (signed zeros
    mixed), all negative, or built so that ``x / scale`` lands on exact .5 ties."""
    k = draw(st.integers(1, 48))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "zero", "negative", "ties"]))
        if kind == "zero":
            row = np.where(draw(hnp.arrays(np.bool_, k)), -0.0, 0.0)
        elif kind == "negative":
            row = -draw(hnp.arrays(np.float64, k, elements=st.floats(1e-300, 1e300)))
        elif kind == "ties":
            # A row maximum of 127 * 2**e makes the scale exactly 2**e.
            step = 2.0 ** draw(st.integers(-40, 40))
            halves = draw(hnp.arrays(np.int64, k, elements=st.integers(-127, 126)))
            row = (halves + 0.5) * step
            row[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-127, 127])) * step
        else:
            row = draw(hnp.arrays(np.float64, k, elements=st.floats(
                -1e300, 1e300, allow_nan=False, allow_subnormal=True)))
        rows.append(row)
    return np.stack(rows)


class TestActivationQuantization:
    @given(activation_rows())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_float64_formula(self, x):
        qa = quantize_activation_per_token(x)
        codes, scale = float64_per_token(x)
        assert qa.q_i8.dtype == np.int8 and qa.q_i8.tobytes() == codes.tobytes()
        assert qa.scale_tok.tobytes() == scale.tobytes()

    def test_codes_symmetric_int8(self, rng):
        x = rng.normal(0, 3.0, (8, 64))
        qa = quantize_activation_per_token(x)
        assert qa.q_i8.dtype == np.int8
        assert qa.q_i8.min() >= -127 and qa.q_i8.max() <= 127
        assert qa.scale_tok.shape == (8, 1)

    def test_roundtrip_error(self, rng):
        x = rng.normal(0, 3.0, (8, 64))
        qa = quantize_activation_per_token(x)
        x_hat = dequantize_activation(qa)
        assert np.max(np.abs(x - x_hat)) <= qa.scale_tok.max() / 2 + 1e-12

    def test_per_token_scales_independent(self):
        x = np.vstack([np.full(16, 1.0), np.full(16, 100.0)])
        qa = quantize_activation_per_token(x)
        assert qa.scale_tok[1, 0] == pytest.approx(100 * qa.scale_tok[0, 0], rel=1e-6)

    def test_smooth_scale_division(self, rng):
        x = rng.normal(0, 1.0, (4, 16))
        smooth = np.full(16, 2.0)
        qa = quantize_activation_per_token(x, smooth_scale=smooth)
        x_hat = dequantize_activation(qa)
        assert np.allclose(x_hat * 2.0, x, atol=qa.scale_tok.max() * 2.1)

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            quantize_activation_per_token(rng.normal(size=(16,)))

    def test_smooth_scale_shape_check(self, rng):
        with pytest.raises(ValueError):
            quantize_activation_per_token(rng.normal(size=(4, 16)), smooth_scale=np.ones(8))

    def test_memory_bytes(self, rng):
        qa = quantize_activation_per_token(rng.normal(size=(4, 16)))
        assert qa.memory_bytes() == 4 * 16 + 4 * 2


class TestFp8Rounding:
    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, 0.5, 448.0, -448.0, 2.25])
    def test_representable_values_preserved(self, value):
        assert fp8_e4m3_round(np.array([value]))[0] == pytest.approx(value)

    def test_saturation(self):
        assert fp8_e4m3_round(np.array([1e6]))[0] == pytest.approx(448.0)
        assert fp8_e4m3_round(np.array([-1e6]))[0] == pytest.approx(-448.0)

    @given(st.floats(min_value=-400, max_value=400, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_relative_error_bound(self, value):
        rounded = float(fp8_e4m3_round(np.array([value]))[0])
        if abs(value) < 2**-6:
            assert abs(rounded - value) <= 2**-9 + 1e-12  # subnormal quantum
        else:
            assert abs(rounded - value) <= abs(value) * (2**-3) / 2 * 1.001 + 1e-12

    def test_2d_input(self, rng):
        x = rng.normal(0, 10, (4, 4))
        assert fp8_e4m3_round(x).shape == (4, 4)


class TestKvCacheQuantization:
    def test_bytes_per_element(self):
        assert kv_bytes_per_element("fp16") == 2.0
        assert kv_bytes_per_element("fp8") == 1.0
        assert kv_bytes_per_element("int8") == 1.0
        assert kv_bytes_per_element("int4") == 0.5
        with pytest.raises(KeyError):
            kv_bytes_per_element("int2")

    @pytest.mark.parametrize("fmt, tolerance", [("fp16", 1e-3), ("fp8", 0.07), ("int8", 0.02), ("int4", 0.2)])
    def test_roundtrip_error_by_format(self, rng, fmt, tolerance):
        kv = rng.normal(0, 1.0, (64, 32))
        cache = quantize_kv(kv, fmt)
        kv_hat = dequantize_kv(cache)
        rel = np.linalg.norm(kv - kv_hat) / np.linalg.norm(kv)
        assert rel < tolerance

    def test_static_scale_reused(self, rng):
        kv = rng.normal(0, 1.0, (16, 8))
        static = np.full(8, 0.05)
        cache = quantize_kv(kv, "int8", scale=static)
        assert np.array_equal(cache.scale, static)

    def test_static_scale_shape_check(self, rng):
        with pytest.raises(ValueError):
            quantize_kv(rng.normal(size=(16, 8)), "int8", scale=np.ones(4))

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            quantize_kv(rng.normal(size=(16,)), "int8")

    def test_unknown_format(self, rng):
        with pytest.raises(KeyError):
            quantize_kv(rng.normal(size=(4, 4)), "int3")

    def test_int_codes_are_int8(self, rng):
        cache = quantize_kv(rng.normal(size=(8, 8)), "int4")
        assert cache.codes.dtype == np.int8
        assert cache.codes.min() >= -7 and cache.codes.max() <= 7
