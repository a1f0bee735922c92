"""Tests for LiquidQuant (repro.quant.liquidquant) — including the Section 4 overflow proof."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    MAX_SECOND_LEVEL_SCALE,
    LqqConfig,
    first_level_quantize,
    lqq_dequantize_fp,
    lqq_dequantize_int8,
    lqq_dequantize_int8_reference,
    lqq_quantize,
    quantization_error,
    second_level_quantize,
)


class TestLqqConfig:
    def test_defaults(self):
        cfg = LqqConfig()
        assert cfg.group_size == 64 and cfg.protective_bound == 119

    def test_validation(self):
        with pytest.raises(ValueError):
            LqqConfig(group_size=0)
        with pytest.raises(ValueError):
            LqqConfig(protective_bound=200)


class TestFirstLevel:
    def test_protective_range(self, rng):
        w = rng.normal(0, 1.0, (16, 64))
        q, scale = first_level_quantize(w)
        assert q.min() >= -119 and q.max() <= 119
        assert scale.shape == (16, 1)

    def test_extreme_values_hit_bound(self):
        w = np.array([[1.0, -1.0, 0.5, -0.5]])
        q, scale = first_level_quantize(w)
        assert q.max() == 119 and q.min() == -119

    def test_reconstruction(self, rng):
        w = rng.normal(0, 0.1, (8, 32))
        q, scale = first_level_quantize(w)
        w_hat = q * scale
        step = scale.max()
        assert np.max(np.abs(w - w_hat)) <= step / 2 + 1e-12

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            first_level_quantize(rng.normal(size=(8,)))


class TestSecondLevel:
    def test_scale_bound(self, rng):
        """Section 4: the second-level scale can never exceed 16."""
        q_i8 = rng.integers(-119, 120, (32, 128)).astype(np.int16)
        _, scale_u8, _, _ = second_level_quantize(q_i8, 64)
        assert scale_u8.min() >= 1 and scale_u8.max() <= MAX_SECOND_LEVEL_SCALE

    def test_worst_case_range_gives_scale_16(self):
        q_i8 = np.array([[-119] + [119] * 63], dtype=np.int16)
        _, scale_u8, _, _ = second_level_quantize(q_i8, 64)
        assert scale_u8[0, 0] == 16

    def test_offset_in_uint8(self, rng):
        q_i8 = rng.integers(-119, 120, (16, 64)).astype(np.int16)
        _, _, offset_a, min_i8 = second_level_quantize(q_i8, 64)
        assert offset_a.min() >= 0 and offset_a.max() <= 255
        assert np.array_equal(offset_a.astype(np.int32), 128 + min_i8.astype(np.int32))

    def test_codes_in_uint4(self, rng):
        q_i8 = rng.integers(-119, 120, (16, 64)).astype(np.int16)
        q_u4, _, _, _ = second_level_quantize(q_i8, 64)
        assert q_u4.min() >= 0 and q_u4.max() <= 15

    def test_paper_example(self):
        """The worked example of Section 4: max=119, min=-104 gives s=15."""
        group = np.full(64, -104, dtype=np.int16)
        group[0] = 119
        _, scale_u8, offset_a, min_i8 = second_level_quantize(group[None, :], 64)
        assert scale_u8[0, 0] == 15
        assert min_i8[0, 0] == -104
        assert offset_a[0, 0] == 128 - 104


class TestLqqQuantize:
    def test_shapes(self, small_weight):
        qw = lqq_quantize(small_weight)
        n, k = small_weight.shape
        assert qw.q_u4.shape == (n, k)
        assert qw.scale_u8.shape == (n, k // 64)
        assert qw.offset_a.shape == (n, k // 64)
        assert qw.num_groups == k // 64

    def test_group_size_must_divide_k(self, rng):
        with pytest.raises(ValueError):
            lqq_quantize(rng.normal(size=(8, 100)))

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            lqq_quantize(rng.normal(size=(64,)))

    def test_memory_bytes_close_to_half_byte_per_element(self, medium_weight):
        qw = lqq_quantize(medium_weight)
        bytes_per_elem = qw.memory_bytes() / medium_weight.size
        assert 0.5 <= bytes_per_elem < 0.56

    def test_deterministic(self, small_weight):
        a = lqq_quantize(small_weight)
        b = lqq_quantize(small_weight)
        assert np.array_equal(a.q_u4, b.q_u4)
        assert np.array_equal(a.scale_u8, b.scale_u8)


class TestLqqDequantize:
    def test_equation12_matches_reference(self, small_weight):
        """The hardware form (IMAD + XOR in UINT8) equals the plain Equation-8 reference."""
        qw = lqq_quantize(small_weight)
        assert np.array_equal(lqq_dequantize_int8(qw), lqq_dequantize_int8_reference(qw))

    def test_roundtrip_error_bounded_by_two_level_step(self, small_weight):
        qw = lqq_quantize(small_weight)
        w_hat = lqq_dequantize_fp(qw)
        # Worst-case error: first-level step/2 plus second-level step (s_u8 <= 16) / 2 channels.
        bound = (0.5 + MAX_SECOND_LEVEL_SCALE / 2.0) * qw.scale_ch
        assert np.all(np.abs(small_weight - w_hat) <= np.broadcast_to(bound, small_weight.shape) + 1e-12)

    def test_relative_error_reasonable(self, medium_weight):
        err = quantization_error(medium_weight, lqq_dequantize_fp(lqq_quantize(medium_weight)))
        assert err["relative_fro"] < 0.15

    def test_overflow_check_can_be_disabled(self, small_weight):
        qw = lqq_quantize(small_weight)
        a = lqq_dequantize_int8(qw, check_overflow=False)
        b = lqq_dequantize_int8(qw, check_overflow=True)
        assert np.array_equal(a, b)

    def test_runtime_checks_catch_parameters_tampered_after_validation(self, small_weight):
        qw = lqq_quantize(small_weight)
        qw.scale_u8[...] = 100
        with pytest.raises(AssertionError, match="exceeded 240"):
            lqq_dequantize_int8(qw)
        qw = lqq_quantize(small_weight)
        qw.offset_a[...] = 255
        with pytest.raises(AssertionError, match="exceeded UINT8"):
            lqq_dequantize_int8(qw)

    def test_tampered_scale_raises(self, small_weight):
        """If the Section-4 invariants are violated the checked path must catch it."""
        qw = lqq_quantize(small_weight)
        with pytest.raises(ValueError):
            type(qw)(
                q_u4=qw.q_u4,
                scale_u8=qw.scale_u8 + 20,  # >16 violates the proof precondition
                offset_a=qw.offset_a,
                min_i8=qw.min_i8,
                scale_ch=qw.scale_ch,
                config=qw.config,
                original_shape=qw.original_shape,
            )


class TestOverflowProperty:
    """Property-based re-statement of the Section 4 proof: for *any* weight tensor the
    intermediate ``Q_u4 * s_u8 + a`` stays within UINT8 and the final bytes reinterpret to the
    correct INT8 values."""

    @given(
        hnp.arrays(
            np.float64,
            shape=st.tuples(st.integers(1, 8), st.sampled_from([32, 64, 128])),
            elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        ),
        st.sampled_from([32, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_overflow_for_any_tensor(self, w, group_size):
        if w.shape[1] % group_size != 0:
            group_size = 32
        qw = lqq_quantize(w, LqqConfig(group_size=group_size))
        grouped_scale = np.repeat(qw.scale_u8.astype(np.int64), group_size, axis=1)
        grouped_offset = np.repeat(qw.offset_a.astype(np.int64), group_size, axis=1)
        product = qw.q_u4.astype(np.int64) * grouped_scale
        assert product.max(initial=0) <= 240
        assert (product + grouped_offset).max(initial=0) <= 255
        # And the dequantized INT8 values agree with the reference path.
        assert np.array_equal(lqq_dequantize_int8(qw), lqq_dequantize_int8_reference(qw))

    @given(
        st.integers(min_value=-119, max_value=119),
        st.integers(min_value=-119, max_value=119),
    )
    @settings(max_examples=100, deadline=None)
    def test_degenerate_groups(self, lo, hi):
        """Groups with only two distinct values (any ordering) never overflow."""
        group = np.array([lo, hi] * 16, dtype=np.float64)[None, :]
        qw = lqq_quantize(group, LqqConfig(group_size=32))
        assert np.array_equal(lqq_dequantize_int8(qw), lqq_dequantize_int8_reference(qw))
