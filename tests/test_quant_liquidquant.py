"""Tests for LiquidQuant (repro.quant.liquidquant) — including the Section 4 overflow proof."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    MAX_SECOND_LEVEL_SCALE,
    SECOND_LEVEL_CODES,
    LqqConfig,
    first_level_quantize,
    lqq_dequantize_fp,
    lqq_dequantize_int8,
    lqq_dequantize_int8_reference,
    lqq_quantize,
    quantization_error,
    second_level_quantize,
)


def float64_two_level(w, group_size=64):
    """LQQ's two levels as float64 formulas on whole-weight temporaries: the reference the
    integer-dtype, row-blocked implementation must reproduce bit for bit."""
    amax = np.abs(w).max(axis=1, keepdims=True)
    scale_ch = np.maximum(amax / 119, np.finfo(np.float64).tiny)
    q_i8 = np.clip(np.round(w / scale_ch), -119, 119).astype(np.int16)
    return (q_i8, scale_ch) + float64_second_level(q_i8, group_size)


def float64_second_level(q_i8, group_size):
    n = q_i8.shape[0]
    grouped = q_i8.astype(np.int32).reshape(n, -1, group_size)
    min_i8 = grouped.min(axis=2)
    q_u8 = grouped - min_i8[:, :, None]
    scale_u8 = np.clip(np.round(q_u8.max(axis=2) / 15), 1, 16).astype(np.int32)
    q_u4 = np.clip(np.round(q_u8 / scale_u8[:, :, None]), 0, 15).astype(np.uint8)
    return (q_u4.reshape(n, -1), scale_u8, (128 + min_i8).astype(np.uint8),
            min_i8.astype(np.int16))


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def weight_rows(draw):
    """Weights of 32 to 96 columns whose rows are arbitrary, all zero (signed zeros mixed),
    all negative, or built so that ``w / scale_ch`` lands on exact .5 ties."""
    k = 32 * draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["any", "zero", "negative", "ties"]))
        if kind == "zero":
            row = np.where(draw(hnp.arrays(np.bool_, k)), -0.0, 0.0)
        elif kind == "negative":
            row = -draw(hnp.arrays(np.float64, k, elements=st.floats(1e-6, 1e6)))
        elif kind == "ties":
            step = 2.0 ** draw(st.integers(-30, 30))
            halves = draw(hnp.arrays(np.int64, k, elements=st.integers(-119, 118)))
            row = (halves + 0.5) * step
            row[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-119, 119])) * step
        else:
            row = draw(hnp.arrays(np.float64, k, elements=st.floats(
                -1e6, 1e6, allow_nan=False, allow_subnormal=True)))
        rows.append(row)
    return np.stack(rows)


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

    @given(weight_rows())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_float64_formula(self, w):
        assert_same_arrays(first_level_quantize(w), float64_two_level(w, group_size=32)[:2])


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

    def test_rounding_table_is_np_round_over_every_code_and_scale(self):
        """Exhaustive oracle: for every scale in [1, 16] and every shifted code in
        [0, 255] (the protective range reaches 238), the lookup equals
        ``np.round(Q_u8 / s_u8)`` clipped to UINT4, and exact rational round-half-to-even
        agrees with both."""
        q_u8 = np.arange(256)
        for s_u8 in range(1, MAX_SECOND_LEVEL_SCALE + 1):
            table = SECOND_LEVEL_CODES[s_u8]
            assert np.array_equal(table, np.clip(np.round(q_u8 / s_u8), 0, 15))
            assert table.tolist() == [min(round(Fraction(q, s_u8)), 15) for q in range(256)]

    def test_every_reachable_code_and_scale_matches_float_formula(self):
        """One group per span ``max - min`` in [0, 255], each holding every shifted code
        up to its span: all (Q_u8, s_u8) pairs full-range INT8 codes can produce."""
        spans = np.arange(256)[:, None]
        q_i8 = (-128 + np.minimum(np.arange(256)[None, :], spans)).reshape(1, -1)
        got = second_level_quantize(q_i8.astype(np.int16), 256)
        assert sorted(set(got[1].ravel().tolist())) == list(range(1, 17))
        assert_same_arrays(got, float64_second_level(q_i8, 256))

    @given(hnp.arrays(np.int16, st.tuples(st.integers(1, 6), st.sampled_from([32, 64, 96])),
                      elements=st.integers(-128, 127)))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_float64_formula(self, q_i8):
        assert_same_arrays(second_level_quantize(q_i8, 32), float64_second_level(q_i8, 32))

    @pytest.mark.parametrize("bad", [-129, 128, 300])
    def test_codes_outside_int8_rejected(self, bad):
        q_i8 = np.zeros((2, 64), dtype=np.int16)
        q_i8[1, 5] = bad
        with pytest.raises(ValueError, match="INT8"):
            second_level_quantize(q_i8, 64)

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

    @given(weight_rows())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_float64_formula(self, w):
        qw = lqq_quantize(w, LqqConfig(group_size=32))
        expected = float64_two_level(w, group_size=32)
        assert_same_arrays((qw.scale_ch, qw.q_u4, qw.scale_u8, qw.offset_a, qw.min_i8),
                           expected[1:])

    def test_row_blocks_match_whole_weight_formula(self, rng):
        """4,100 rows of K = 64 span several row blocks and a ragged tail."""
        w = rng.normal(0.0, 0.02, (4100, 64))
        qw = lqq_quantize(w)
        assert_same_arrays((qw.scale_ch, qw.q_u4, qw.scale_u8, qw.offset_a, qw.min_i8),
                           float64_two_level(w)[1:])

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
        # Values that a 16-bit dtype would wrap to valid ones: 2**16 + 1 to a scale of 1,
        # 2**16 + 9 to an offset of 9.
        qw = lqq_quantize(small_weight)
        qw.scale_u8[...] = 2**16 + 1
        with pytest.raises(AssertionError, match="escaped INT8"):
            lqq_dequantize_int8_reference(qw)
        with pytest.raises(AssertionError, match="exceeded 240"):
            lqq_dequantize_int8(qw)
        qw = lqq_quantize(small_weight)
        qw.offset_a = np.full(qw.offset_a.shape, 2**16 + 9)
        with pytest.raises(AssertionError, match="exceeded UINT8"):
            lqq_dequantize_int8(qw)

    def test_loose_group_bound_falls_back_to_the_exact_check(self, small_weight):
        """A scale of 20 breaks the fast bound (largest code 15 x 20 > 240), but the
        group's own codes stay at or below 10: every product is at most 200 and every
        byte at most 250, so nothing overflows and the result equals Equation 8."""
        qw = lqq_quantize(small_weight)
        np.minimum(qw.q_u4[0, :64], 10, out=qw.q_u4[0, :64])
        qw.scale_u8[0, 0], qw.offset_a[0, 0], qw.min_i8[0, 0] = 20, 50, 50 - 128
        assert qw.q_u4.max() == 15
        assert np.array_equal(lqq_dequantize_int8(qw), lqq_dequantize_int8_reference(qw))

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
