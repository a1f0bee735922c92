"""Tests for the WGMMA fragment map, conventional layout analysis and dual-MMA packed layout."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.layout import (
    DUAL_MMA_TILE_COLS,
    DUAL_MMA_TILE_ROWS,
    FRAGMENT_COLS,
    FRAGMENT_ROWS,
    analyze_conventional_loads,
    analyze_dual_mma_loads,
    analyze_packed_2d_lds128,
    dual_mma_element_order,
    fragment_ownership_map,
    ldmatrix_misrouting,
    pack_dual_mma_tile,
    pack_u4_interleaved,
    pack_weight_matrix,
    thread_fragment_elements,
    thread_registers,
    unpack_dual_mma_tile,
)


class TestFragmentMap:
    def test_each_thread_owns_16_elements(self):
        for warp in range(4):
            for thread in range(32):
                elements = thread_fragment_elements(warp, thread)
                assert len(elements) == 16
                assert len(set(elements)) == 16

    def test_elements_within_fragment(self):
        for warp in range(4):
            for thread in range(0, 32, 7):
                for row, col in thread_fragment_elements(warp, thread):
                    assert 0 <= row < FRAGMENT_ROWS
                    assert 0 <= col < FRAGMENT_COLS

    def test_ownership_is_a_partition(self):
        owner = fragment_ownership_map()
        assert owner.shape == (FRAGMENT_ROWS, FRAGMENT_COLS)
        assert owner.min() >= 0
        counts = np.bincount(owner.reshape(-1), minlength=128)
        assert np.all(counts == 16)

    def test_groups_of_four_contiguous_columns(self):
        for warp in range(4):
            for thread in range(32):
                elements = thread_fragment_elements(warp, thread)
                for g in range(4):
                    group = elements[4 * g : 4 * g + 4]
                    rows = {r for r, _ in group}
                    cols = [c for _, c in group]
                    assert len(rows) == 1
                    assert cols == list(range(cols[0], cols[0] + 4))

    def test_invalid_ids(self):
        with pytest.raises(ValueError):
            thread_fragment_elements(4, 0)
        with pytest.raises(ValueError):
            thread_fragment_elements(0, 32)


class TestConventionalLayout:
    def test_lds32_wastes_half_bandwidth(self):
        analysis = analyze_conventional_loads()
        assert analysis.instruction == "LDS.32"
        assert analysis.bandwidth_utilization == pytest.approx(0.5)
        assert analysis.loads_per_thread == 8          # 4 groups x 2 MMAs
        assert analysis.address_ops_per_thread == 8

    def test_ldmatrix_misroutes_half_the_elements(self):
        result = ldmatrix_misrouting()
        assert result["fraction_misrouted"] == pytest.approx(0.5)

    def test_effective_load_cost_accounts_for_conflicts(self):
        analysis = analyze_conventional_loads()
        assert analysis.effective_load_cost >= analysis.loads_per_thread


class TestDualMmaLayout:
    def test_pack_unpack_bijection(self, rng):
        tile = rng.integers(0, 16, (DUAL_MMA_TILE_ROWS, DUAL_MMA_TILE_COLS)).astype(np.uint8)
        assert np.array_equal(unpack_dual_mma_tile(pack_dual_mma_tile(tile)), tile)

    @given(hnp.arrays(np.uint8, shape=(64, 64), elements=st.integers(0, 15)))
    @settings(max_examples=10, deadline=None)
    def test_pack_unpack_bijection_property(self, tile):
        assert np.array_equal(unpack_dual_mma_tile(pack_dual_mma_tile(tile)), tile)

    def test_element_order_covers_tile(self):
        seen = set()
        for warp in range(4):
            for thread in range(32):
                order = dual_mma_element_order(warp, thread)
                assert len(order) == 32
                seen.update(order)
        assert len(seen) == DUAL_MMA_TILE_ROWS * DUAL_MMA_TILE_COLS

    def test_thread_registers_are_16_bytes(self, rng):
        tile = rng.integers(0, 16, (64, 64)).astype(np.uint8)
        packed = pack_dual_mma_tile(tile)
        regs = thread_registers(packed, 1, 5)
        assert regs.shape == (4,) and regs.dtype == np.uint32
        assert packed.smem_bytes() == 128 * 16

    def test_single_lds128_no_waste_no_conflicts(self):
        analysis = analyze_dual_mma_loads()
        assert analysis.instruction == "LDS.128"
        assert analysis.loads_per_thread == 1
        assert analysis.bandwidth_utilization == pytest.approx(1.0)
        assert analysis.max_bank_conflict_ways == 1

    def test_2d_packed_layout_conflicts(self):
        """The QServe-style 2-D arrangement conflicts; the paper's 1-D arrangement must not."""
        assert analyze_packed_2d_lds128().max_bank_conflict_ways > analyze_dual_mma_loads().max_bank_conflict_ways

    def test_fewer_load_instructions_than_conventional(self):
        assert analyze_dual_mma_loads().loads_per_thread < analyze_conventional_loads().loads_per_thread

    def test_pack_requires_exact_tile_shape(self, rng):
        with pytest.raises(ValueError):
            pack_dual_mma_tile(rng.integers(0, 16, (64, 32)).astype(np.uint8))


def per_lane_tile_words(q: np.ndarray, tile_row: int, tile_col: int) -> np.ndarray:
    """Reference words of one tile, packed lane by lane straight from
    ``dual_mma_element_order`` (zero past the edges of ``q``)."""
    r0, c0 = tile_row * DUAL_MMA_TILE_ROWS, tile_col * DUAL_MMA_TILE_COLS
    words = np.zeros((128, 4), dtype=np.uint32)
    for warp in range(4):
        for thread in range(32):
            values = [
                q[r0 + r, c0 + c] if r0 + r < q.shape[0] and c0 + c < q.shape[1] else 0
                for r, c in dual_mma_element_order(warp, thread)
            ]
            words[warp * 32 + thread] = pack_u4_interleaved(
                np.array(values, dtype=np.uint8).reshape(4, 8)
            )
    return words


class TestPackedWeightMatrix:
    @given(st.integers(1, 200), st.integers(1, 200), st.integers(0, 2**32 - 1))
    @example(200, 200, 0)
    @example(64, 64, 1)
    @settings(max_examples=20, deadline=None)
    def test_words_match_per_lane_reference(self, n, k, seed):
        """Every packed word equals the per-lane reference.  The round-trip tests alone
        would pass if packing and unpacking were permuted the same wrong way."""
        q = np.random.default_rng(seed).integers(0, 16, (n, k)).astype(np.uint8)
        packed = pack_weight_matrix(q)
        assert packed.tile_grid == (-(-n // DUAL_MMA_TILE_ROWS), -(-k // DUAL_MMA_TILE_COLS))
        for i, row in enumerate(packed.tiles):
            for j, tile in enumerate(row):
                assert tile.words.shape == (128, 4) and tile.words.dtype == np.uint32
                assert np.array_equal(tile.words, per_lane_tile_words(q, i, j))

    def test_tiling_with_padding(self, rng):
        q = rng.integers(0, 16, (100, 130)).astype(np.uint8)
        packed = pack_weight_matrix(q)
        assert packed.tile_grid == (2, 3)
        assert packed.n == 100 and packed.k == 130

    def test_exact_tiling(self, rng):
        q = rng.integers(0, 16, (128, 128)).astype(np.uint8)
        packed = pack_weight_matrix(q)
        assert packed.tile_grid == (2, 2)
        assert packed.gmem_bytes() == 4 * 128 * 16

    def test_roundtrip_through_tiles(self, rng):
        q = rng.integers(0, 16, (64, 128)).astype(np.uint8)
        packed = pack_weight_matrix(q)
        reconstructed = np.concatenate(
            [unpack_dual_mma_tile(t) for t in packed.tiles[0]], axis=1
        )
        assert np.array_equal(reconstructed[:, :128], q)

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            pack_weight_matrix(rng.integers(0, 16, (64,)).astype(np.uint8))
