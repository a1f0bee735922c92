"""Tests for the shared-memory bank-conflict model (repro.gpu.memory)."""

import pytest
from hypothesis import given, strategies as st

from repro.gpu import smem_bank_conflicts
from repro.gpu.memory import smem_bank_conflicts_phased


class TestBankConflicts:
    def test_conflict_free_sequential(self):
        addrs = [4 * i for i in range(32)]
        assert smem_bank_conflicts(addrs) == 1

    def test_same_address_broadcast(self):
        assert smem_bank_conflicts([0] * 32) == 1

    def test_worst_case_same_bank(self):
        addrs = [128 * i for i in range(32)]  # all map to bank 0
        assert smem_bank_conflicts(addrs) == 32

    def test_two_way(self):
        # Two half-warps touch the same 16 banks at different 128-byte rows.
        addrs = [4 * (i % 16) + 128 * (i // 16) for i in range(32)]
        assert smem_bank_conflicts(addrs) == 2

    def test_empty(self):
        assert smem_bank_conflicts([]) == 0

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            smem_bank_conflicts([-4])

    def test_phased_lds128_conflict_free(self):
        bases = [16 * t for t in range(32)]
        assert smem_bank_conflicts_phased(bases, bytes_per_access=16) == 1

    def test_phased_lds128_conflicting_pitch(self):
        bases = [(t // 4) * 128 + (t % 4) * 16 for t in range(32)]
        assert smem_bank_conflicts_phased(bases, bytes_per_access=16) >= 2

    def test_phased_invalid_access_size(self):
        with pytest.raises(ValueError):
            smem_bank_conflicts_phased([0], bytes_per_access=3)

    @given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=32))
    def test_conflict_degree_bounds(self, addrs):
        ways = smem_bank_conflicts(addrs)
        assert 1 <= ways <= len(addrs)
