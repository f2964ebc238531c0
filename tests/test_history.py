"""Unit and property-based tests for repro.common.history."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bits import fold_bits, hash_pc
from repro.common.history import (
    FoldedHistory,
    GlobalHistory,
    LocalHistoryTable,
    PathHistory,
)


class TestGlobalHistory:
    def test_push_and_read(self):
        history = GlobalHistory(8)
        history.push(True)
        history.push(False)
        history.push(True)
        # bit 0 is the most recent outcome
        assert history.bit(0) == 1
        assert history.bit(1) == 0
        assert history.bit(2) == 1
        assert history.value(3) == 0b101

    def test_capacity_truncation(self):
        history = GlobalHistory(4)
        for _ in range(10):
            history.push(True)
        assert history.value(16) == 0b1111

    def test_snapshot_restore(self):
        history = GlobalHistory(16)
        for outcome in (True, False, True, True):
            history.push(outcome)
        snapshot = history.snapshot()
        history.push(False)
        history.restore(snapshot)
        # Pushed T, F, T, T with the most recent outcome in bit 0.
        assert history.value(4) == 0b1011

    def test_reset(self):
        history = GlobalHistory(8)
        history.push(True)
        history.reset()
        assert history.value(8) == 0
        assert history.length == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            GlobalHistory(0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            GlobalHistory(8).value(-1)

    @given(st.lists(st.booleans(), max_size=100))
    def test_value_matches_reference(self, outcomes):
        history = GlobalHistory(256)
        for outcome in outcomes:
            history.push(outcome)
        reference = 0
        for outcome in outcomes:
            reference = (reference << 1) | int(outcome)
        assert history.value(256) == reference


class TestPathHistory:
    def test_push_low_bits(self):
        path = PathHistory(8, bits_per_branch=2)
        path.push(0b111)   # low 2 bits = 11
        path.push(0b100)   # low 2 bits = 00
        assert path.value(4) == 0b1100

    def test_capacity(self):
        path = PathHistory(4, bits_per_branch=2)
        for pc in range(10):
            path.push(pc)
        assert path.value(8) <= 0b1111

    def test_snapshot_restore(self):
        path = PathHistory(8)
        path.push(1)
        snapshot = path.snapshot()
        path.push(0)
        path.restore(snapshot)
        assert path.value(8) == snapshot

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PathHistory(0)
        with pytest.raises(ValueError):
            PathHistory(8, bits_per_branch=0)


class TestFoldedHistory:
    def test_zero_length_is_always_zero(self):
        folded = FoldedHistory(0, 8)
        folded.update(1, 0)
        assert folded.value() == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FoldedHistory(-1, 8)
        with pytest.raises(ValueError):
            FoldedHistory(8, 0)

    def test_snapshot_restore(self):
        folded = FoldedHistory(5, 3)
        folded.update(1, 0)
        snapshot = folded.snapshot()
        folded.update(0, 1)
        folded.restore(snapshot)
        assert folded.value() == snapshot

    @settings(max_examples=50)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=2, max_value=12),
    )
    def test_incremental_fold_matches_batch_fold(self, outcomes, length, width):
        """The O(1) incremental fold must equal re-folding the window from scratch."""
        history = GlobalHistory(512)
        folded = FoldedHistory(length, width)
        for outcome in outcomes:
            dropped = history.bit(length - 1)
            folded.update(int(outcome), dropped)
            history.push(outcome)
            assert folded.value() == fold_bits(history.value(length), length, width)


class TestLocalHistoryTable:
    def test_update_and_read(self):
        table = LocalHistoryTable(64, 8)
        table.update(0x1234, True)
        table.update(0x1234, False)
        assert table.read(0x1234) == 0b10

    def test_distinct_branches_do_not_interfere(self):
        table = LocalHistoryTable(256, 8)
        table.update(0x1000, True)
        table.update(0x2040, False)
        # Distinct hashes expected for these PCs with a 256-entry table.
        if table.index(0x1000) != table.index(0x2040):
            assert table.read(0x1000) == 0b1

    def test_history_truncation(self):
        table = LocalHistoryTable(16, 4)
        for _ in range(10):
            table.update(0x10, True)
        assert table.read(0x10) == 0b1111

    def test_reset(self):
        table = LocalHistoryTable(16, 4)
        table.update(0x10, True)
        table.reset()
        assert table.read(0x10) == 0

    def test_storage_bits(self):
        assert LocalHistoryTable(256, 16).storage_bits() == 4096

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            LocalHistoryTable(100, 8)

    def test_rejects_invalid_widths(self):
        with pytest.raises(ValueError):
            LocalHistoryTable(0, 8)
        with pytest.raises(ValueError):
            LocalHistoryTable(16, 0)

    @given(st.lists(st.booleans(), max_size=64))
    def test_single_pc_history_matches_reference(self, outcomes):
        table = LocalHistoryTable(64, 16)
        reference = 0
        for outcome in outcomes:
            table.update(0x400, outcome)
            reference = ((reference << 1) | int(outcome)) & 0xFFFF
        assert table.read(0x400) == reference

    def test_one_entry_table_reads_and_updates(self):
        table = LocalHistoryTable(1, 4)
        assert table.index(0x1234) == table.index(0x99) == 0
        table.update(0x1234, True)
        table.update(0x99, False)
        assert table.read(0x5) == 0b10

    @given(pc=st.integers(0, 1 << 48), index_bits=st.integers(1, 14))
    def test_inline_index_matches_hash_pc(self, pc, index_bits):
        table = LocalHistoryTable(1 << index_bits, 8)
        assert table.index(pc) == hash_pc(pc, index_bits)
