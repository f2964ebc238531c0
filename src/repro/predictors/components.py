"""Adder-tree components shared by GEHL and the statistical corrector.

These components implement the :class:`~repro.core.component.NeuralComponent`
interface defined in :mod:`repro.core.component`.  Together with the IMLI
components from :mod:`repro.core` they are the inputs of the two adder-tree
predictors used in the paper:

* :class:`BiasComponent` -- per-PC bias tables, optionally hashed with the
  TAGE prediction (the "PC + TAGE prediction" tables of the statistical
  corrector, Figure 5).
* :class:`GlobalHistoryComponent` -- a bank of tables indexed with the PC
  hashed with folded global history of geometric lengths (the body of GEHL
  and of the global-history statistical corrector).
* :class:`LocalHistoryComponent` -- tables indexed with the PC hashed with
  the branch's local history; this is the "+L" local-history component whose
  speculative management the paper argues against (Sections 2.3.2 and 5).
* :class:`IMLICountHashedGlobalComponent` -- global-history tables whose
  index additionally mixes in the IMLI counter, the optional refinement
  mentioned at the end of Section 4.2.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.common.bits import (
    MASK64,
    MIX_FINAL_MULTIPLIER,
    MIX_ROUND_KEY,
    MIX_ROUND_MULTIPLIER,
    log2_exact,
    mask,
    mix_hash,
    mix_hash1,
    mix_hash2,
    mix_hash3,
    mix_hash4,
)
from repro.common.counters import SignedCounterArray
from repro.common.history import FoldedHistory, LocalHistoryTable
from repro.config import geometric_history_lengths
from repro.core.component import CounterSelection, NeuralComponent, SharedState

__all__ = [
    "BiasComponent",
    "GlobalHistoryComponent",
    "IMLICountHashedGlobalComponent",
    "LocalHistoryComponent",
    "geometric_history_lengths",
]


class BiasComponent(NeuralComponent):
    """Per-PC bias tables for an adder tree.

    One table is indexed with the hashed PC alone.  When
    ``use_tage_prediction`` is set a second table is indexed with the PC
    hashed together with the current TAGE prediction, which is how the
    statistical corrector lets the TAGE prediction dominate unless other
    components disagree strongly.
    """

    name = "bias"

    def __init__(
        self,
        entries: int = 1024,
        counter_bits: int = 6,
        use_tage_prediction: bool = False,
    ) -> None:
        self.index_bits = log2_exact(entries)
        self.index_mask = mask(self.index_bits)
        self.use_tage_prediction = use_tage_prediction
        self.pc_table = SignedCounterArray(entries, counter_bits)
        self.tage_table = (
            SignedCounterArray(entries, counter_bits) if use_tage_prediction else None
        )

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        index_mask = self.index_mask
        selections: List[CounterSelection] = [
            (self.pc_table, mix_hash1(pc) & index_mask)
        ]
        if self.tage_table is not None:
            tage_bit = 1 if state.tage_prediction else 0
            selections.append(
                (self.tage_table, mix_hash2(pc, tage_bit) & index_mask)
            )
        return selections

    def select_sum(self, pc: int, state: SharedState) -> tuple:
        index_mask = self.index_mask
        pc_table = self.pc_table
        pc_index = mix_hash1(pc) & index_mask
        total = 2 * pc_table.values[pc_index] + 1
        tage_table = self.tage_table
        if tage_table is None:
            return [(pc_table, pc_index)], total
        tage_bit = 1 if state.tage_prediction else 0
        tage_index = mix_hash2(pc, tage_bit) & index_mask
        total += 2 * tage_table.values[tage_index] + 1
        return [(pc_table, pc_index), (tage_table, tage_index)], total

    def storage_bits(self) -> int:
        bits = self.pc_table.storage_bits()
        if self.tage_table is not None:
            bits += self.tage_table.storage_bits()
        return bits


class GlobalHistoryComponent(NeuralComponent):
    """Tables indexed with the PC hashed with folded global history.

    ``history_lengths`` gives one (possibly zero) history length per table;
    a zero length degenerates to a PC-indexed table.  Folded histories are
    registered with the owning predictor's :class:`SharedState` so they stay
    coherent with the global history register at O(1) cost per branch.
    """

    name = "global"

    def __init__(
        self,
        state: SharedState,
        history_lengths: Sequence[int],
        entries: int = 1024,
        counter_bits: int = 6,
        use_path_history: bool = True,
    ) -> None:
        if not history_lengths:
            raise ValueError("at least one history length is required")
        self.index_bits = log2_exact(entries)
        self.index_mask = mask(self.index_bits)
        self.history_lengths = list(history_lengths)
        self.use_path_history = use_path_history
        self.tables = [
            SignedCounterArray(entries, counter_bits) for _ in self.history_lengths
        ]
        self.folded: List[FoldedHistory] = [
            state.new_folded_history(length, self.index_bits)
            for length in self.history_lengths
        ]
        # Per-table hot rows: (table, folded register, path-history mask).
        # The path hash consumes at most 16 path bits, clamped to the path
        # register capacity exactly like PathHistory.value() does.
        path_capacity = state.path_history.capacity
        self._rows = [
            (table, folded, mask(min(length, 16, path_capacity)))
            for table, folded, length in zip(
                self.tables, self.folded, self.history_lengths
            )
        ]

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        path_bits = state.path_history.bits if self.use_path_history else 0
        index_mask = self.index_mask
        return [
            (table, mix_hash3(pc, folded.fold, path_bits & path_mask) & index_mask)
            for table, folded, path_mask in self._rows
        ]

    def select_sum(self, pc: int, state: SharedState) -> tuple:
        # The hottest hash site of the adder-tree predictors: the splitmix
        # rounds of ``mix_hash3(pc, fold, path)`` are inlined with the
        # PC-only first round hoisted out of the per-table loop (it is the
        # same for every table; see bits.mix_pc_round / bits.mix_tail2,
        # whose property tests pin this inline copy to the generic hash).
        # The shared constants are hoisted into locals so the loop body
        # pays LOAD_FAST, not module-global lookups.
        path_bits = state.path_history.bits if self.use_path_history else 0
        index_mask = self.index_mask
        mask64 = MASK64
        multiplier = MIX_ROUND_MULTIPLIER
        key1 = MIX_ROUND_KEY + 1
        key2 = MIX_ROUND_KEY + 2
        final_multiplier = MIX_FINAL_MULTIPLIER
        acc0 = MIX_ROUND_KEY ^ ((pc + MIX_ROUND_KEY) & mask64)
        acc0 = (acc0 * multiplier) & mask64
        acc0 ^= acc0 >> 27
        total = 0
        selections = []
        append = selections.append
        for table, folded, path_mask in self._rows:
            acc = acc0 ^ ((folded.fold + key1) & mask64)
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc ^= ((path_bits & path_mask) + key2) & mask64
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc = (acc * final_multiplier) & mask64
            index = (acc ^ (acc >> 31)) & index_mask
            append((table, index))
            total += 2 * table.values[index] + 1
        return selections, total

    def shared_index_geometry(self) -> tuple:
        """Hashable geometry key for cross-predictor index sharing.

        Two components with equal keys whose owning predictors share one
        :class:`SharedState` compute identical table indices for every
        branch: the folded registers are shape-deduplicated on the state
        (equal lengths and widths resolve to the *same* fold objects) and
        the path masks derive from the same path register.  The shared-core
        batch executor (:mod:`repro.predictors.shared_core`) uses this to
        hash once per group instead of once per head.  Only exact
        :class:`GlobalHistoryComponent` instances may share -- subclasses
        mix extra fields into the index (see
        :class:`IMLICountHashedGlobalComponent`).
        """
        return (tuple(self.history_lengths), self.index_bits, self.use_path_history)

    def compute_indices(self, pc: int, state: SharedState) -> List[int]:
        """Per-table indices only (the hash half of :meth:`select_sum`)."""
        path_bits = state.path_history.bits if self.use_path_history else 0
        index_mask = self.index_mask
        mask64 = MASK64
        multiplier = MIX_ROUND_MULTIPLIER
        key1 = MIX_ROUND_KEY + 1
        key2 = MIX_ROUND_KEY + 2
        final_multiplier = MIX_FINAL_MULTIPLIER
        acc0 = MIX_ROUND_KEY ^ ((pc + MIX_ROUND_KEY) & mask64)
        acc0 = (acc0 * multiplier) & mask64
        acc0 ^= acc0 >> 27
        indices = []
        append = indices.append
        for _table, folded, path_mask in self._rows:
            acc = acc0 ^ ((folded.fold + key1) & mask64)
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc ^= ((path_bits & path_mask) + key2) & mask64
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc = (acc * final_multiplier) & mask64
            append((acc ^ (acc >> 31)) & index_mask)
        return indices

    def select_sum_at(self, indices: Sequence[int]) -> tuple:
        """The read half of :meth:`select_sum`, over precomputed indices."""
        total = 0
        selections = []
        append = selections.append
        row = 0
        for table, _folded, _path_mask in self._rows:
            index = indices[row]
            row += 1
            append((table, index))
            total += 2 * table.values[index] + 1
        return selections, total

    def storage_bits(self) -> int:
        return sum(table.storage_bits() for table in self.tables)


class IMLICountHashedGlobalComponent(GlobalHistoryComponent):
    """Global-history tables whose index also mixes in the IMLI counter.

    Section 4.2 of the paper notes that the IMLI-SIC benefit "can be further
    increased by inserting the IMLI counter in the indices of two tables in
    the global history component of the SC"; this component implements that
    refinement (used by the ablation benchmarks).
    """

    name = "global+imli"

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        path_bits = state.path_history.bits if self.use_path_history else 0
        imli_count = state.imli.count
        index_mask = self.index_mask
        return [
            (
                table,
                mix_hash4(pc, folded.fold, path_bits & path_mask, imli_count)
                & index_mask,
            )
            for table, folded, path_mask in self._rows
        ]

    def select_sum(self, pc: int, state: SharedState) -> tuple:
        # The parent's fused hash with the IMLI counter absorbed as a
        # fourth field: ``mix_hash4(pc, fold, path, imli_count)`` inlined
        # with the PC-only first round hoisted out of the per-table loop
        # (property tests pin this copy to ``select``).
        path_bits = state.path_history.bits if self.use_path_history else 0
        index_mask = self.index_mask
        mask64 = MASK64
        multiplier = MIX_ROUND_MULTIPLIER
        key1 = MIX_ROUND_KEY + 1
        key2 = MIX_ROUND_KEY + 2
        final_multiplier = MIX_FINAL_MULTIPLIER
        imli_field = (state.imli.count + MIX_ROUND_KEY + 3) & mask64
        acc0 = MIX_ROUND_KEY ^ ((pc + MIX_ROUND_KEY) & mask64)
        acc0 = (acc0 * multiplier) & mask64
        acc0 ^= acc0 >> 27
        total = 0
        selections = []
        append = selections.append
        for table, folded, path_mask in self._rows:
            acc = acc0 ^ ((folded.fold + key1) & mask64)
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc ^= ((path_bits & path_mask) + key2) & mask64
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc ^= imli_field
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc = (acc * final_multiplier) & mask64
            index = (acc ^ (acc >> 31)) & index_mask
            append((table, index))
            total += 2 * table.values[index] + 1
        return selections, total


class LocalHistoryComponent(NeuralComponent):
    """Tables indexed with the PC hashed with the branch's local history.

    Requires the owning predictor's :class:`SharedState` to carry a
    :class:`~repro.common.history.LocalHistoryTable`.  ``history_lengths``
    selects how many low-order local-history bits each table consumes, so a
    small bank of tables can cover several local correlation distances.
    """

    name = "local"

    def __init__(
        self,
        history_lengths: Sequence[int],
        entries: int = 1024,
        counter_bits: int = 6,
    ) -> None:
        if not history_lengths:
            raise ValueError("at least one local history length is required")
        self.index_bits = log2_exact(entries)
        self.index_mask = mask(self.index_bits)
        self.history_lengths = list(history_lengths)
        self.tables = [
            SignedCounterArray(entries, counter_bits) for _ in self.history_lengths
        ]
        # Per-table hot rows: (table, local-history mask).
        self._rows = [
            (table, mask(length))
            for table, length in zip(self.tables, self.history_lengths)
        ]

    @staticmethod
    def _local_histories(state: SharedState) -> LocalHistoryTable:
        local_histories = state.local_histories
        if local_histories is None:
            raise RuntimeError(
                "LocalHistoryComponent requires a SharedState with a local history table"
            )
        return local_histories

    def select(self, pc: int, state: SharedState) -> List[CounterSelection]:
        local_history = self._local_histories(state).read(pc)
        selections: List[CounterSelection] = []
        for table, length in zip(self.tables, self.history_lengths):
            index = mix_hash(
                pc, local_history & ((1 << length) - 1), width=self.index_bits
            )
            selections.append((table, index))
        return selections

    def select_sum(self, pc: int, state: SharedState) -> tuple:
        # ``mix_hash(pc, local_history & length_mask, width=index_bits)``
        # inlined like ``GlobalHistoryComponent.select_sum``: the PC-only
        # first round is hoisted out of the per-table loop (property tests
        # pin this copy to ``select``).
        local_history = self._local_histories(state).read(pc)
        index_mask = self.index_mask
        mask64 = MASK64
        multiplier = MIX_ROUND_MULTIPLIER
        key1 = MIX_ROUND_KEY + 1
        final_multiplier = MIX_FINAL_MULTIPLIER
        acc0 = MIX_ROUND_KEY ^ ((pc + MIX_ROUND_KEY) & mask64)
        acc0 = (acc0 * multiplier) & mask64
        acc0 ^= acc0 >> 27
        total = 0
        selections = []
        append = selections.append
        for table, history_mask in self._rows:
            acc = acc0 ^ (((local_history & history_mask) + key1) & mask64)
            acc = (acc * multiplier) & mask64
            acc ^= acc >> 27
            acc = (acc * final_multiplier) & mask64
            index = (acc ^ (acc >> 31)) & index_mask
            append((table, index))
            total += 2 * table.values[index] + 1
        return selections, total

    def storage_bits(self) -> int:
        return sum(table.storage_bits() for table in self.tables)
