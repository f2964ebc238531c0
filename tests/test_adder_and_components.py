"""Tests for the adder tree and its standard components."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.common.bits import mask, mix_hash, mix_hash4
from repro.common.history import LocalHistoryTable
from repro.core.component import SharedState
from repro.core.imli_sic import IMLISameIterationComponent
from repro.predictors.adder import AdderTree
from repro.predictors.components import (
    BiasComponent,
    GlobalHistoryComponent,
    IMLICountHashedGlobalComponent,
    LocalHistoryComponent,
    geometric_history_lengths,
)
from repro.trace.branch import conditional_branch


class TestGeometricHistoryLengths:
    def test_endpoints(self):
        lengths = geometric_history_lengths(8, 4, 200)
        assert lengths[0] == 4
        assert lengths[-1] >= 200
        assert len(lengths) == 8

    def test_strictly_increasing(self):
        lengths = geometric_history_lengths(10, 3, 300)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single_length(self):
        assert geometric_history_lengths(1, 5, 100) == [5]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            geometric_history_lengths(0, 4, 100)
        with pytest.raises(ValueError):
            geometric_history_lengths(4, 10, 5)


class TestBiasComponent:
    def test_selects_one_counter_without_tage(self):
        state = SharedState()
        component = BiasComponent(entries=64, use_tage_prediction=False)
        assert len(component.select(0x123, state)) == 1

    def test_selects_two_counters_with_tage(self):
        state = SharedState()
        state.tage_prediction = True
        component = BiasComponent(entries=64, use_tage_prediction=True)
        assert len(component.select(0x123, state)) == 2

    def test_tage_prediction_changes_second_index(self):
        state = SharedState()
        component = BiasComponent(entries=256, use_tage_prediction=True)
        state.tage_prediction = True
        taken_index = component.select(0x123, state)[1][1]
        state.tage_prediction = False
        not_taken_index = component.select(0x123, state)[1][1]
        assert taken_index != not_taken_index

    def test_storage(self):
        assert BiasComponent(entries=128, counter_bits=6).storage_bits() == 768
        assert BiasComponent(entries=128, counter_bits=6, use_tage_prediction=True).storage_bits() == 1536

    def test_default_training_moves_counters(self):
        state = SharedState()
        component = BiasComponent(entries=64)
        selections = component.select(0x44, state)
        component.train(0x44, True, selections, state)
        table, index = selections[0]
        assert table.values[index] == 1


class TestGlobalHistoryComponent:
    def test_one_counter_per_history_length(self):
        state = SharedState()
        component = GlobalHistoryComponent(state, history_lengths=[0, 5, 11], entries=128)
        assert len(component.select(0x99, state)) == 3

    def test_index_changes_with_history(self):
        """Different global histories must (in general) select different entries."""
        state = SharedState()
        component = GlobalHistoryComponent(state, history_lengths=[8], entries=512)
        indices = {component.select(0x99, state)[0][1]}
        for index in range(24):
            state.update_conditional(
                conditional_branch(0x10 + index, 0x20, taken=bool(index % 3))
            )
            indices.add(component.select(0x99, state)[0][1])
        assert len(indices) > 8

    def test_storage(self):
        state = SharedState()
        component = GlobalHistoryComponent(state, history_lengths=[4, 8], entries=256, counter_bits=6)
        assert component.storage_bits() == 2 * 256 * 6

    def test_requires_history_lengths(self):
        with pytest.raises(ValueError):
            GlobalHistoryComponent(SharedState(), history_lengths=[])


class TestIMLICountHashedGlobalComponent:
    def test_index_changes_with_imli_count(self):
        state = SharedState()
        component = IMLICountHashedGlobalComponent(state, history_lengths=[8], entries=512)
        index_zero = component.select(0x99, state)[0][1]
        state.imli.count = 9
        index_nine = component.select(0x99, state)[0][1]
        assert index_zero != index_nine


class TestLocalHistoryComponent:
    def test_requires_local_history_table(self):
        state = SharedState()  # no local history table
        component = LocalHistoryComponent(history_lengths=[8], entries=64)
        with pytest.raises(RuntimeError):
            component.select(0x99, state)

    def test_index_changes_with_local_history(self):
        table = LocalHistoryTable(64, 16)
        state = SharedState(local_history_table=table)
        component = LocalHistoryComponent(history_lengths=[8], entries=512)
        before = component.select(0x99, state)[0][1]
        for _ in range(5):
            state.update_conditional(conditional_branch(0x99, 0x120, taken=True))
        after = component.select(0x99, state)[0][1]
        assert before != after

    def test_storage(self):
        component = LocalHistoryComponent(history_lengths=[6, 11, 16], entries=128, counter_bits=6)
        assert component.storage_bits() == 3 * 128 * 6


def _randomise_counters(tables, seed):
    rng = random.Random(seed)
    for table in tables:
        table.values = [
            rng.randint(table.minimum, table.maximum) for _ in table.values
        ]


_BRANCHES = st.lists(
    st.tuples(st.integers(0, 63), st.booleans(), st.booleans()), max_size=60
)


class TestFusedSelectSum:
    """The fused ``select_sum`` copies are pinned to the generic hashes."""

    @given(
        pc=st.integers(0, 1 << 40),
        branches=_BRANCHES,
        lengths=st.lists(st.integers(1, 16), min_size=1, max_size=4),
        seed=st.integers(0, 1 << 16),
    )
    def test_local_index_is_mix_hash(self, pc, branches, lengths, seed):
        table = LocalHistoryTable(64, 16)
        state = SharedState(local_history_table=table)
        for slot, _backward, taken in branches:
            table.update(0x400 + 4 * slot, taken)
        component = LocalHistoryComponent(history_lengths=lengths, entries=256)
        _randomise_counters(component.tables, seed)
        selections, total = component.select_sum(pc, state)
        history = table.read(pc)
        assert [index for _, index in selections] == [
            mix_hash(pc, history & mask(length), width=8) for length in lengths
        ]
        assert selections == component.select(pc, state)
        assert total == sum(2 * t.values[i] + 1 for t, i in selections)

    def test_local_select_sum_requires_table(self):
        component = LocalHistoryComponent(history_lengths=[8], entries=64)
        with pytest.raises(RuntimeError):
            component.select_sum(0x99, SharedState())

    @given(
        pc=st.integers(0, 1 << 40),
        branches=_BRANCHES,
        tables=st.integers(1, 2),
        imli_count=st.integers(0, 1023),
        seed=st.integers(0, 1 << 16),
    )
    def test_imli_hashed_index_is_mix_hash4(
        self, pc, branches, tables, imli_count, seed
    ):
        state = SharedState()
        component = IMLICountHashedGlobalComponent(
            state, history_lengths=[9, 18][:tables], entries=512
        )
        for slot, backward, taken in branches:
            branch_pc = 0x400 + 4 * slot
            target = branch_pc - 0x40 if backward else branch_pc + 0x40
            state.update_conditional_fields(branch_pc, target, taken)
        state.imli.count = imli_count
        _randomise_counters(component.tables, seed)
        selections, total = component.select_sum(pc, state)
        path_bits = state.path_history.bits
        assert [index for _, index in selections] == [
            mix_hash4(pc, folded.fold, path_bits & path_mask, imli_count) & mask(9)
            for _table, folded, path_mask in component._rows
        ]
        assert selections == component.select(pc, state)
        assert total == sum(2 * t.values[i] + 1 for t, i in selections)


class TestAdderTree:
    def _make(self, extra=()):
        state = SharedState()
        components = [BiasComponent(entries=64), *extra]
        return AdderTree(components, initial_threshold=4), state

    def test_requires_components(self):
        with pytest.raises(ValueError):
            AdderTree([])

    def test_sum_uses_centred_counters(self):
        adder, state = self._make()
        total, selections = adder.compute(0x77, state)
        # A single zero counter contributes 2*0 + 1.
        assert total == 1
        assert len(selections) == 1

    def test_training_moves_counters_toward_outcome(self):
        adder, state = self._make()
        record = conditional_branch(0x77, 0x90, taken=False)
        total, selections = adder.compute(0x77, state)
        adder.train(record, total, selections, state)
        table, index = selections[0][0]
        assert table.values[index] == -1

    def test_training_skipped_when_confident_and_correct(self):
        adder, state = self._make()
        record = conditional_branch(0x77, 0x90, taken=True)
        # Saturate the counter well above the threshold.
        for _ in range(30):
            total, selections = adder.compute(0x77, state)
            adder.train(record, total, selections, state)
        table, index = selections[0][0]
        value_before = table.values[index]
        total, selections = adder.compute(0x77, state)
        assert abs(total) > adder.threshold
        adder.train(record, total, selections, state)
        assert table.values[index] == value_before

    def test_force_training(self):
        adder, state = self._make()
        record = conditional_branch(0x77, 0x90, taken=True)
        for _ in range(30):
            total, selections = adder.compute(0x77, state)
            adder.train(record, total, selections, state)
        total, selections = adder.compute(0x77, state)
        value_before = selections[0][0][0].values[selections[0][0][1]]
        adder.train(record, total, selections, state, force=True)
        # Forced training still saturates upward (no change at the rail) but
        # must not decrease the counter.
        assert selections[0][0][0].values[selections[0][0][1]] >= value_before

    def test_rejects_old_style_on_outcome_override(self):
        class LegacyComponent(BiasComponent):
            def on_outcome(self, record, state):  # pragma: no cover - hook
                pass

        adder, state = self._make(extra=[LegacyComponent(entries=64)])
        record = conditional_branch(0x77, 0x90, taken=True)
        total, selections = adder.compute(0x77, state)
        with pytest.raises(TypeError, match="on_outcome_fields"):
            adder.train(record, total, selections, state)

    def test_components_appended_after_first_train_get_outcome_hook(self):
        adder, state = self._make()
        record = conditional_branch(0x77, 0x90, taken=True)
        total, selections = adder.compute(0x77, state)
        adder.train(record, total, selections, state)

        calls = []

        class Observer(BiasComponent):
            def on_outcome_fields(self, pc, target, taken, state):
                calls.append(pc)

        adder.components.append(Observer(entries=64))
        total, selections = adder.compute(0x77, state)
        adder.train(record, total, selections, state)
        assert calls == [0x77]

    def test_threshold_adapts_upward_under_mispredictions(self):
        adder, state = self._make()
        initial_threshold = adder.threshold
        import random

        rng = random.Random(3)
        for _ in range(4000):
            record = conditional_branch(0x77, 0x90, taken=rng.random() < 0.5)
            total, selections = adder.compute(0x77, state)
            adder.train(record, total, selections, state)
        assert adder.threshold >= initial_threshold

    def test_learns_imli_correlation_through_extra_component(self):
        """An IMLI-SIC component plugged into an adder tree learns the pattern."""
        sic = IMLISameIterationComponent(entries=128)
        adder, state = self._make(extra=[sic])
        pattern = [bool(i % 3 == 0) for i in range(12)]
        correct = 0
        total_branches = 0
        for outer in range(20):
            for inner in range(12):
                record = conditional_branch(0x5000, 0x5040, taken=pattern[inner])
                total, selections = adder.compute(0x5000, state)
                if outer >= 10:
                    total_branches += 1
                    correct += (total >= 0) == pattern[inner]
                adder.train(record, total, selections, state)
                state.update_conditional(record)
                back = conditional_branch(0x6000, 0x5000, taken=inner < 11)
                state.update_conditional(back)
        assert correct / total_branches > 0.9

    def test_storage_and_breakdown(self):
        adder, _ = self._make(extra=[IMLISameIterationComponent(entries=128)])
        breakdown = adder.component_storage_breakdown()
        assert [name for name, _ in breakdown] == ["bias", "imli-sic"]
        assert adder.storage_bits() >= sum(bits for _, bits in breakdown)

    def test_speculative_state_bits_sum(self):
        from repro.core.imli_oh import IMLIOuterHistoryComponent

        adder, _ = self._make(extra=[IMLIOuterHistoryComponent()])
        assert adder.speculative_state_bits() == 16
