"""The trace-driven simulation engine.

Following the experimental framework of the paper (Section 3), predictors
are evaluated by replaying branch traces with immediate updates: for every
conditional branch the predictor is asked for a prediction and then
immediately trained with the resolved outcome; non-conditional branches are
passed to the predictor so path-history-like structures can observe them.

Accuracy is reported in MisPredictions per Kilo Instructions (MPKI), the
metric used throughout the paper.

Two execution strategies are provided behind one entry point:

* the *reference* path iterates :class:`~repro.trace.branch.BranchRecord`
  views and drives the classic ``predict()`` / ``update()`` protocol;
* the *fast* path iterates the trace's columnar storage directly and drives
  the combined ``predict_update(pc, target, taken, kind, gap)`` /
  ``observe_pc(pc)`` protocol for predictors that opt in (see
  ``docs/PERFORMANCE.md``).

Both paths produce bit-identical results; :func:`simulate` picks the fast
path automatically whenever the predictor and the trace support it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.trace.branch import CONDITIONAL_CODE
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - a store-served run builds no predictor
    from repro.predictors.base import BranchPredictor

__all__ = [
    "ENGINE_VERSION",
    "SimulationResult",
    "simulate",
    "simulate_many",
    "supports_fast_path",
]

#: Version of the simulation semantics.  Bump whenever a change alters the
#: numbers :func:`simulate` produces for an unchanged (predictor, trace)
#: pair -- the persistent result store (:mod:`repro.store`) folds this into
#: its cell keys, so bumping it retires every stored result at once.
#: Pure-speed changes that keep results bit-identical must NOT bump it.
ENGINE_VERSION = 1


@dataclass
class SimulationResult:
    """Outcome of simulating one predictor over one trace."""

    trace_name: str
    predictor_name: str
    conditional_branches: int
    mispredictions: int
    instructions: int
    storage_bits: int
    per_pc_mispredictions: Dict[int, int] = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.instructions

    @property
    def misprediction_rate(self) -> float:
        """Fraction of conditional branches mispredicted."""
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        return 1.0 - self.misprediction_rate

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.predictor_name} on {self.trace_name}: "
            f"{self.mpki:.3f} MPKI "
            f"({self.mispredictions}/{self.conditional_branches} mispredicted, "
            f"{self.storage_bits / 1024:.1f} Kbits)"
        )


def supports_fast_path(predictor: BranchPredictor, trace: Trace) -> bool:
    """``True`` when ``predictor`` and ``trace`` support the columnar fast path.

    A trace qualifies either by exposing its columns directly
    (:meth:`~repro.trace.trace.Trace.columns`) or by streaming columnar
    blocks (``iter_chunks()``, the
    :class:`~repro.trace.chunked.ChunkedTrace` protocol).
    """
    return (
        getattr(predictor, "predict_update", None) is not None
        and getattr(predictor, "observe_pc", None) is not None
        and (
            getattr(trace, "columns", None) is not None
            or getattr(trace, "iter_chunks", None) is not None
        )
    )


def _column_blocks(trace: Trace):
    """Yield ``(pc, target, taken, kind, gap)`` column blocks of a trace.

    A monolithic :class:`Trace` is one block (its own columns -- zero
    copies, identical to the pre-chunking code path); a chunked trace
    yields one block per chunk, so the fast loops below stream it in
    bounded memory.  The simulation state is carried across blocks by the
    callers, which makes block iteration bit-identical to a single flat
    traversal by construction: the per-branch step sequence is unchanged.
    """
    chunks = getattr(trace, "iter_chunks", None)
    if chunks is not None:
        for chunk in chunks():
            yield chunk.columns()
    else:
        yield trace.columns()


def simulate(
    predictor: BranchPredictor,
    trace: Trace,
    warmup_fraction: float = 0.0,
    track_per_pc: bool = False,
    use_fast_path: Optional[bool] = None,
) -> SimulationResult:
    """Replay ``trace`` through ``predictor`` and measure its accuracy.

    Parameters
    ----------
    predictor:
        The predictor under test; it is trained in place.
    trace:
        The branch trace to replay.
    warmup_fraction:
        Fraction (0 to 1) of the trace's conditional branches whose
        mispredictions are excluded from the metric; the predictor is still
        trained during warm-up.  The paper's championship framework measures
        the full trace, so the default is 0.
    track_per_pc:
        Record per-static-branch misprediction counts (used by the analysis
        helpers to identify which branch classes a component fixes).
    use_fast_path:
        ``None`` (default) picks the columnar fast path automatically when
        the predictor opts into the combined-step protocol; ``False`` forces
        the record-based reference path; ``True`` requires the fast path and
        raises :class:`ValueError` when it is unsupported.  Both paths
        produce bit-identical results.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup fraction must be in [0, 1), got {warmup_fraction}"
        )
    fast_available = supports_fast_path(predictor, trace)
    if use_fast_path is None:
        use_fast_path = fast_available
    elif use_fast_path and not fast_available:
        raise ValueError(
            f"predictor {predictor.name!r} does not support the fast-path "
            "protocol (predict_update / observe_pc)"
        )
    total_conditional = trace.conditional_count
    warmup_limit = int(total_conditional * warmup_fraction)

    if use_fast_path:
        mispredictions, measured_conditional, measured_instructions, per_pc = (
            _simulate_columns(predictor, trace, warmup_limit, track_per_pc)
        )
    else:
        mispredictions, measured_conditional, measured_instructions, per_pc = (
            _simulate_records(predictor, trace, warmup_limit, track_per_pc)
        )

    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        conditional_branches=measured_conditional,
        mispredictions=mispredictions,
        instructions=measured_instructions,
        storage_bits=predictor.storage_bits(),
        per_pc_mispredictions=per_pc,
    )


def _simulate_records(
    predictor: BranchPredictor,
    trace: Trace,
    warmup_limit: int,
    track_per_pc: bool,
) -> tuple:
    """Reference path: record views and the predict()/update() protocol."""
    mispredictions = 0
    measured_conditional = 0
    measured_instructions = 0
    per_pc: Dict[int, int] = defaultdict(int)
    seen_conditional = 0

    for record in trace:
        if not record.is_conditional:
            predictor.observe_unconditional(record)
            if seen_conditional >= warmup_limit:
                measured_instructions += record.instruction_gap + 1
            continue
        prediction = predictor.predict(record)
        predictor.update(record, prediction)
        seen_conditional += 1
        if seen_conditional <= warmup_limit:
            continue
        measured_conditional += 1
        measured_instructions += record.instruction_gap + 1
        if prediction != record.taken:
            mispredictions += 1
            if track_per_pc:
                per_pc[record.pc] += 1

    return mispredictions, measured_conditional, measured_instructions, dict(per_pc)


def _simulate_columns(
    predictor: BranchPredictor,
    trace: Trace,
    warmup_limit: int,
    track_per_pc: bool,
) -> tuple:
    """Fast path: columnar iteration and the combined-step protocol.

    Iterates the trace's column blocks (one block for a monolithic trace,
    one per chunk for a chunked trace) with all measurement state carried
    across block boundaries, so streaming is bit-identical to a flat
    traversal while peak memory stays bounded by the block size.
    """
    predict_update = predictor.predict_update
    observe_pc = predictor.observe_pc
    conditional_code = CONDITIONAL_CODE
    mispredictions = 0

    if warmup_limit == 0 and not track_per_pc:
        block_step = getattr(predictor, "predict_update_block", None)
        if block_step is not None:
            # Column-block protocol: the predictor consumes whole column
            # blocks and returns its misprediction count, eliminating the
            # per-branch Python dispatch entirely (see
            # ``BimodalPredictor.predict_update_block``).
            for pcs, targets, takens, kinds, gaps in _column_blocks(trace):
                mispredictions += block_step(pcs, targets, takens, kinds, gaps)
            return (
                mispredictions,
                trace.conditional_count,
                trace.instruction_count,
                {},
            )
        # The hottest loop: no warm-up or per-PC bookkeeping, and the
        # measured totals equal the trace's cached aggregates.
        for pcs, targets, takens, kinds, gaps in _column_blocks(trace):
            for pc, target, taken, kind, gap in zip(
                pcs, targets, takens, kinds, gaps
            ):
                if kind != conditional_code:
                    observe_pc(pc)
                elif predict_update(pc, target, taken, kind, gap) != taken:
                    mispredictions += 1
        return mispredictions, trace.conditional_count, trace.instruction_count, {}

    measured_conditional = 0
    measured_instructions = 0
    per_pc: Dict[int, int] = defaultdict(int)
    seen_conditional = 0
    for pcs, targets, takens, kinds, gaps in _column_blocks(trace):
        for index in range(len(pcs)):
            pc = pcs[index]
            kind = kinds[index]
            if kind != conditional_code:
                observe_pc(pc)
                if seen_conditional >= warmup_limit:
                    measured_instructions += gaps[index] + 1
                continue
            taken = takens[index]
            prediction = predict_update(pc, targets[index], taken, kind, gaps[index])
            seen_conditional += 1
            if seen_conditional <= warmup_limit:
                continue
            measured_conditional += 1
            measured_instructions += gaps[index] + 1
            if prediction != taken:
                mispredictions += 1
                if track_per_pc:
                    per_pc[pc] += 1

    return mispredictions, measured_conditional, measured_instructions, dict(per_pc)


def simulate_many(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    warmup_fraction: float = 0.0,
    track_per_pc: bool = False,
    use_fast_path: Optional[bool] = None,
    share_cores: Optional[bool] = None,
) -> List[SimulationResult]:
    """Replay ``trace`` through every predictor in one traversal.

    Bit-identical to ``[simulate(p, trace, ...) for p in predictors]`` --
    the predictors are independent instances, so driving them all from one
    pass over the columns changes nothing about what each one observes --
    but the columnar decode, Python-level iteration and branch-kind
    dispatch are paid once per *trace* instead of once per *(predictor,
    trace)* cell.  This is the execution primitive of batched sweeps: the
    suite runner, the process-pool path and the distributed workers all
    group same-trace cells and drive them through here.

    On top of the shared traversal, batch members that advertise the same
    shared-core key (:mod:`repro.predictors.shared_core`) are executed as
    one core plus N light heads -- the dominant TAGE/GEHL core work is
    paid once per branch for the whole group.  Grouped members' original
    predictor instances are left untouched (the group runs its own fresh
    cores and heads), so don't rely on batch members being trained after
    a grouped run; pass ``share_cores=False`` if you need that.

    Parameters match :func:`simulate` (``warmup_fraction`` and
    ``track_per_pc`` apply to every predictor in the batch).  The batched
    loop needs the fast-path protocol; with ``use_fast_path=None`` a batch
    containing any predictor without it falls back to independent
    :func:`simulate` calls (still bit-identical, each picking its own best
    path), ``True`` requires the fast path for the whole batch, and
    ``False`` forces the record-based reference path throughout.
    ``share_cores=None`` (default) groups same-core members automatically;
    ``False`` disables grouping and runs every member through its own
    combined step, exactly as before this optimization existed.  Every
    setting produces bit-identical results.
    """
    predictors = list(predictors)
    if not predictors:
        return []
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup fraction must be in [0, 1), got {warmup_fraction}"
        )
    fast_available = all(
        supports_fast_path(predictor, trace) for predictor in predictors
    )
    if use_fast_path and not fast_available:
        missing = next(
            predictor.name
            for predictor in predictors
            if not supports_fast_path(predictor, trace)
        )
        raise ValueError(
            f"predictor {missing!r} does not support the fast-path "
            "protocol (predict_update / observe_pc)"
        )
    batched = use_fast_path is not False and fast_available and len(predictors) > 1
    if not batched:
        # One predictor, a reference-path request, or a mixed batch:
        # delegate to independent simulate() calls, each with the caller's
        # path choice (``None`` lets every predictor pick its own best).
        return [
            simulate(
                predictor,
                trace,
                warmup_fraction=warmup_fraction,
                track_per_pc=track_per_pc,
                use_fast_path=use_fast_path,
            )
            for predictor in predictors
        ]

    from repro.predictors.shared_core import plan_groups

    warmup_limit = int(trace.conditional_count * warmup_fraction)
    plan = None if share_cores is False else plan_groups(predictors)
    if plan is not None:
        groups, solos = plan
        if warmup_limit == 0 and not track_per_pc:
            counts = _simulate_columns_grouped_fast(predictors, trace, groups, solos)
            measured_conditional = trace.conditional_count
            measured_instructions = trace.instruction_count
            per_pc_maps: List[Dict[int, int]] = [{} for _ in predictors]
        else:
            counts, measured_conditional, measured_instructions, per_pc_maps = (
                _simulate_columns_grouped(
                    predictors, trace, groups, solos, warmup_limit, track_per_pc
                )
            )
    elif warmup_limit == 0 and not track_per_pc:
        counts = _simulate_columns_batch_fast(predictors, trace)
        measured_conditional = trace.conditional_count
        measured_instructions = trace.instruction_count
        per_pc_maps = [{} for _ in predictors]
    else:
        counts, measured_conditional, measured_instructions, per_pc_maps = (
            _simulate_columns_batch(predictors, trace, warmup_limit, track_per_pc)
        )
    return [
        SimulationResult(
            trace_name=trace.name,
            predictor_name=predictor.name,
            conditional_branches=measured_conditional,
            mispredictions=counts[index],
            instructions=measured_instructions,
            storage_bits=predictor.storage_bits(),
            per_pc_mispredictions=per_pc_maps[index],
        )
        for index, predictor in enumerate(predictors)
    ]


def _simulate_columns_batch_fast(
    predictors: Sequence[BranchPredictor], trace: Trace
) -> List[int]:
    """Batched hot loop: no warm-up, no per-PC tracking.

    The traversal state (tuple unpack, kind test) is shared across the
    batch; per predictor and branch only the combined-step call and the
    misprediction compare remain.  Chunked traces stream block by block
    with the counters carried across boundaries.
    """
    steps = [predictor.predict_update for predictor in predictors]
    observes = [predictor.observe_pc for predictor in predictors]
    conditional_code = CONDITIONAL_CODE
    counts = [0] * len(steps)
    for pcs, targets, takens, kinds, gaps in _column_blocks(trace):
        for pc, target, taken, kind, gap in zip(pcs, targets, takens, kinds, gaps):
            if kind != conditional_code:
                for observe in observes:
                    observe(pc)
            else:
                index = 0
                for step in steps:
                    if step(pc, target, taken, kind, gap) != taken:
                        counts[index] += 1
                    index += 1
    return counts


def _simulate_columns_batch(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    warmup_limit: int,
    track_per_pc: bool,
) -> tuple:
    """Batched general loop: warm-up and/or per-PC bookkeeping.

    The warm-up window is a property of the trace position, so the
    ``seen_conditional`` counter -- and therefore the measured totals --
    are shared by every predictor in the batch, exactly as N independent
    :func:`simulate` calls would each compute them.  The counter survives
    block boundaries, so a warm-up window ending mid-chunk measures
    exactly the same records as it would on the monolithic trace.
    """
    steps = [predictor.predict_update for predictor in predictors]
    observes = [predictor.observe_pc for predictor in predictors]
    conditional_code = CONDITIONAL_CODE
    counts = [0] * len(steps)
    per_pc_maps: List[Dict[int, int]] = [defaultdict(int) for _ in steps]
    measured_conditional = 0
    measured_instructions = 0
    seen_conditional = 0
    for pcs, targets, takens, kinds, gaps in _column_blocks(trace):
        for position in range(len(pcs)):
            pc = pcs[position]
            kind = kinds[position]
            if kind != conditional_code:
                for observe in observes:
                    observe(pc)
                if seen_conditional >= warmup_limit:
                    measured_instructions += gaps[position] + 1
                continue
            taken = takens[position]
            target = targets[position]
            gap = gaps[position]
            seen_conditional += 1
            if seen_conditional <= warmup_limit:
                for step in steps:
                    step(pc, target, taken, kind, gap)
                continue
            measured_conditional += 1
            measured_instructions += gap + 1
            index = 0
            for step in steps:
                if step(pc, target, taken, kind, gap) != taken:
                    counts[index] += 1
                    if track_per_pc:
                        per_pc_maps[index][pc] += 1
                index += 1
    return (
        counts,
        measured_conditional,
        measured_instructions,
        [dict(per_pc) for per_pc in per_pc_maps],
    )


def _simulate_columns_grouped_fast(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    groups: Sequence,
    solos: Sequence[int],
) -> List[int]:
    """Grouped hot loop: shared cores stepped once, heads fanned per branch.

    Each group's ``step_count`` runs its core once and every head once,
    bumping the group's internal per-head misprediction counters; solo
    predictors keep the flat combined-step protocol.  After the traversal
    the group counters are scattered back to batch positions.
    """
    solo_steps = [(index, predictors[index].predict_update) for index in solos]
    observes = [predictors[index].observe_pc for index in solos]
    observes.extend(group.observe for group in groups)
    group_steps = [group.step_count for group in groups]
    conditional_code = CONDITIONAL_CODE
    counts = [0] * len(predictors)
    for pcs, targets, takens, kinds, gaps in _column_blocks(trace):
        for pc, target, taken, kind, gap in zip(pcs, targets, takens, kinds, gaps):
            if kind != conditional_code:
                for observe in observes:
                    observe(pc)
            else:
                for group_step in group_steps:
                    group_step(pc, target, taken, gap)
                for index, step in solo_steps:
                    if step(pc, target, taken, kind, gap) != taken:
                        counts[index] += 1
    for group in groups:
        for slot, index in enumerate(group.indices):
            counts[index] = group.counts[slot]
    return counts


def _simulate_columns_grouped(
    predictors: Sequence[BranchPredictor],
    trace: Trace,
    groups: Sequence,
    solos: Sequence[int],
    warmup_limit: int,
    track_per_pc: bool,
) -> tuple:
    """Grouped general loop: warm-up and/or per-PC bookkeeping.

    The warm-up window is shared across the batch exactly as in
    :func:`_simulate_columns_batch`; groups return per-head predictions
    through ``step_list`` so the measurement logic stays per member.
    """
    solo_steps = [(index, predictors[index].predict_update) for index in solos]
    observes = [predictors[index].observe_pc for index in solos]
    observes.extend(group.observe for group in groups)
    group_list = [(group.indices, group.step_list) for group in groups]
    conditional_code = CONDITIONAL_CODE
    counts = [0] * len(predictors)
    per_pc_maps: List[Dict[int, int]] = [defaultdict(int) for _ in predictors]
    measured_conditional = 0
    measured_instructions = 0
    seen_conditional = 0
    for pcs, targets, takens, kinds, gaps in _column_blocks(trace):
        for position in range(len(pcs)):
            pc = pcs[position]
            kind = kinds[position]
            if kind != conditional_code:
                for observe in observes:
                    observe(pc)
                if seen_conditional >= warmup_limit:
                    measured_instructions += gaps[position] + 1
                continue
            taken = takens[position]
            target = targets[position]
            gap = gaps[position]
            seen_conditional += 1
            if seen_conditional <= warmup_limit:
                for indices, step_list in group_list:
                    step_list(pc, target, taken, gap)
                for index, step in solo_steps:
                    step(pc, target, taken, kind, gap)
                continue
            measured_conditional += 1
            measured_instructions += gap + 1
            for indices, step_list in group_list:
                predictions = step_list(pc, target, taken, gap)
                for slot, index in enumerate(indices):
                    if predictions[slot] != taken:
                        counts[index] += 1
                        if track_per_pc:
                            per_pc_maps[index][pc] += 1
            for index, step in solo_steps:
                if step(pc, target, taken, kind, gap) != taken:
                    counts[index] += 1
                    if track_per_pc:
                        per_pc_maps[index][pc] += 1
    return (
        counts,
        measured_conditional,
        measured_instructions,
        [dict(per_pc) for per_pc in per_pc_maps],
    )
