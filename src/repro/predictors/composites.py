"""Composite predictor configurations evaluated in the paper.

This module assembles every named configuration of the evaluation section
from the building blocks of the library:

* the two base predictors, ``tage-gsc`` and ``gehl``;
* their IMLI-augmented versions (``+sic``, ``+imli`` = SIC + OH);
* their local-history versions (``+l`` -- the TAGE-SC-L / FTL style
  configurations with local corrector tables and an active loop predictor);
* the combined ``+imli+l`` versions;
* the wormhole-augmented versions (``+wh``) used as the prior-art
  comparison.

The :func:`build` factory and the :data:`CONFIGURATIONS` registry are the
entry points used by the benchmark harness, the examples and the tests.
Two size profiles are provided: ``"default"`` (used by the benchmark
harness) and ``"small"`` (much smaller tables, used by the test suite to
keep runtimes low).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from repro.common.history import LocalHistoryTable
from repro.config import (
    _PROFILES,
    CONFIGURATIONS,
    CompositeOptions,
    SizeProfile,
    core_key_for,
)
from repro.core.component import NeuralComponent
from repro.core.imli_oh import IMLIOuterHistoryComponent
from repro.core.imli_sic import IMLISameIterationComponent
from repro.predictors.base import BranchPredictor
from repro.predictors.components import IMLICountHashedGlobalComponent, LocalHistoryComponent
from repro.predictors.gehl import GEHLPredictor
from repro.predictors.loop import LoopPredictor, LoopPredictorConfig
from repro.predictors.tage_gsc import TAGEGSCConfig, TAGEGSCPredictor
from repro.predictors.wormhole import WormholePredictor, WormholePredictorConfig
from repro.trace.branch import BranchKind, BranchRecord

__all__ = [
    "CompositeOptions",
    "SharedCoreInfo",
    "SidecarPredictor",
    "SizeProfile",
    "build",
    "build_named",
    "configuration_names",
    "core_key_for",
    "factory",
    "CONFIGURATIONS",
]


# --------------------------------------------------------------------------- #
# Side predictor wrapper
# --------------------------------------------------------------------------- #


class _MutableBranchView:
    """Reusable, mutable record-shaped view used by the fast path.

    The loop and wormhole side predictors consume the record protocol
    (``pc``/``target``/``taken``/``is_conditional``/``is_backward``) but
    never retain the record, so one mutable instance per
    :class:`SidecarPredictor` replaces a fresh
    :class:`~repro.trace.branch.BranchRecord` allocation per branch.  Only
    conditional branches take the fast path, hence the constant
    ``is_conditional``.
    """

    __slots__ = ("pc", "target", "taken", "instruction_gap")

    is_conditional = True
    kind = BranchKind.CONDITIONAL

    def __init__(self) -> None:
        self.pc = 0
        self.target = 0
        self.taken = False
        self.instruction_gap = 0

    @property
    def is_backward(self) -> bool:
        return self.target < self.pc


class SidecarPredictor(BranchPredictor):
    """Wraps a main predictor with loop and/or wormhole side predictors.

    The override policy follows the paper:

    * the wormhole prediction, when confident, overrides everything;
    * the loop prediction overrides the main prediction only when
      ``use_loop_prediction`` is set (the "+L" configurations); in the
      "+WH" configurations the loop predictor is present purely to supply
      trip counts to WH (Section 3.3).
    """

    def __init__(
        self,
        main: BranchPredictor,
        loop_predictor: Optional[LoopPredictor] = None,
        wormhole: Optional[WormholePredictor] = None,
        use_loop_prediction: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.main = main
        self.loop_predictor = loop_predictor
        self.wormhole = wormhole
        self.use_loop_prediction = use_loop_prediction
        self.name = name or main.name
        self._main_prediction = True
        self._view = _MutableBranchView()
        # The combined-step fast path is exposed (as instance attributes, so
        # ``getattr`` probes see it) only when the wrapped main predictor
        # opts into the fast-path protocol itself.
        if hasattr(main, "predict_update") and hasattr(main, "observe_pc"):
            self.predict_update = self._predict_update_fast
            self.observe_pc = main.observe_pc

    def predict(self, record: BranchRecord) -> bool:
        prediction = self.main.predict(record)
        self._main_prediction = prediction
        if self.loop_predictor is not None and self.use_loop_prediction:
            loop_prediction = self.loop_predictor.predict(record)
            if loop_prediction is not None:
                prediction = loop_prediction
        if self.wormhole is not None:
            wormhole_prediction = self.wormhole.predict(record)
            if wormhole_prediction is not None:
                prediction = wormhole_prediction
        return prediction

    def update(self, record: BranchRecord, prediction: bool) -> None:
        self.main.update(record, self._main_prediction)
        if self.loop_predictor is not None:
            self.loop_predictor.update(record)
        if self.wormhole is not None:
            self.wormhole.update(
                record, main_mispredicted=self._main_prediction != record.taken
            )

    def _predict_update_fast(
        self, pc: int, target: int, taken: bool, kind: int = 0, gap: int = 0
    ) -> bool:
        """Combined predict-and-update fast path.

        The main predictor is trained through its own combined step before
        the side predictors run; that reordering is safe because neither
        side predictor reads the main predictor's state.  The side
        predictors keep their reference-path relative order (both predict,
        then both update).
        """
        main_prediction = self.main.predict_update(pc, target, taken, kind, gap)
        self._main_prediction = main_prediction
        prediction = main_prediction
        view = self._view
        view.pc = pc
        view.target = target
        view.taken = taken
        view.instruction_gap = gap
        loop_predictor = self.loop_predictor
        wormhole = self.wormhole
        if loop_predictor is not None and self.use_loop_prediction:
            loop_prediction = loop_predictor.predict(view)
            if loop_prediction is not None:
                prediction = loop_prediction
        if wormhole is not None:
            wormhole_prediction = wormhole.predict(view)
            if wormhole_prediction is not None:
                prediction = wormhole_prediction
        if loop_predictor is not None:
            loop_predictor.update(view)
        if wormhole is not None:
            wormhole.update(view, main_mispredicted=main_prediction != taken)
        return prediction

    def observe_unconditional(self, record: BranchRecord) -> None:
        self.main.observe_unconditional(record)

    def storage_bits(self) -> int:
        bits = self.main.storage_bits()
        if self.loop_predictor is not None:
            bits += self.loop_predictor.storage_bits()
        if self.wormhole is not None:
            bits += self.wormhole.storage_bits()
        return bits


# --------------------------------------------------------------------------- #
# Shared-core decomposition
# --------------------------------------------------------------------------- #
#
# Every composite splits into a *core* -- the structures whose evolution
# depends only on the branch stream -- and a *head* -- everything whose
# behaviour depends on the configuration's corrector/sidecar knobs:
#
# * ``tage-gsc`` core: the :class:`SharedState` (global/path history, folded
#   registers, IMLI counter, local-history table) plus the
#   :class:`TAGEEngine`.  The TAGE engine's training
#   (``train_fields(pc, taken, ctx)``) never reads the corrector or the
#   final prediction, and the shared state advances as a pure function of
#   the branch fields, so N configurations with identical core geometry
#   evolve byte-identical cores regardless of their heads.
# * ``gehl`` core: the :class:`SharedState` only (the whole adder tree is
#   head; sharing the state still dedupes the folded-history maintenance
#   across heads, since registered folds are shape-deduplicated pure
#   functions of the global history).
#
# The local-history table is core state like the folded registers: it
# advances from ``(pc, taken)`` alone, only ``+l`` heads read it, and a
# global-only head never does.  A shared core therefore carries one when
# any member is a ``+l`` spec, and a solo global-only build carries none.
#
# ``core_key_for`` captures exactly the knobs the core depends on (the
# local-table geometry included, whatever ``local`` says); everything else
# (IMLI-SIC/OH, ``local``, ``oh_update_delay``, corrector sizing,
# loop/wormhole sidecars, IMLI-hashed global tables) is head-only.
# :mod:`repro.predictors.shared_core` uses this decomposition to drive one
# core step and N head steps per branch for a batch of same-key specs.


@dataclass(frozen=True)
class SharedCoreInfo:
    """How a composite predictor decomposes for shared-core batching.

    Attached by :func:`build` to every options-based predictor as the
    ``shared_core`` attribute: the hashable ``key`` groups batch members
    that can share one core, and ``options`` / ``sizes`` let
    :mod:`repro.predictors.shared_core` rebuild the member as a light head
    over a shared core.
    """

    key: tuple
    options: CompositeOptions
    sizes: SizeProfile


def _head_components(
    options: CompositeOptions, sizes: SizeProfile
) -> List[NeuralComponent]:
    """Fresh extra adder-tree components for one head (no shared state yet)."""
    extra_components: List[NeuralComponent] = []
    if options.imli_sic:
        extra_components.append(
            IMLISameIterationComponent(entries=sizes.sic_entries)
        )
    if options.imli_oh:
        extra_components.append(
            IMLIOuterHistoryComponent(
                prediction_entries=sizes.oh_prediction_entries,
                update_delay=options.oh_update_delay,
            )
        )
    if options.local:
        extra_components.append(
            LocalHistoryComponent(
                history_lengths=list(sizes.local_history_lengths),
                entries=sizes.local_entries,
            )
        )
    return extra_components


def _imli_hashed_global(
    options: CompositeOptions, sizes: SizeProfile, state
) -> IMLICountHashedGlobalComponent:
    """The optional IMLI-hashed global tables, bound to ``state``."""
    entries = (
        sizes.corrector.global_table_entries
        if options.base == "tage-gsc"
        else sizes.gehl.table_entries
    )
    return IMLICountHashedGlobalComponent(
        state=state,
        history_lengths=[9, 18][: options.imli_global_tables],
        entries=entries,
    )


def _local_table(
    options: CompositeOptions, sizes: SizeProfile
) -> Optional[LocalHistoryTable]:
    """The local-history table of a ``+l`` configuration (core state)."""
    if not options.local:
        return None
    return LocalHistoryTable(sizes.local_table_size, sizes.local_table_history_bits)


def _sidecar_parts(options: CompositeOptions, sizes: SizeProfile) -> Optional[tuple]:
    """``(loop, wormhole, use_loop_prediction)`` for one head, or ``None``."""
    if not (options.local or options.loop or options.wormhole):
        return None
    loop_predictor = LoopPredictor(LoopPredictorConfig(entries=sizes.loop_entries))
    wormhole = (
        WormholePredictor(loop_predictor, WormholePredictorConfig())
        if options.wormhole
        else None
    )
    return loop_predictor, wormhole, options.local or options.loop


def build(
    options: CompositeOptions, profile: Union[str, SizeProfile] = "default"
) -> BranchPredictor:
    """Build the composite predictor described by ``options``.

    Parameters
    ----------
    options:
        Which base predictor and which side components to assemble.
    profile:
        Size profile: a profile name (``"default"`` for the benchmark
        harness, ``"small"`` for fast unit tests, or any name registered on
        the default registry) or a :class:`SizeProfile` instance.
    """
    if isinstance(profile, SizeProfile):
        sizes = profile
    elif profile in _PROFILES:
        sizes = _PROFILES[profile]
    else:
        raise KeyError(f"unknown size profile {profile!r}; known: {sorted(_PROFILES)}")

    extra_components = _head_components(options, sizes)
    local_table = _local_table(options, sizes)

    label = options.label()
    if options.base == "tage-gsc":
        main = TAGEGSCPredictor(
            config=TAGEGSCConfig(tage=sizes.tage, corrector=sizes.corrector),
            extra_sc_components=extra_components,
            local_history_table=local_table,
            name=label,
        )
        if options.imli_global_tables:
            # The IMLI-hashed global tables need the shared state, so they
            # are appended after the main predictor is built.
            main.corrector.adder.components.append(
                _imli_hashed_global(options, sizes, main.state)
            )
    elif options.base == "gehl":
        main = GEHLPredictor(
            config=sizes.gehl,
            extra_components=extra_components,
            local_history_table=local_table,
            name=label,
        )
        if options.imli_global_tables:
            main.adder.components.append(
                _imli_hashed_global(options, sizes, main.state)
            )
    else:
        raise ValueError(f"unknown base predictor {options.base!r}")

    sidecars = _sidecar_parts(options, sizes)
    if sidecars is None:
        predictor: BranchPredictor = main
    else:
        loop_predictor, wormhole, use_loop_prediction = sidecars
        predictor = SidecarPredictor(
            main,
            loop_predictor=loop_predictor,
            wormhole=wormhole,
            use_loop_prediction=use_loop_prediction,
            name=label,
        )
    predictor.shared_core = SharedCoreInfo(
        key=core_key_for(options, sizes), options=options, sizes=sizes
    )
    return predictor


# --------------------------------------------------------------------------- #
# Named configuration registry
# --------------------------------------------------------------------------- #


def configuration_names() -> List[str]:
    """Names of all registered configurations (options- and builder-based)."""
    from repro.api.registry import default_registry

    return default_registry().names()


def build_named(name: str, profile: str = "default") -> BranchPredictor:
    """Build one of the registered configurations by name.

    Thin shim over :meth:`repro.api.registry.Registry.build` on the default
    registry, kept for backwards compatibility.
    """
    from repro.api.registry import default_registry

    return default_registry().build(name, profile=profile)


def factory(name: str, profile: str = "default") -> Callable[[], BranchPredictor]:
    """Return a zero-argument factory for a registered configuration.

    The simulation runner builds a fresh predictor per trace, so factories
    rather than instances are passed around.
    """
    def _build() -> BranchPredictor:
        return build_named(name, profile=profile)

    return _build
