"""Plain-data predictor configuration: geometries, size profiles and options.

Everything a sweep needs to *name* a predictor lives here, apart from the
code that *builds* one:

* the table geometries of the base predictors -- :class:`TAGEConfig`,
  :class:`StatisticalCorrectorConfig`, :class:`GEHLConfig`;
* :class:`SizeProfile` and the two built-in profiles, ``"default"`` and
  ``"small"`` (:data:`_PROFILES`);
* :class:`CompositeOptions`, the paper's named configurations
  (:data:`CONFIGURATIONS`) and the shared-core key :func:`core_key_for`.

Resolving a :class:`~repro.api.specs.PredictorSpec` and computing a result
store cell key only need these, so this module imports nothing from
:mod:`repro.predictors` or :mod:`repro.core`: a sweep answered from the
store never loads a predictor implementation.  Every name is re-exported
from its historical home (``repro.predictors.tage.TAGEConfig``,
``repro.predictors.composites.SizeProfile`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = [
    "CONFIGURATIONS",
    "CompositeOptions",
    "GEHLConfig",
    "SizeProfile",
    "StatisticalCorrectorConfig",
    "TAGEConfig",
    "core_key_for",
    "geometric_history_lengths",
]


def geometric_history_lengths(
    count: int, minimum: int, maximum: int
) -> List[int]:
    """Return ``count`` history lengths in geometric progression.

    This is the geometric-history-length scheme of O-GEHL and TAGE: the
    first length is ``minimum``, the last is ``maximum`` and intermediate
    lengths follow a geometric series (rounded, strictly increasing).
    """
    if count <= 0:
        raise ValueError(f"length count must be positive, got {count}")
    if minimum <= 0 or maximum < minimum:
        raise ValueError(
            f"invalid geometric range [{minimum}, {maximum}]"
        )
    if count == 1:
        return [minimum]
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths: List[int] = []
    for position in range(count):
        length = int(round(minimum * (ratio ** position)))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    lengths[-1] = max(lengths[-1], maximum)
    return lengths


@dataclass(frozen=True)
class TAGEConfig:
    """Geometry of a TAGE predictor."""

    num_tables: int = 10
    table_entries: int = 512
    tag_bits: int = 10
    counter_bits: int = 3
    useful_bits: int = 2
    min_history: int = 4
    max_history: int = 256
    base_entries: int = 4096
    base_counter_bits: int = 2
    use_alt_counter_bits: int = 4
    useful_reset_period: int = 16384

    def history_lengths(self) -> List[int]:
        """Geometric history lengths, one per tagged table (short to long)."""
        return geometric_history_lengths(
            self.num_tables, self.min_history, self.max_history
        )


@dataclass(frozen=True)
class StatisticalCorrectorConfig:
    """Geometry of the statistical corrector."""

    bias_entries: int = 1024
    counter_bits: int = 6
    global_table_entries: int = 512
    global_history_lengths: Sequence[int] = (4, 9, 16, 27, 44)
    initial_threshold: int = 6
    #: Minimum |sum| for the corrector to revert the TAGE prediction.
    revert_margin: int = 5

    def __post_init__(self) -> None:
        if not self.global_history_lengths:
            raise ValueError("the corrector needs at least one global history length")
        if self.revert_margin < 0:
            raise ValueError(
                f"revert margin must be non-negative, got {self.revert_margin}"
            )


@dataclass(frozen=True)
class GEHLConfig:
    """Geometry of a GEHL predictor."""

    num_tables: int = 8
    table_entries: int = 1024
    counter_bits: int = 6
    min_history: int = 3
    max_history: int = 200
    bias_entries: int = 1024
    initial_threshold: int = 8
    history_capacity: int = 1024
    path_capacity: int = 32
    imli_counter_bits: int = 10

    def history_lengths(self) -> List[int]:
        """Geometric history lengths, one per history-indexed table."""
        return geometric_history_lengths(
            self.num_tables, self.min_history, self.max_history
        )


@dataclass(frozen=True)
class SizeProfile:
    """Scaled table geometries for one size profile.

    Custom profiles are registered through
    :meth:`repro.api.registry.Registry.register_profile`; the two built-in
    profiles live in the default registry under the names ``"default"`` and
    ``"small"``.
    """

    tage: TAGEConfig
    corrector: StatisticalCorrectorConfig
    gehl: GEHLConfig
    sic_entries: int
    oh_prediction_entries: int
    local_entries: int
    local_history_lengths: Sequence[int]
    local_table_size: int
    local_table_history_bits: int
    loop_entries: int


#: The built-in size profiles; the default registry's profile store.
_PROFILES: Dict[str, SizeProfile] = {
    "default": SizeProfile(
        tage=TAGEConfig(),
        corrector=StatisticalCorrectorConfig(),
        gehl=GEHLConfig(),
        sic_entries=512,
        oh_prediction_entries=256,
        local_entries=1024,
        local_history_lengths=(6, 11, 16),
        local_table_size=256,
        local_table_history_bits=16,
        loop_entries=16,
    ),
    "small": SizeProfile(
        tage=TAGEConfig(
            num_tables=6,
            table_entries=256,
            base_entries=1024,
            max_history=80,
            useful_reset_period=4096,
        ),
        corrector=StatisticalCorrectorConfig(
            bias_entries=256,
            global_table_entries=256,
            global_history_lengths=(4, 9, 18),
        ),
        gehl=GEHLConfig(
            num_tables=5,
            table_entries=256,
            bias_entries=256,
            max_history=64,
        ),
        sic_entries=256,
        oh_prediction_entries=256,
        local_entries=256,
        local_history_lengths=(5, 10),
        local_table_size=128,
        local_table_history_bits=12,
        loop_entries=16,
    ),
}


@dataclass(frozen=True)
class CompositeOptions:
    """Feature switches for one composite configuration.

    Attributes
    ----------
    base:
        ``"tage-gsc"`` or ``"gehl"``.
    imli_sic / imli_oh:
        Add the IMLI-SIC / IMLI-OH components to the neural part.
    local:
        Add local-history corrector tables and activate the loop predictor
        (the "+L" configurations of Tables 1 and 2).
    loop:
        Add only the loop predictor as an active side predictor (used to
        reproduce the Section 4.2.2 observation that the loop predictor
        adds little once IMLI-SIC is present).
    wormhole:
        Add the wormhole side predictor (with a loop predictor supplying
        trip counts but not predictions).
    imli_global_tables:
        Number of additional global-history tables whose index also hashes
        the IMLI counter (the optional refinement of Section 4.2; used by
        the ablation benchmarks).
    oh_update_delay:
        Delay, in conditional branches, applied to IMLI history table
        updates (Section 4.3.2 delayed-update experiment).
    """

    base: str = "tage-gsc"
    imli_sic: bool = False
    imli_oh: bool = False
    local: bool = False
    loop: bool = False
    wormhole: bool = False
    imli_global_tables: int = 0
    oh_update_delay: int = 0

    def label(self) -> str:
        """Configuration label used in reports (e.g. ``tage-gsc+imli``)."""
        parts = [self.base]
        if self.imli_sic and self.imli_oh:
            parts.append("imli")
        elif self.imli_sic:
            parts.append("sic")
        elif self.imli_oh:
            parts.append("oh")
        if self.imli_global_tables:
            parts.append("imlihash")
        if self.local:
            parts.append("l")
        elif self.loop:
            parts.append("loop")
        if self.wormhole:
            parts.append("wh")
        return "+".join(parts)


def core_key_for(options: CompositeOptions, sizes: SizeProfile) -> tuple:
    """Hashable identity of the core that ``(options, sizes)`` would build.

    Two specs whose keys compare equal evolve byte-identical cores over any
    branch stream, so a batch of them can compute that core once per branch.
    The key is ``(base, engine geometry, local-table geometry)``: the base
    kind, the full base-engine geometry (:class:`TAGEConfig` /
    :class:`GEHLConfig`, both frozen all-scalar dataclasses) and
    ``(local_table_size, local_table_history_bits)``.  The local geometry
    is carried whatever ``local`` says: like the folded registers, the
    local-history table is a pure function of the branch stream, so a
    ``+l`` spec shares its core with its global-only siblings (whose heads
    never read the table), and only a profile with a different local
    geometry splits the group.  Head-only knobs (``imli_sic``, ``imli_oh``,
    ``oh_update_delay``, ``local``, ``loop``, ``wormhole``,
    ``imli_global_tables``, corrector sizing) deliberately do not appear.
    """
    local_geometry = (sizes.local_table_size, sizes.local_table_history_bits)
    if options.base == "tage-gsc":
        return ("tage-gsc", sizes.tage, local_geometry)
    if options.base == "gehl":
        return ("gehl", sizes.gehl, local_geometry)
    raise ValueError(f"unknown base predictor {options.base!r}")


def _registry() -> Dict[str, CompositeOptions]:
    configurations: Dict[str, CompositeOptions] = {}
    for base in ("tage-gsc", "gehl"):
        configurations[base] = CompositeOptions(base=base)
        configurations[f"{base}+sic"] = CompositeOptions(base=base, imli_sic=True)
        configurations[f"{base}+oh"] = CompositeOptions(base=base, imli_oh=True)
        configurations[f"{base}+imli"] = CompositeOptions(
            base=base, imli_sic=True, imli_oh=True
        )
        configurations[f"{base}+l"] = CompositeOptions(base=base, local=True)
        configurations[f"{base}+imli+l"] = CompositeOptions(
            base=base, imli_sic=True, imli_oh=True, local=True
        )
        configurations[f"{base}+loop"] = CompositeOptions(base=base, loop=True)
        configurations[f"{base}+sic+loop"] = CompositeOptions(
            base=base, imli_sic=True, loop=True
        )
        configurations[f"{base}+wh"] = CompositeOptions(base=base, wormhole=True)
        configurations[f"{base}+sic+wh"] = CompositeOptions(
            base=base, imli_sic=True, wormhole=True
        )
    # The paper's TAGE-SC-L is TAGE-GSC with local history and the loop
    # predictor activated; the "record" configuration adds the IMLI
    # components on top (Section 5).
    configurations["tage-sc-l"] = CompositeOptions(base="tage-gsc", local=True)
    configurations["tage-sc-l+imli"] = CompositeOptions(
        base="tage-gsc", imli_sic=True, imli_oh=True, local=True
    )
    return configurations


#: The paper's named configurations.  This dict doubles as the option store
#: of the default :class:`repro.api.registry.Registry`, so configurations
#: registered there (``register_configuration``) appear here too and vice
#: versa.  Prefer the registry for new code; this name is kept as a
#: backwards-compatible view.
CONFIGURATIONS: Dict[str, CompositeOptions] = _registry()
