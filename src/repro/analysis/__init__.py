"""Reporting and experiment reproduction.

* :mod:`repro.analysis.tables` -- plain-text table formatting (Tables 1/2
  layout).
* :mod:`repro.analysis.figures` -- plain-text bar charts (Figures 8-15
  layout).
* :mod:`repro.analysis.experiments` -- the registry of reproduced
  experiments, one per table and figure of the paper's evaluation section.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.experiments": [
        "EXPERIMENTS",
        "ExperimentResult",
        "experiment_ids",
        "run_experiment",
    ],
    "repro.analysis.figures": ["format_bar_chart", "format_grouped_bar_chart"],
    "repro.analysis.tables": ["format_key_values", "format_mpki_table", "format_table"],
})
