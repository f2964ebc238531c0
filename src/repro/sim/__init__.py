"""Trace-driven simulation framework.

* :mod:`repro.sim.engine` -- the immediate-update trace-driven simulator and
  the MPKI-based :class:`SimulationResult`.
* :mod:`repro.sim.metrics` -- aggregation helpers (average MPKI, per-trace
  deltas, most-improved / most-affected selections).
* :mod:`repro.sim.runner` -- the memoising suite runner used by the
  benchmark harness.
* :mod:`repro.sim.storage` -- storage and speculative-state accounting.
* :mod:`repro.sim.delayed_update` -- the Section 4.3.2 delayed-update
  experiment.
* :mod:`repro.sim.checkpointing` -- the speculative checkpoint/recovery
  model backing the paper's practicality argument.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.checkpointing": [
        "CheckpointRecoveryReport",
        "run_checkpoint_recovery",
        "speculative_management_cost",
    ],
    "repro.sim.delayed_update": ["DelayedUpdateResult", "run_delayed_update_experiment"],
    "repro.sim.engine": ["SimulationResult", "simulate"],
    "repro.sim.metrics": [
        "average_mpki",
        "most_affected",
        "most_improved",
        "mpki_by_trace",
        "mpki_delta",
        "mpki_reduction_percent",
    ],
    "repro.sim.runner": ["ConfigurationRun", "SuiteRunner"],
    "repro.sim.storage": [
        "StorageReport",
        "imli_component_cost_bits",
        "speculative_state_report",
        "storage_report",
    ],
})
