"""Observability layer: metrics, structured events, timings, status HTTP.

Four small stdlib-only modules that make the sweep service operable:

* :mod:`repro.obs.metrics` -- counters / gauges / fixed-bucket
  histograms with Prometheus text rendering; process-wide registry
  gated by ``REPRO_TELEMETRY``.
* :mod:`repro.obs.events` -- structured JSONL event log
  (``repro.obs.log``) with size-capped rotation; gated/redirected by
  ``REPRO_OBS_LOG``.
* :mod:`repro.obs.timings` -- per-cell phase timing artifacts
  (``timings.jsonl`` + aggregated histograms) written next to the
  result store; gated by ``REPRO_TIMINGS``.
* :mod:`repro.obs.http` -- read-only coordinator status endpoints
  (``repro serve --status-port``), consumed live by
  :mod:`repro.obs.top` (``repro top``).

Nothing here feeds back into simulation results, store keys or
scheduling decisions: the observability layer can be disabled wholesale
without changing a single output byte.
"""

from repro._lazy import lazy_exports

#: Default port of the read-only status endpoints (:mod:`repro.obs.http`):
#: one above the coordinator's TCP work port (4780).
DEFAULT_STATUS_PORT = 4781

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.events": ["DEFAULT_EVENT_LOG", "EventLog", "event_log_for"],
    "repro.obs.metrics": [
        "DEFAULT_TIME_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "default_registry",
        "reset_default_registry",
        "telemetry_enabled",
    ],
    "repro.obs.timings": [
        "TIMINGS_FILE",
        "TIMINGS_SUMMARY_FILE",
        "TimingLog",
        "summarize_timings",
        "timing_log_for",
        "timings_enabled",
    ],
})
__all__ += ["DEFAULT_STATUS_PORT"]
