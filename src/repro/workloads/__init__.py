"""Synthetic benchmark workloads.

The paper evaluates on the CBP3 and CBP4 championship trace sets (2 x 40
traces).  Those traces are not redistributable and contain billions of
branches, so this package provides the substitute described in DESIGN.md:
parameterised program *kernels* whose branch streams exhibit exactly the
correlation structures the paper analyses, composed into two named suites
("cbp4like" and "cbp3like") whose member names mirror the traces the paper
highlights (``SPEC2K6-04``, ``SPEC2K6-12``, ``MM-4``, ``CLIENT02``,
``MM07``, ``WS03``, ``WS04`` ...).

* :mod:`repro.workloads.emitter` -- the :class:`KernelEmitter` that kernels
  use to emit branch records with stable synthetic PCs.
* :mod:`repro.workloads.kernels` -- the kernel classes (nested loops with
  same-iteration correlation, wormhole-style diagonal correlation,
  alternating outer-iteration correlation, local periodic patterns,
  loop-exit codes, biased/correlated/noise mixes).
* :mod:`repro.workloads.suites` -- benchmark and suite definitions plus the
  generators that turn them into :class:`~repro.trace.trace.Trace` objects.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.emitter": ["KernelEmitter"],
    "repro.workloads.kernels": [
        "AlternatingOuterKernel",
        "BiasedMixKernel",
        "GlobalCorrelatedKernel",
        "Kernel",
        "LocalPeriodicKernel",
        "LoopExitKernel",
        "NoiseKernel",
        "SameIterationKernel",
        "WormholeDiagonalKernel",
    ],
    "repro.workloads.suites": [
        "BenchmarkSpec",
        "SuiteSpec",
        "benchmark_names",
        "generate_benchmark",
        "generate_suite",
        "get_benchmark",
        "get_suite",
        "suite_names",
    ],
})
