"""Benchmark and suite definitions.

The paper evaluates on the 40 CBP4 traces and the 40 CBP3 traces.  This
module defines two synthetic stand-in suites, ``"cbp4like"`` and
``"cbp3like"``, of 20 named benchmarks each.  Benchmark names mirror the
traces the paper highlights so the reproduced figures read like the
originals:

* ``SPEC2K6-04``, ``WS04`` -- dominated by same-iteration correlation with a
  varying inner trip count: large IMLI-SIC benefit, no wormhole benefit.
* ``SPEC2K6-12``, ``CLIENT02``, ``MM07`` -- hard benchmarks with
  wormhole-style outer-iteration correlation: helped by WH and IMLI-OH
  (and partly IMLI-SIC).
* ``MM-4`` -- a mostly easy benchmark with a small alternating
  outer-iteration kernel: low base MPKI, helped by WH / IMLI-OH only.
* ``WS03`` -- marginal IMLI benefit.
* The remaining benchmarks mix biased, globally-correlated, locally
  periodic, loop-exit and noisy branches so that the IMLI components leave
  them essentially unchanged while local-history components show a small,
  evenly spread benefit (Figures 14 and 15).

Each benchmark is generated deterministically from its seed, so every run
of the test and benchmark suites sees the same traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.trace.trace import Trace, load_trace_binary, save_trace_binary

if TYPE_CHECKING:  # pragma: no cover - the kernels load only to generate
    from repro.workloads.emitter import KernelEmitter
    from repro.workloads.kernels import Kernel

__all__ = [
    "PhaseSpec",
    "BenchmarkSpec",
    "SuiteSpec",
    "suite_names",
    "get_suite",
    "benchmark_names",
    "get_benchmark",
    "generate_benchmark",
    "generate_suite",
    "trace_cache_dir",
]


@dataclass(frozen=True)
class PhaseSpec:
    """One kernel phase inside a benchmark.

    Attributes
    ----------
    kernel:
        Registry name of the kernel (see
        :func:`repro.workloads.kernels.build_kernel`).
    params:
        Keyword arguments passed to the kernel constructor.
    rounds_per_cycle:
        How many rounds of this kernel are emitted per interleaving cycle;
        acts as a weight controlling the phase's share of the trace.
    """

    kernel: str
    params: Mapping[str, object] = field(default_factory=dict)
    rounds_per_cycle: int = 1


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark: a seeded composition of kernel phases."""

    name: str
    phases: Tuple[PhaseSpec, ...]
    seed: int
    description: str = ""


@dataclass(frozen=True)
class SuiteSpec:
    """A named, ordered collection of benchmarks."""

    name: str
    benchmarks: Tuple[BenchmarkSpec, ...]

    def names(self) -> List[str]:
        """Benchmark names in suite order."""
        return [benchmark.name for benchmark in self.benchmarks]

    def get(self, benchmark_name: str) -> BenchmarkSpec:
        """Return the benchmark named ``benchmark_name``."""
        for benchmark in self.benchmarks:
            if benchmark.name == benchmark_name:
                return benchmark
        raise KeyError(
            f"benchmark {benchmark_name!r} not in suite {self.name!r}; "
            f"known: {self.names()}"
        )


def _spec(name: str, seed: int, description: str, *phases: PhaseSpec) -> BenchmarkSpec:
    return BenchmarkSpec(name=name, phases=tuple(phases), seed=seed, description=description)


def _phase(kernel: str, rounds: int = 1, **params: object) -> PhaseSpec:
    return PhaseSpec(kernel=kernel, params=params, rounds_per_cycle=rounds)


def _cbp4like_suite() -> SuiteSpec:
    benchmarks = (
        _spec(
            "SPEC2K6-00", 1400, "easy integer code: biased checks and short correlation",
            _phase("biased_mix", 2, branch_count=28),
            _phase("global_correlated", 1, depth=3),
        ),
        _spec(
            "SPEC2K6-02", 1402, "locally periodic branches behind noise",
            _phase("local_periodic", 1, branch_count=4, period=7),
            _phase("biased_mix", 1, branch_count=20),
        ),
        _spec(
            "SPEC2K6-04", 1404,
            "nested loop, same-iteration correlation, varying trip count "
            "(large IMLI-SIC benefit, no wormhole benefit)",
            _phase("same_iteration", 2, max_trip=48, outer_iterations=8,
                   variable_trip=True, noise_branches=2),
            _phase("biased_mix", 1, branch_count=16),
        ),
        _spec(
            "SPEC2K6-06", 1406, "globally correlated control flow",
            _phase("global_correlated", 2, depth=4),
            _phase("biased_mix", 1, branch_count=18),
        ),
        _spec(
            "SPEC2K6-08", 1408, "regular loops with noisy bodies",
            _phase("loop_exit", 1, trip=40, executions_per_round=8),
            _phase("biased_mix", 1, branch_count=20),
        ),
        _spec(
            "SPEC2K6-10", 1410, "data-dependent, hard-to-predict branches",
            _phase("noise", 1, branch_count=6),
            _phase("biased_mix", 1, branch_count=18),
        ),
        _spec(
            "SPEC2K6-12", 1412,
            "hard benchmark with wormhole-style diagonal correlation "
            "(helped by WH, IMLI-OH and IMLI-SIC)",
            _phase("wormhole_diagonal", 2, trip=32, outer_iterations=12, noise_branches=1),
            _phase("same_iteration", 1, max_trip=32, outer_iterations=8,
                   variable_trip=False, noise_branches=2),
            _phase("noise", 1, branch_count=4, executions_per_round=40,
                   taken_probability=0.58),
        ),
        _spec(
            "SPEC2K6-14", 1414, "easy mixed integer code",
            _phase("biased_mix", 2, branch_count=26),
            _phase("global_correlated", 1, depth=2),
        ),
        _spec(
            "SPECFP-01", 1416, "floating point: long regular loops",
            _phase("loop_exit", 2, trip=52, executions_per_round=6),
            _phase("biased_mix", 1, branch_count=14),
        ),
        _spec(
            "SPECFP-02", 1418, "floating point: highly predictable",
            _phase("biased_mix", 3, branch_count=30, minimum_bias=0.9),
            _phase("global_correlated", 1, depth=2),
        ),
        _spec(
            "SERVER-01", 1420, "server code with local periodicity and noise",
            _phase("local_periodic", 1, branch_count=5, period=6),
            _phase("noise", 1, branch_count=3, executions_per_round=30),
            _phase("biased_mix", 1, branch_count=22),
        ),
        _spec(
            "SERVER-02", 1422, "server code, globally correlated",
            _phase("global_correlated", 2, depth=3),
            _phase("local_periodic", 1, branch_count=2, period=5),
            _phase("biased_mix", 1, branch_count=20),
        ),
        _spec(
            "SERVER-03", 1424, "server code, data dependent",
            _phase("noise", 1, branch_count=5, executions_per_round=40),
            _phase("biased_mix", 2, branch_count=24),
        ),
        _spec(
            "CLIENT-01", 1426, "client code with locally periodic branches",
            _phase("local_periodic", 1, branch_count=6, period=9),
            _phase("biased_mix", 1, branch_count=18),
        ),
        _spec(
            "CLIENT-03", 1428, "client code, mixed",
            _phase("biased_mix", 2, branch_count=24),
            _phase("global_correlated", 1, depth=3),
            _phase("noise", 1, branch_count=2, executions_per_round=20),
        ),
        _spec(
            "MM-1", 1430, "multimedia: regular loops",
            _phase("loop_exit", 2, trip=36, executions_per_round=8),
            _phase("biased_mix", 1, branch_count=16),
        ),
        _spec(
            "MM-4", 1432,
            "mostly predictable multimedia kernel with a small alternating "
            "outer-iteration component (low MPKI, helped by WH / IMLI-OH)",
            _phase("biased_mix", 5, branch_count=30, minimum_bias=0.97),
            _phase("global_correlated", 2, depth=2),
            _phase("alternating_outer", 1, trip=24, outer_iterations=12, noise_branches=1),
        ),
        _spec(
            "MM-6", 1434, "multimedia: periodic and loop dominated",
            _phase("local_periodic", 1, branch_count=3, period=5),
            _phase("loop_exit", 1, trip=28, executions_per_round=6),
            _phase("biased_mix", 1, branch_count=14),
        ),
        _spec(
            "WS-01", 1436, "web search: biased plus noise",
            _phase("biased_mix", 2, branch_count=26),
            _phase("noise", 1, branch_count=3, executions_per_round=30),
        ),
        _spec(
            "WS-02", 1438, "web search: globally correlated",
            _phase("global_correlated", 2, depth=3),
            _phase("biased_mix", 1, branch_count=22),
        ),
    )
    return SuiteSpec(name="cbp4like", benchmarks=benchmarks)


def _cbp3like_suite() -> SuiteSpec:
    benchmarks = (
        _spec(
            "CLIENT01", 2400, "client code with locally periodic branches",
            _phase("local_periodic", 1, branch_count=5, period=8),
            _phase("biased_mix", 1, branch_count=20),
        ),
        _spec(
            "CLIENT02", 2402,
            "hard client benchmark with wormhole-style correlation "
            "(helped by WH and IMLI-OH, modest IMLI-SIC benefit)",
            _phase("wormhole_diagonal", 3, trip=36, outer_iterations=10, noise_branches=1),
            _phase("same_iteration", 1, max_trip=24, outer_iterations=6,
                   variable_trip=True, noise_branches=2),
            _phase("noise", 1, branch_count=5, executions_per_round=50,
                   taken_probability=0.6),
        ),
        _spec(
            "CLIENT03", 2404, "client code, mixed easy",
            _phase("biased_mix", 2, branch_count=26),
            _phase("global_correlated", 1, depth=3),
        ),
        _spec(
            "CLIENT04", 2406, "client code with periodic branches and noise",
            _phase("local_periodic", 1, branch_count=4, period=6),
            _phase("noise", 1, branch_count=3, executions_per_round=30),
            _phase("biased_mix", 1, branch_count=18),
        ),
        _spec(
            "INT01", 2408, "integer code, easy",
            _phase("biased_mix", 2, branch_count=28),
            _phase("global_correlated", 1, depth=3),
        ),
        _spec(
            "INT02", 2410, "integer code, data dependent",
            _phase("noise", 1, branch_count=5, executions_per_round=40),
            _phase("biased_mix", 1, branch_count=20),
        ),
        _spec(
            "INT03", 2412, "integer code, loop dominated",
            _phase("loop_exit", 2, trip=44, executions_per_round=6),
            _phase("biased_mix", 1, branch_count=18),
        ),
        _spec(
            "INT04", 2414, "integer code, globally correlated",
            _phase("global_correlated", 3, depth=4),
            _phase("biased_mix", 1, branch_count=16),
        ),
        _spec(
            "INT05", 2416, "integer code with periodic branches",
            _phase("local_periodic", 1, branch_count=4, period=7),
            _phase("biased_mix", 1, branch_count=22),
        ),
        _spec(
            "MM01", 2418, "multimedia: regular loops",
            _phase("biased_mix", 1, branch_count=20),
            _phase("loop_exit", 1, trip=32, executions_per_round=8),
        ),
        _spec(
            "MM02", 2420, "multimedia: periodic and correlated",
            _phase("local_periodic", 1, branch_count=3, period=5),
            _phase("global_correlated", 1, depth=3),
            _phase("biased_mix", 1, branch_count=16),
        ),
        _spec(
            "MM07", 2422,
            "very hard multimedia benchmark combining same-iteration and "
            "wormhole correlation under heavy noise",
            _phase("same_iteration", 2, max_trip=40, outer_iterations=8,
                   variable_trip=False, noise_branches=2),
            _phase("wormhole_diagonal", 2, trip=28, outer_iterations=10, noise_branches=1),
            _phase("noise", 2, branch_count=6, executions_per_round=50,
                   taken_probability=0.52),
        ),
        _spec(
            "MM08", 2424, "multimedia: highly predictable",
            _phase("biased_mix", 3, branch_count=30, minimum_bias=0.9),
            _phase("global_correlated", 1, depth=2),
        ),
        _spec(
            "MM10", 2426, "multimedia: data dependent",
            _phase("noise", 1, branch_count=4, executions_per_round=40),
            _phase("global_correlated", 1, depth=3),
            _phase("biased_mix", 1, branch_count=18),
        ),
        _spec(
            "SERVER01", 2428, "server code with periodic branches",
            _phase("biased_mix", 2, branch_count=24),
            _phase("local_periodic", 1, branch_count=5, period=7),
        ),
        _spec(
            "SERVER02", 2430, "server code, globally correlated",
            _phase("global_correlated", 2, depth=3),
            _phase("biased_mix", 1, branch_count=22),
        ),
        _spec(
            "SERVER03", 2432, "server code, data dependent",
            _phase("noise", 1, branch_count=5, executions_per_round=40),
            _phase("biased_mix", 2, branch_count=26),
        ),
        _spec(
            "WS01", 2434, "web search: mixed easy",
            _phase("biased_mix", 2, branch_count=26),
            _phase("global_correlated", 1, depth=3),
        ),
        _spec(
            "WS03", 2436,
            "web search with a small same-iteration component "
            "(marginal IMLI benefit)",
            _phase("biased_mix", 3, branch_count=26),
            _phase("local_periodic", 1, branch_count=3, period=6),
            _phase("same_iteration", 1, max_trip=20, outer_iterations=4,
                   variable_trip=True, noise_branches=1),
        ),
        _spec(
            "WS04", 2438,
            "web search dominated by same-iteration correlation with a "
            "varying trip count (largest IMLI-SIC benefit, no WH benefit)",
            _phase("same_iteration", 3, max_trip=56, outer_iterations=8,
                   variable_trip=True, noise_branches=2),
            _phase("noise", 1, branch_count=3, executions_per_round=30),
            _phase("biased_mix", 1, branch_count=14),
        ),
    )
    return SuiteSpec(name="cbp3like", benchmarks=benchmarks)


_SUITES: Dict[str, SuiteSpec] = {
    "cbp4like": _cbp4like_suite(),
    "cbp3like": _cbp3like_suite(),
}


def suite_names() -> List[str]:
    """Names of the available suites (``["cbp4like", "cbp3like"]``)."""
    return list(_SUITES)


def get_suite(name: str) -> SuiteSpec:
    """Return the :class:`SuiteSpec` named ``name``."""
    try:
        return _SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(_SUITES)}") from None


def benchmark_names(suite: str) -> List[str]:
    """Benchmark names of ``suite`` in suite order."""
    return get_suite(suite).names()


def get_benchmark(suite: str, benchmark: str) -> BenchmarkSpec:
    """Return the :class:`BenchmarkSpec` for ``benchmark`` in ``suite``."""
    return get_suite(suite).get(benchmark)


# Distinct PC regions for the phases of one benchmark so static branches of
# different kernels never alias.
_PHASE_PC_STRIDE = 0x40000

# ---------------------------------------------------------------------------
# On-disk generation cache.
#
# Synthetic traces are deterministic in their generator parameters, so the
# first process to generate a benchmark can serialise it (binary trace
# format) for every later process -- repeated benchmark invocations and the
# parallel suite-runner workers then deserialise instead of re-emitting
# kernels.  The cache key covers every input of generate_benchmark plus a
# fingerprint of the generator source files, so editing kernels, the
# emitter or this module automatically invalidates old entries.
# ---------------------------------------------------------------------------

#: Bump when the cache key schema itself changes.
_GENERATOR_VERSION = 1

#: Environment variable controlling the cache: unset = default directory,
#: ``0``/``off`` = disabled, any other value = cache directory to use.
_TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

_generator_fingerprint_cache: Optional[str] = None


def _generator_fingerprint() -> str:
    """Hash of the generator source files, folded into every cache key.

    Any edit to kernel emission, the emitter or this module changes the
    fingerprint, so stale traces can never be served after a behavioural
    change -- no manual version bump required.
    """
    global _generator_fingerprint_cache
    if _generator_fingerprint_cache is None:
        digest = hashlib.sha256()
        here = Path(__file__).parent
        for source in (here / "kernels.py", here / "emitter.py", Path(__file__)):
            try:
                digest.update(source.read_bytes())
            except OSError:
                digest.update(source.name.encode("utf-8"))
        _generator_fingerprint_cache = digest.hexdigest()
    return _generator_fingerprint_cache


def trace_cache_dir() -> Optional[Path]:
    """Directory of the trace generation cache, or ``None`` when disabled."""
    value = os.environ.get(_TRACE_CACHE_ENV)
    if value is not None:
        if value.strip().lower() in ("", "0", "off"):
            return None
        return Path(value)
    path = Path(tempfile.gettempdir()) / f"repro-trace-cache-{os.getuid()}"
    # /tmp is world-writable: refuse a default cache directory that another
    # user pre-created (cache poisoning); an explicitly configured directory
    # is trusted as-is.
    try:
        owner = path.stat().st_uid
    except OSError:
        return path
    if owner != os.getuid():
        return None
    return path


def _cache_key(
    spec: BenchmarkSpec, target_conditional_branches: int, instruction_gap: int
) -> str:
    payload = json.dumps(
        {
            "generator_version": _GENERATOR_VERSION,
            "generator_fingerprint": _generator_fingerprint(),
            "name": spec.name,
            "seed": spec.seed,
            "phases": [
                {
                    "kernel": phase.kernel,
                    "params": {key: phase.params[key] for key in sorted(phase.params)},
                    "rounds": phase.rounds_per_cycle,
                }
                for phase in spec.phases
            ],
            "target": target_conditional_branches,
            "gap": instruction_gap,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_load(path: Path) -> Optional[Trace]:
    try:
        return load_trace_binary(path)
    except (OSError, ValueError, KeyError, EOFError, struct.error):
        return None


def _cache_store(trace: Trace, path: Path) -> None:
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        # Write-then-rename so concurrent generators never observe a
        # partially written cache entry.
        scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        save_trace_binary(trace, scratch)
        os.replace(scratch, path)
    except OSError:
        pass


def generate_benchmark(
    spec: BenchmarkSpec,
    target_conditional_branches: int = 20_000,
    instruction_gap: int = 9,
) -> Trace:
    """Generate the trace for ``spec`` (or load it from the on-disk cache).

    Kernel phases are interleaved in a weighted round-robin (each cycle
    emits ``rounds_per_cycle`` rounds of every phase) until the trace holds
    at least ``target_conditional_branches`` conditional branches.  The
    composition is deterministic given the benchmark seed, which is what
    makes the on-disk cache sound: generation parameters fully determine
    the trace.
    """
    if target_conditional_branches <= 0:
        raise ValueError(
            "target conditional branch count must be positive, "
            f"got {target_conditional_branches}"
        )
    cache_dir = trace_cache_dir()
    cache_path: Optional[Path] = None
    if cache_dir is not None:
        key = _cache_key(spec, target_conditional_branches, instruction_gap)
        cache_path = cache_dir / f"{spec.name}-{key[:16]}.rpt"
        if cache_path.is_file():
            cached = _cache_load(cache_path)
            if cached is not None:
                return cached
    trace = _generate_benchmark_uncached(
        spec, target_conditional_branches, instruction_gap
    )
    if cache_path is not None:
        _cache_store(trace, cache_path)
    return trace


def _generate_benchmark_uncached(
    spec: BenchmarkSpec,
    target_conditional_branches: int,
    instruction_gap: int,
) -> Trace:
    from repro.workloads.emitter import KernelEmitter
    from repro.workloads.kernels import build_kernel

    kernels: List[Tuple[Kernel, KernelEmitter, int]] = []
    for phase_index, phase in enumerate(spec.phases):
        kernel = build_kernel(
            phase.kernel, seed=spec.seed * 1000 + phase_index, **dict(phase.params)
        )
        # Give each phase instance a unique label prefix and PC region so
        # that two phases using the same kernel class never share PCs.
        kernel.label_prefix = f"{kernel.label_prefix}#{phase_index}"
        emitter = KernelEmitter(
            base_pc=0x10000 + phase_index * _PHASE_PC_STRIDE,
            instruction_gap=instruction_gap,
        )
        kernels.append((kernel, emitter, phase.rounds_per_cycle))

    trace = Trace(
        name=spec.name,
        metadata={
            "suite_seed": str(spec.seed),
            "description": spec.description,
            "target_conditional_branches": str(target_conditional_branches),
        },
    )
    # The trace maintains its conditional count incrementally, so the
    # stop condition is O(1) per cycle instead of a per-record rescan.
    while trace.conditional_count < target_conditional_branches:
        for kernel, emitter, rounds in kernels:
            for _ in range(rounds):
                kernel.emit_round(emitter)
            trace.extend(emitter.drain())
    return trace


def generate_suite(
    suite: str,
    target_conditional_branches: int = 20_000,
    benchmarks: Sequence[str] | None = None,
    instruction_gap: int = 9,
) -> List[Trace]:
    """Generate traces for every benchmark of ``suite`` (or a subset).

    Parameters
    ----------
    suite:
        Suite name, ``"cbp4like"`` or ``"cbp3like"``.
    target_conditional_branches:
        Minimum number of conditional branches per benchmark trace.
    benchmarks:
        Optional subset of benchmark names to generate (in suite order).
    instruction_gap:
        Non-branch instructions between consecutive branches.
    """
    suite_spec = get_suite(suite)
    selected = set(benchmarks) if benchmarks is not None else None
    traces = []
    for benchmark in suite_spec.benchmarks:
        if selected is not None and benchmark.name not in selected:
            continue
        traces.append(
            generate_benchmark(
                benchmark,
                target_conditional_branches=target_conditional_branches,
                instruction_gap=instruction_gap,
            )
        )
    return traces
