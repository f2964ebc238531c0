"""Child-process helper of the benchmark: the only benchmark code that
imports ``repro``.

Modes (``python3 perfbench/probe.py <mode> ...``; ``PYTHONPATH`` points at
the checkout's ``src``)::

    cli SPANS -- ARGV...   run ``repro.cli.main(ARGV)`` with spans around
                           the calls into each layer, written to SPANS
    import                 time a fresh ``import repro.cli``
    setup JSON             generate the traces a workload needs (and the
                           ingest text trace) into the run's trace cache
    ladder JSON            per-component host cost per conditional branch

Spans are recorded from here, around the program's public functions, by
rebinding them for the life of this process; nothing under ``src/`` changes.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


class Tracer:
    """Spans ``[name, start, end, parent, thread]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1][5] if stack else -1,
                threading.get_ident(), len(self.spans)]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def inside(self, prefix: str) -> bool:
        """Whether a span named ``prefix...`` is open on this thread."""
        return any(span[0].startswith(prefix) for span in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, after=None, before=None,
             aliases: bool = True) -> None:
        """Rebind ``owner.attr`` -- and, with ``aliases``, every ``repro``
        module's alias of it -- to a wrapper recording a span ``name``."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        for module in list(sys.modules.values()) if aliases else ():
            namespace = getattr(module, "__dict__", None)
            if (
                namespace is not None
                and getattr(module, "__name__", "").startswith("repro")
                and namespace.get(attr) is original
            ):
                setattr(module, attr, wrapper)


def _count_cells(tracer: Tracer, args) -> None:
    # Only the outermost simulation call is a trace traversal.
    if tracer.inside("sim.simulate"):
        return
    predictors = args[0]
    tracer.count("sim.cells", len(predictors) if isinstance(predictors, (list, tuple)) else 1)
    tracer.count("sim.traversals")


def _count_store_get(tracer: Tracer, args, result) -> None:
    tracer.count("store.hits" if result is not None else "store.misses")


def _count_ingest(tracer: Tracer, args, report) -> None:
    tracer.count("ingest.records", report.records)
    tracer.count("ingest.repaired", report.repaired)
    tracer.count("ingest.skipped", report.skipped)


def _count_chunk(tracer: Tracer, args, result) -> None:
    tracer.count("trace.chunks")


def _snapshot_dist(tracer: Tracer, args) -> None:
    for key, value in getattr(args[0], "stats", {}).items():
        tracer.count(f"dist.{key}", value)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the CLI reaches."""
    import repro.api.experiment as experiment
    import repro.cli as cli
    import repro.sim.engine as engine
    import repro.store.result_store as result_store
    import repro.trace.chunked as chunked
    import repro.workloads.suites as suites

    tracer.wrap(suites, "generate_benchmark", "workloads.generate")
    tracer.wrap(suites, "load_trace_binary", "workloads.cache_load", aliases=False)
    tracer.wrap(chunked.ChunkedTrace, "chunk", "trace.chunk_decode", after=_count_chunk)
    tracer.wrap(engine, "simulate", "sim.simulate", before=_count_cells)
    tracer.wrap(engine, "simulate_many", "sim.simulate", before=_count_cells)
    tracer.wrap(experiment.Experiment, "run", "sim.runner")
    tracer.wrap(result_store.ResultStore, "get", "store.get", after=_count_store_get)
    tracer.wrap(result_store.ResultStore, "put", "store.put")
    for method in ("report", "to_csv", "to_json"):
        tracer.wrap(experiment.ResultSet, method, "cli.output")
    tracer.wrap(cli, "_write_output", "cli.output", aliases=False)
    if "repro.ingest" in sys.modules:
        import repro.ingest.pipeline as pipeline

        tracer.wrap(pipeline, "ingest_trace", "ingest.convert", after=_count_ingest)
    if "repro.dist" in sys.modules:
        import repro.dist.coordinator as coordinator

        tracer.wrap(coordinator.Coordinator, "submit", "dist.submit")
        tracer.wrap(coordinator.SweepJob, "wait", "dist.wait")
        tracer.wrap(coordinator.Coordinator, "shutdown", "dist.shutdown",
                    before=_snapshot_dist)


def command_cli(spans_path: str, argv: list) -> int:
    tracer = Tracer()
    span = tracer.open("import")
    import repro.cli as cli

    # The CLI imports these lazily inside the command; importing them here
    # keeps their cost in the import layer and lets install() wrap them.
    if argv[:1] in (["serve"], ["worker"]):
        import repro.dist.coordinator  # noqa: F401
        import repro.dist.worker  # noqa: F401
    if argv[:1] == ["ingest"]:
        import repro.ingest  # noqa: F401
    tracer.close(span)
    install(tracer)
    span = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(span)
        Path(spans_path).write_text(json.dumps({
            "started": STARTED,
            "main_thread": threading.main_thread().ident,
            "spans": [s[:5] for s in tracer.spans],
            "counters": tracer.counters,
            "finished": time.perf_counter(),
        }))
    return code


def command_import() -> int:
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    elapsed = time.perf_counter() - started
    modules = [name for name in sys.modules if name == "repro" or name.startswith("repro.")]
    print(json.dumps({"cli_s": elapsed, "repro_modules": len(modules)}))
    return 0


def _write_ingest_text(path: Path, seed: int, size: str) -> None:
    """Write the seeded CBP text trace: the rotated segments plus junk lines."""
    from repro.trace.branch import KIND_FROM_CODE
    from repro.workloads.suites import generate_benchmark, get_benchmark

    tokens = [kind.value for kind in KIND_FROM_CODE]
    length = W.INGEST_STREAM["segment_length"][size]
    segments = [
        generate_benchmark(get_benchmark(W.SUITE, name), length)
        for name in W.ingest_segments(seed)
    ]
    total = sum(len(segment) for segment in segments)
    junk = W.ingest_junk_positions(seed, total, size)
    junk_index, record_index = 0, 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"# synthetic CBP-style trace, seed {seed}\n")
        for segment in segments:
            handle.write(f"# segment {segment.name}\n")
            lines = []
            for pc, target, taken, kind, gap in zip(*segment.columns()):
                while junk_index < len(junk) and junk[junk_index] == record_index:
                    lines.append(f"junk-{junk_index} ??\n")
                    junk_index += 1
                lines.append(
                    f"0x{pc:x} {'T' if taken else 'N'} 0x{target:x} "
                    f"{tokens[kind]} {gap}\n"
                )
                record_index += 1
            handle.writelines(lines)


def command_setup(config: dict) -> int:
    """Generate traces into ``$REPRO_TRACE_CACHE`` (and the ingest text)."""
    from repro.workloads.suites import generate_suite

    started = time.perf_counter()
    generate_suite(W.SUITE, config["length"], benchmarks=config.get("benchmarks"))
    generate_s = time.perf_counter() - started
    if config.get("ingest_text"):
        _write_ingest_text(Path(config["ingest_text"]), config["seed"], config["size"])
    print(json.dumps({"generate_s": generate_s}))
    return 0


#: Ladder rungs: (metric, configuration, configuration without the component).
LADDER = [
    ("predictors.tage_us", "tage", "floor"),
    ("predictors.sc_adder_us", "tage-gsc", "tage"),
    ("core.imli_sic_us", "tage-gsc+sic", "tage-gsc"),
    ("core.imli_oh_us", "tage-gsc+oh", "tage-gsc"),
    ("predictors.gehl_us", "gehl", "floor"),
    ("predictors.loop_us", "tage-gsc+loop", "tage-gsc"),
    ("predictors.wormhole_us", "tage-gsc+wh", "tage-gsc"),
    ("predictors.local_history_us", "tage-gsc+l", "tage-gsc+loop"),
]


def _history_update_seconds(state, trace) -> float:
    """Drive ``SharedState.update_conditional_fields`` over ``trace``."""
    from repro.trace.branch import CONDITIONAL_CODE

    update, observe = state.update_conditional_fields, state.observe_pc
    started = time.perf_counter()
    for pc, target, taken, kind, _ in zip(*trace.columns()):
        if kind == CONDITIONAL_CODE:
            update(pc, target, taken)
        else:
            observe(pc)
    return time.perf_counter() - started


def command_ladder(config: dict) -> int:
    """Host microseconds per conditional branch of each predictor component.

    Each rung is the simulate time of a configuration minus that of the
    configuration without the component; the TAGE rung also leaves out its
    own history update, which ``core.history_update_us`` reports.  Every
    timing is the best of ``repeats`` round-robin passes.
    """
    from repro.api.registry import default_registry
    from repro.predictors.simple import BimodalPredictor
    from repro.predictors.tage import TAGEPredictor
    from repro.sim.engine import simulate
    from repro.workloads.suites import generate_suite

    registry = default_registry()
    profile = config["profile"]
    sizes = registry.resolve_profile(profile)
    traces = generate_suite(W.SUITE, config["length"], benchmarks=config["benchmarks"])
    branches = sum(trace.conditional_count for trace in traces)
    builders = {
        "floor": BimodalPredictor,
        "tage": lambda: TAGEPredictor(config=sizes.tage),
    }
    names = {name for rung in LADDER for name in rung[1:]} - set(builders)
    for name in sorted(names):
        builders[name] = functools.partial(registry.build, name, profile=profile)

    def simulate_seconds(build) -> float:
        started = time.perf_counter()
        for trace in traces:
            simulate(build(), trace)
        return time.perf_counter() - started

    def history_seconds(build) -> float:
        return sum(_history_update_seconds(build().state, trace) for trace in traces)

    full = functools.partial(registry.build, "tage-gsc+imli", profile=profile)
    measures = {name: functools.partial(simulate_seconds, build)
                for name, build in builders.items()}
    measures["history:tage"] = functools.partial(history_seconds, builders["tage"])
    measures["history:full"] = functools.partial(history_seconds, full)
    # Round-robin passes, best of each: a slow spell of the host then hits
    # every rung alike instead of skewing one difference.
    seconds = {name: [] for name in measures}
    for _ in range(config["repeats"]):
        for name, measure in measures.items():
            seconds[name].append(measure())
    per_branch = {name: min(values) * 1e6 / branches for name, values in seconds.items()}
    metrics = {
        "sim.engine_floor_us": per_branch["floor"],
        "core.history_update_us": per_branch["history:full"],
    }
    for metric, with_component, without in LADDER:
        metrics[metric] = per_branch[with_component] - per_branch[without]
    metrics["predictors.tage_us"] -= per_branch["history:tage"]
    print(json.dumps({"branches": branches, "metrics": metrics}))
    return 0


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "cli":
        return command_cli(argv[1], argv[3:])
    if mode == "import":
        return command_import()
    config = json.loads(argv[1])
    if mode == "setup":
        return command_setup(config)
    if mode == "ladder":
        return command_ladder(config)
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
