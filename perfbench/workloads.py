"""The four benchmark workloads as data, and the seed -> input mapping.

This module never imports ``repro``: the orchestrator (``run.py``) uses it
to build command lines, and the two helpers that do import the program
(``probe.py`` and ``make_expected.py``) use it to build the same inputs.

Every workload draws its benchmarks from a fixed pool of the 20-benchmark
``cbp4like`` suite.  The seed only permutes that pool (and, for
``ingest-stream``, picks the rotation of the concatenated input and where
junk lines go), so the set of (configuration, benchmark) cells any seed
can produce is finite and its reference results fit in ``expected.json``.
"""

from __future__ import annotations

import random
from typing import Dict, List

SUITE = "cbp4like"

#: The suite's benchmarks in suite order (``repro list`` prints the same).
BENCHMARKS = [
    "SPEC2K6-00", "SPEC2K6-02", "SPEC2K6-04", "SPEC2K6-06", "SPEC2K6-08",
    "SPEC2K6-10", "SPEC2K6-12", "SPEC2K6-14", "SPECFP-01", "SPECFP-02",
    "SERVER-01", "SERVER-02", "SERVER-03", "CLIENT-01", "CLIENT-03",
    "MM-1", "MM-4", "MM-6", "WS-01", "WS-02",
]

WORKLOADS = ["cell-mix", "grid-dist", "resume-warm", "ingest-stream"]

#: Sizes: ``full`` is what the benchmark measures; ``tiny`` is the self-test.
SIZES = ("full", "tiny")

#: Configurations that share no predictor core, so batching and shared
#: cores cannot help: predictor components and the engine do the work.
#: The pool holds the ten benchmarks whose cost for these configurations
#: is within a few percent of each other, so the seed changes which traces
#: an operation simulates but hardly how long it takes.
CELL_MIX = {
    "configurations": ["tage-gsc+imli", "gehl+imli", "tage-sc-l+imli"],
    "profile": "default",
    "length": {"full": 8000, "tiny": 600},
    "pool": ["SPEC2K6-00", "SPECFP-02", "SERVER-01", "SERVER-03", "CLIENT-01",
             "CLIENT-03", "MM-1", "MM-4", "MM-6", "WS-01"],
    "traces_per_op": {"full": 2, "tiny": 1},
}

#: One shared-core grid (every point has the tage-gsc core) over many
#: short traces, served to two workers: scheduling, transport, store
#: writes and batching carry a large share of the time.  Fifteen specs
#: make one lease grant per trace.  The pool's traces have similar lengths
#: (2100 to 2650 conditional branches), so the two workers get even shares
#: and the seed's choice of 8 of them moves the work by about 5% at most.
GRID_DIST = {
    "base": "tage-gsc+oh",
    "params": {"oh_update_delay": [1, 2, 3, 4, 6, 8, 12],
               "imli_sic": [True, False]},
    "profile": "small",
    "length": {"full": 2000, "tiny": 300},
    "pool": ["SPEC2K6-02", "SPEC2K6-06", "SPEC2K6-10", "SERVER-01", "SERVER-02",
             "SERVER-03", "CLIENT-01", "MM-6", "WS-01", "WS-02"],
    "traces": {"full": 8, "tiny": 2},
    "workers": 2,
}

#: A grid of several hundred cells that every timed sweep reads back from
#: the store: import, trace-cache load, store reads and the CSV build do
#: all the work, simulation none.  The traces come from the suite's
#: shortest benchmarks at the generator's minimum length, and the grid
#: shares one core, so pre-filling the store in set-up stays cheap.  WS-01
#: is left out of the pool: its trace is twice as long as the others', so
#: whether a seed picked it would move the timings by more than the noise.
RESUME_WARM = {
    "base": "tage-gsc+oh",
    "params": {"oh_update_delay": list(range(1, 26)), "imli_sic": [True, False]},
    "profile": "small",
    "length": {"full": 200, "tiny": 200},
    "pool": ["SPEC2K6-02", "SPEC2K6-08", "SPEC2K6-10", "SERVER-01", "CLIENT-01",
             "MM-6"],
    "traces": {"full": 5, "tiny": 2},
}

#: A synthesized CBP text trace (every suite benchmark, concatenated from
#: a seeded rotation, with seeded junk lines the skip policy drops),
#: converted to the chunked layout and simulated by one light
#: configuration streaming the chunks.
INGEST_STREAM = {
    "configuration": "gehl",
    "profile": "small",
    "segment_length": {"full": 5000, "tiny": 300},
    "chunk_branches": {"full": 20000, "tiny": 2000},
    "junk_lines": {"full": 400, "tiny": 20},
    "name": "ingested",
}


def _permuted(workload: str, seed: int, pool: List[str]) -> List[str]:
    order = list(pool)
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def op_benchmarks(seed: int, op_index: int, size: str) -> List[str]:
    """Benchmarks of cell-mix operation ``op_index``, in suite order: the
    next slice of the seeded permutation of the pool, cycling, so a run
    covers the pool evenly."""
    order = _permuted("cell-mix", seed, CELL_MIX["pool"])
    per_op = CELL_MIX["traces_per_op"][size]
    start = op_index * per_op
    chosen = {order[(start + k) % len(order)] for k in range(per_op)}
    return [name for name in BENCHMARKS if name in chosen]


def run_benchmarks(workload: str, seed: int, size: str) -> List[str]:
    """The benchmark subset every operation of a grid-dist or resume-warm
    run uses, in suite order, so every operation does the same work."""
    spec = GRID_DIST if workload == "grid-dist" else RESUME_WARM
    chosen = set(_permuted(workload, seed, spec["pool"])[:spec["traces"][size]])
    return [name for name in BENCHMARKS if name in chosen]


def ingest_rotation(seed: int) -> int:
    """Index of the suite benchmark the ingest input starts with."""
    return seed % len(BENCHMARKS)


def ingest_segments(seed: int) -> List[str]:
    """Benchmark segments of the ingest input, in file order."""
    start = ingest_rotation(seed)
    return BENCHMARKS[start:] + BENCHMARKS[:start]


def ingest_junk_positions(seed: int, records: int, size: str) -> List[int]:
    """Record indices before which a junk line is written (sorted)."""
    count = INGEST_STREAM["junk_lines"][size]
    rng = random.Random(f"ingest-stream:junk:{seed}")
    return sorted(rng.sample(range(records), count))


def grid_param_args(params: Dict[str, list]) -> List[str]:
    """``--param`` arguments for a grid, in the CLI's value syntax."""
    args = []
    for name, values in params.items():
        rendered = ",".join(
            ("true" if value else "false") if isinstance(value, bool) else str(value)
            for value in values
        )
        args += ["--param", f"{name}={rendered}"]
    return args
