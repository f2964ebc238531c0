"""Regenerate ``expected.json``: reference results for every cell any seed
can ask the benchmark for.

Each cell is simulated on the reference path (record views and the
``predict()``/``update()`` protocol, ``use_fast_path=False``), one
predictor per simulation (no batching, no shared cores), so the digests
do not depend on any of the execution paths the benchmark times.

Run from the repository root (takes a few minutes on two cores)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
os.environ["REPRO_TRACE_CACHE"] = "0"

import workloads as W  # noqa: E402

EXPECTED = HERE / "expected.json"


def _grid_specs(grid: dict):
    from repro.api.specs import PredictorSpec

    base = PredictorSpec.from_named(grid["base"], profile=grid["profile"])
    return [base] + base.sweep(**grid["params"])


def _named_specs(names, profile):
    from repro.api.specs import PredictorSpec

    return [PredictorSpec.from_named(name, profile=profile) for name in names]


def _reference_column(job):
    """``(label, storage_bits, {benchmark: [mispredictions, instructions]})``."""
    spec_dict, length, pool = job
    from repro.api.specs import PredictorSpec
    from repro.sim.engine import simulate
    from repro.workloads.suites import generate_suite

    spec = PredictorSpec.from_dict(spec_dict)
    cells, bits = {}, 0
    for trace in generate_suite(W.SUITE, length, benchmarks=pool):
        result = simulate(spec.build(), trace, use_fast_path=False)
        cells[trace.name] = [result.mispredictions, result.instructions]
        bits = result.storage_bits
    return spec.label, bits, cells


def _reference_ingest(job):
    """``(rotation, records, [mispredictions, instructions], storage_bits)``."""
    rotation, size = job
    from repro.api.specs import PredictorSpec
    from repro.sim.engine import simulate
    from repro.trace.trace import Trace
    from repro.workloads.suites import generate_benchmark, get_benchmark

    spec = PredictorSpec.from_named(
        W.INGEST_STREAM["configuration"], profile=W.INGEST_STREAM["profile"]
    )
    combined = Trace(name=W.INGEST_STREAM["name"])
    for name in W.ingest_segments(rotation):
        combined.extend(generate_benchmark(
            get_benchmark(W.SUITE, name), W.INGEST_STREAM["segment_length"][size]
        ))
    result = simulate(spec.build(), combined, use_fast_path=False)
    return rotation, len(combined), [result.mispredictions, result.instructions], (
        result.storage_bits
    )


def _conditional_counts(length: int, pool) -> dict:
    from repro.workloads.suites import generate_suite

    return {
        trace.name: trace.conditional_count
        for trace in generate_suite(W.SUITE, length, benchmarks=pool)
    }


def main() -> int:
    grids = {
        "cell-mix": (_named_specs(W.CELL_MIX["configurations"], W.CELL_MIX["profile"]),
                     W.CELL_MIX),
        "grid-dist": (_grid_specs(W.GRID_DIST), W.GRID_DIST),
        "resume-warm": (_grid_specs(W.RESUME_WARM), W.RESUME_WARM),
    }
    expected: dict = {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as executor:
        for workload, (specs, grid) in grids.items():
            expected[workload] = {}
            pool = grid["pool"]
            for size in W.SIZES:
                length = grid["length"][size]
                jobs = [(spec.to_dict(), length, pool) for spec in specs]
                columns = list(executor.map(_reference_column, jobs))
                expected[workload][size] = {
                    "length": length,
                    "labels": [label for label, _, _ in columns],
                    "storage_bits": {label: bits for label, bits, _ in columns},
                    "cells": {
                        name: {label: cells[name] for label, _, cells in columns}
                        for name in pool
                    },
                    "conditional": _conditional_counts(length, pool),
                }
                print(f"{workload}/{size}: {len(columns)} columns", flush=True)
        expected["ingest-stream"] = {}
        for size in W.SIZES:
            rows = list(executor.map(
                _reference_ingest, [(r, size) for r in range(len(W.BENCHMARKS))]
            ))
            expected["ingest-stream"][size] = {
                "label": W.INGEST_STREAM["configuration"],
                "storage_bits": rows[0][3],
                "records": {str(r): records for r, records, _, _ in rows},
                "cells": {str(r): cell for r, _, cell, _ in rows},
            }
            print(f"ingest-stream/{size}: {len(rows)} rotations", flush=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
