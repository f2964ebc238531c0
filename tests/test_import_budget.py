"""Which modules each CLI path loads -- never how long loading takes.

A subsystem is imported inside the command that uses it (see the "Cold
start" section of ``docs/PERFORMANCE.md``).  Every check runs in a fresh
interpreter, so modules the test process itself has imported cannot hide
a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Layers a store-served sweep never runs, so neither ``import repro.cli``
#: nor such a sweep may load them (a name matches itself and its submodules).
UNUSED_BY_STORED_SWEEP = (
    "repro.predictors",
    "repro.core",
    "repro.dist",
    "repro.analysis.experiments",
    "repro.obs.http",
    "repro.obs.top",
    "repro.ingest",
    "concurrent.futures.process",
)

#: Packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.common",
    "repro.dist",
    "repro.obs",
    "repro.sim",
    "repro.trace",
    "repro.workloads",
)

_CHILD = """
import json, sys
argv = json.loads(sys.argv[1])
import repro.cli
code = repro.cli.main(argv) if argv else 0
with open(sys.argv[2], "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

SWEEP = [
    "sweep", "--base", "tage-gsc+oh", "--param", "oh_update_delay=0,15",
    "--benchmarks", "SPEC2K6-00", "--length", "300", "--profile", "small",
]


def _run(argv: Sequence[str], tmp_path: Path, env: Optional[dict] = None) -> List[str]:
    """Run ``repro ARGV`` (or only ``import repro.cli``) in a fresh
    interpreter; return the names in its ``sys.modules`` at exit."""
    out = tmp_path / "modules.json"
    child_env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    child_env["PYTHONPATH"] = str(SRC)
    child_env["REPRO_TRACE_CACHE"] = str(tmp_path / "trace-cache")
    child_env.update(env or {})
    subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(list(argv)), str(out)],
        env=child_env, cwd=tmp_path, check=True, capture_output=True, timeout=300,
    )
    result = json.loads(out.read_text())
    assert result["code"] == 0
    return result["modules"]


def _unused(modules: Sequence[str]) -> List[str]:
    return [
        name for name in modules
        if any(name == layer or name.startswith(layer + ".") for layer in UNUSED_BY_STORED_SWEEP)
    ]


def _sweep(tmp_path: Path, csv_name: str, env: Optional[dict] = None) -> List[str]:
    argv = SWEEP + ["--store", str(tmp_path / "store"), "--csv", str(tmp_path / csv_name)]
    return _run(argv, tmp_path, env)


def test_import_cli_loads_no_unused_layer(tmp_path):
    assert _unused(_run([], tmp_path)) == []


def test_stored_sweep_loads_no_unused_layer_and_matches_cold(tmp_path):
    cold = _sweep(tmp_path, "cold.csv")
    assert "repro.predictors.composites" in cold
    warm = _sweep(tmp_path, "warm.csv")
    assert _unused(warm) == []
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def test_chaos_check_loads_chaos_not_the_dist_stack(tmp_path):
    _sweep(tmp_path, "cold.csv")
    warm = _sweep(tmp_path, "warm.csv", env={"REPRO_CHAOS": "store.read_corrupt:0"})
    assert "repro.dist.chaos" in warm
    assert [name for name in warm if name.startswith("repro.dist.")] == ["repro.dist.chaos"]
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_and_are_listed(package):
    code = (
        "import importlib, json, sys\n"
        f"module = importlib.import_module({package!r})\n"
        "unlisted = sorted(set(module.__all__) - set(dir(module)))\n"
        "missing = [n for n in module.__all__ if not hasattr(module, n)]\n"
        "print(json.dumps([unlisted, missing]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True, capture_output=True, text=True, timeout=120,
    )
    assert json.loads(result.stdout) == [[], []]


def test_unknown_name_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018
