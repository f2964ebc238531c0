"""The repository benchmark: four workloads through the real ``repro`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cell-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-test

Every operation is a fresh ``python -m repro`` process (or, with
``--trace 1``, the same command under ``probe.py``, which records spans
around each layer's public functions).  Every output is checked against
the reference results in ``expected.json``.  Human-readable lines go to
stdout first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  See
``perfbench/NOTES.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

#: Per-process time limit; a run must finish well inside three minutes.
CHILD_TIMEOUT_S = 100.0
#: Set-ups per measuring run; ``setup_s`` is their median.
SETUP_REPEATS = {"full": 3, "tiny": 1}
#: Fresh-process ``import repro.cli`` timings per traced run.
IMPORT_REPEATS = {"full": 5, "tiny": 1}
LADDER_REPEATS = {"full": 3, "tiny": 1}
#: The calibration kernel: a pure-Python integer loop of CAL_LOOPS
#: iterations, best of CAL_REPEATS, timed on each CPU the workload uses.
#: The shared host's speed drifts by up to 40% over a minute while the
#: ratio of a program timing to a kernel timing taken right beside it stays
#: within a few percent, so the gated timings are scaled to the speed at
#: which the kernel takes CAL_REFERENCE_S (``ref_s``, reference seconds).
CAL_LOOPS = 200_000
CAL_REPEATS = 3
CAL_REFERENCE_S = 0.02
#: Host microseconds per conditional branch, from ``probe.py ladder``.
LADDER_METRICS = [
    "sim.engine_floor_us", "core.history_update_us", "predictors.tage_us",
    "predictors.sc_adder_us", "core.imli_sic_us", "core.imli_oh_us", "predictors.gehl_us",
    "predictors.loop_us", "predictors.wormhole_us", "predictors.local_history_us",
]


class Child:
    """One program process: launch/exit times, exit code and peak RSS."""

    def __init__(self, argv: List[str], env: Dict[str, str], stdout: Path,
                 stderr: Path, spans: Optional[Path] = None) -> None:
        self.stdout, self.stderr, self.spans = stdout, stderr, spans
        self.timed_out = False
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            self.launched = time.perf_counter()
            self.popen = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err,
            )

    def _kill(self) -> None:
        self.timed_out = True
        self.popen.kill()

    def _reap(self, flags: int) -> bool:
        pid, status, usage = os.wait4(self.popen.pid, flags)
        if pid == 0:
            return False
        self.exited = time.perf_counter()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return True

    def running(self) -> bool:
        """Whether the process still runs (reaps it when it has ended)."""
        return self.popen.returncode is None and not self._reap(os.WNOHANG)

    def wait(self) -> "Child":
        if self.popen.returncode is not None:
            return self
        timer = threading.Timer(CHILD_TIMEOUT_S, self._kill)
        timer.start()
        try:
            self._reap(0)
        finally:
            timer.cancel()
        return self

    def stop(self) -> None:
        """Kill the process if it still runs, and reap it."""
        if self.popen.returncode is None:
            self.popen.kill()
            self.wait()

    @property
    def wall(self) -> float:
        return self.exited - self.launched

    @property
    def ok(self) -> bool:
        return self.popen.returncode == 0 and not self.timed_out

    def describe(self) -> str:
        tail = self.stderr.read_text(errors="replace").strip().splitlines()[-3:]
        state = "timed out" if self.timed_out else f"exit {self.popen.returncode}"
        return f"{self.stdout.stem}: {state}: {' | '.join(tail)}"


class OpResult:
    """One timed operation: its wall time, the branches its output covers,
    its processes, and whether every check passed."""

    def __init__(self) -> None:
        self.wall = 0.0
        #: Wall seconds -> reference seconds, from the calibrations around it.
        self.scale = 1.0
        self.branches = 0
        self.records = 0
        self.convert_wall = 0.0
        self.simulate_wall = 0.0
        self.children: List[Child] = []
        self.critical: List[Child] = []
        self.errors: List[str] = []
        self.store_root: Optional[Path] = None
        self.ledger: Optional[dict] = None

    @property
    def rss_mb(self) -> float:
        return max(child.rss_mb for child in self.children)


# --------------------------------------------------------------------------- #
# Expected outputs, rendered the way the CLI renders them
# --------------------------------------------------------------------------- #

def _mpki(cell: List[int]) -> float:
    return 1000.0 * cell[0] / cell[1]


def expected_csv(table: dict, benchmarks: List[str]) -> str:
    """The CSV ``repro sweep``/``serve`` writes for these benchmarks."""
    labels = table["labels"]
    rows = [[name] + [_mpki(table["cells"][name][label]) for label in labels]
            for name in benchmarks]
    averages = [sum(row[k + 1] for row in rows) / len(rows) for k in range(len(labels))]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["benchmark"] + labels)
    writer.writerows(rows)
    writer.writerow(["AVERAGE"] + averages)
    writer.writerow(["storage_kbits"] + [table["storage_bits"][label] / 1024.0
                                         for label in labels])
    return buffer.getvalue()


def expected_table_rows(labels: List[str], rows: Dict[str, List[float]]) -> List[List[str]]:
    """Rows of the MPKI table ``repro simulate`` prints (3 decimals)."""
    names = list(rows)
    out = [[name] + [f"{value:.3f}" for value in rows[name]] for name in names]
    averages = [sum(rows[name][k] for name in names) / len(names) for k in range(len(labels))]
    out.append(["AVERAGE"] + [f"{value:.3f}" for value in averages])
    return out


def printed_table_rows(text: str, labels: List[str]) -> List[List[str]]:
    """Data rows of the first table in ``repro simulate`` output."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.split() == ["benchmark"] + labels:
            rows = []
            for row in lines[index + 2:]:
                if not row.strip():
                    break
                rows.append(row.split())
            return rows
    return []


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #

class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 size: str = "full", corrupt: bool = False) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.traced, self.size, self.corrupt = traced, size, corrupt
        self.expected = json.loads((HERE / "expected.json").read_text())[workload][size]
        self.work = HERE / ".work" / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.live: List[Child] = []
        self.setup_dir: Optional[Path] = None
        self.generate_s: List[float] = []
        # The program and the calibration kernel share the CPUs they run
        # on: one per grid-dist worker, and one for the serial workloads
        # (each virtual CPU of a shared host drifts on its own).
        wanted = W.GRID_DIST["workers"] if workload == "grid-dist" else 1
        self.cpus = sorted(os.sched_getaffinity(0))[-wanted:]
        self.calibrations: List[float] = []

    def calibrate(self) -> float:
        """Kernel seconds now, averaged over this run's CPUs."""
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(min(_kernel_seconds() for _ in range(CAL_REPEATS)))
        os.sched_setaffinity(0, self.cpus)
        self.calibrations.append(statistics.mean(times))
        return self.calibrations[-1]

    def timed(self, step):
        """Run ``step()`` between two calibrations; return its result and
        the factor that turns its wall seconds into reference seconds."""
        before = self.calibrations[-1] if self.calibrations else self.calibrate()
        result = step()
        return result, 2 * CAL_REFERENCE_S / (before + self.calibrate())

    # -- processes ---------------------------------------------------------- #

    def env(self, setup_dir: Path) -> Dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") and key != "PYTHONPATH"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_TRACE_CACHE"] = str(setup_dir / "trace-cache")
        env["TMPDIR"] = str(self.work / "tmp")
        return env

    def launch(self, argv: List[str], name: str, directory: Path,
               traced: bool = False) -> Child:
        """Start ``repro ARGV`` (under the probe when ``traced``)."""
        spans = directory / f"{name}.spans.json" if traced else None
        if traced:
            command = [sys.executable, str(HERE / "probe.py"), "cli", str(spans), "--"]
        else:
            command = [sys.executable, "-m", "repro"]
        child = Child(command + argv, self.env(self.setup_dir), directory / f"{name}.out",
                      directory / f"{name}.err", spans)
        self.live.append(child)
        return child

    def probe(self, mode: str, config: Optional[dict], directory: Path, name: str) -> dict:
        """Run one ``probe.py`` helper to completion; return its JSON output."""
        argv = [sys.executable, str(HERE / "probe.py"), mode]
        if config is not None:
            argv.append(json.dumps(config))
        child = Child(argv, self.env(self.setup_dir or directory), directory / f"{name}.out",
                      directory / f"{name}.err")
        self.live.append(child)
        child.wait()
        if not child.ok:
            raise RuntimeError(f"probe {mode} failed: {child.describe()}")
        text = child.stdout.read_text().strip()
        return json.loads(text.splitlines()[-1]) if text else {}

    # -- set-up ------------------------------------------------------------- #

    def setup_once(self, directory: Path) -> float:
        """Build the workload's inputs in ``directory``; return its wall time."""
        directory.mkdir(parents=True)
        self.setup_dir = directory
        started = time.perf_counter()
        config: dict = {"seed": self.seed, "size": self.size}
        if self.workload == "cell-mix":
            config["length"] = W.CELL_MIX["length"][self.size]
            config["benchmarks"] = W.CELL_MIX["pool"]
        elif self.workload == "grid-dist":
            config["length"] = W.GRID_DIST["length"][self.size]
            config["benchmarks"] = W.run_benchmarks("grid-dist", self.seed, self.size)
        elif self.workload == "resume-warm":
            config["length"] = W.RESUME_WARM["length"][self.size]
            config["benchmarks"] = W.run_benchmarks("resume-warm", self.seed, self.size)
        else:
            config["length"] = W.INGEST_STREAM["segment_length"][self.size]
            config["ingest_text"] = str(directory / "input.txt")
        self.generate_s.append(self.probe("setup", config, directory, "setup")["generate_s"])
        if self.workload == "resume-warm":
            prefill = self.launch(self.resume_argv(directory / "store") + ["--jobs", "1"],
                                  "prefill", directory)
            prefill.wait()
            if not prefill.ok:
                raise RuntimeError(f"store pre-fill failed: {prefill.describe()}")
        return time.perf_counter() - started

    def setup(self, repeats: int) -> List[tuple]:
        """Set up ``repeats`` times in fresh directories; keep the last.
        Returns (wall seconds, reference seconds) per set-up."""
        times = []
        for index in range(repeats):
            if self.setup_dir is not None:
                shutil.rmtree(self.setup_dir)
            wall, scale = self.timed(lambda: self.setup_once(self.work / f"setup-{index}"))
            times.append((wall, wall * scale))
        return times

    # -- operations ---------------------------------------------------------- #

    def resume_argv(self, store: Path, csv_path: Optional[Path] = None) -> List[str]:
        grid = W.RESUME_WARM
        argv = ["sweep", "--base", grid["base"], *W.grid_param_args(grid["params"]),
                "--suite", W.SUITE,
                "--benchmarks", ",".join(W.run_benchmarks("resume-warm", self.seed, self.size)),
                "--length", str(grid["length"][self.size]), "--profile", grid["profile"],
                "--store", str(store)]
        return argv + (["--csv", str(csv_path)] if csv_path else [])

    def grid_branches(self, benchmarks: List[str]) -> int:
        conditional = self.expected["conditional"]
        return sum(conditional[name] for name in benchmarks) * len(self.expected["labels"])

    def check(self, op: OpResult, path: Path, expected: str) -> None:
        """Compare an output file byte for byte."""
        if self.corrupt and path.exists():
            _corrupt(path)
        actual = path.read_bytes() if path.exists() else None
        if actual != expected.encode():
            op.errors.append(f"{path.name} differs from the reference output")

    def check_table(self, op: OpResult, path: Path, labels: List[str],
                    rows: Dict[str, List[float]]) -> None:
        if self.corrupt:
            _corrupt(path)
        if printed_table_rows(path.read_text(), labels) != expected_table_rows(labels, rows):
            op.errors.append(f"{path.name}: MPKI table differs from the reference")

    def op_cell_mix(self, index: int, directory: Path, traced: bool) -> OpResult:
        op = OpResult()
        spec = W.CELL_MIX
        benchmarks = W.op_benchmarks(self.seed, index, self.size)
        argv = ["simulate", "--jobs", "1", "--profile", spec["profile"],
                "--configurations", ",".join(spec["configurations"]),
                "--suite", W.SUITE, "--benchmarks", ",".join(benchmarks),
                "--length", str(spec["length"][self.size])]
        child = self.launch(argv, "simulate", directory, traced).wait()
        op.children = op.critical = [child]
        op.wall = child.wall
        op.branches = self.grid_branches(benchmarks)
        if child.ok:
            cells = self.expected["cells"]
            self.check_table(op, child.stdout, spec["configurations"], {
                name: [_mpki(cells[name][label]) for label in spec["configurations"]]
                for name in benchmarks})
        return op

    def op_grid_dist(self, index: int, directory: Path, traced: bool) -> OpResult:
        op = OpResult()
        spec = W.GRID_DIST
        benchmarks = W.run_benchmarks("grid-dist", self.seed, self.size)
        out_csv = directory / "grid.csv"
        op.store_root = directory / "store"
        argv = ["serve", "--port", "0", "--base", spec["base"],
                *W.grid_param_args(spec["params"]), "--suite", W.SUITE,
                "--benchmarks", ",".join(benchmarks),
                "--length", str(spec["length"][self.size]), "--profile", spec["profile"],
                "--store", str(op.store_root), "--csv", str(out_csv)]
        serve = self.launch(argv, "serve", directory, traced)
        op.children = op.critical = [serve]
        port = _listening_port(serve)
        if port is None:
            serve.stop()
            op.errors.append(f"coordinator never listened: {serve.describe()}")
            op.wall = serve.wall
            return op
        workers = [
            self.launch(["worker", "--connect", f"127.0.0.1:{port}", "--reconnect", "0",
                         "--name", f"w{k}"], f"worker{k}", directory, traced)
            for k in range(spec["workers"])
        ]
        op.children = [serve] + workers
        serve.wait()
        for worker in workers:
            worker.wait()
        op.wall = serve.wall
        op.branches = self.grid_branches(benchmarks)
        for worker in workers:
            if not worker.ok:
                op.errors.append(worker.describe())
        if serve.ok:
            self.check(op, out_csv, expected_csv(self.expected, benchmarks))
        return op

    def op_resume_warm(self, index: int, directory: Path, traced: bool) -> OpResult:
        op = OpResult()
        out_csv = directory / "sweep.csv"
        child = self.launch(self.resume_argv(self.setup_dir / "store", out_csv),
                            "sweep", directory, traced).wait()
        op.children = op.critical = [child]
        op.wall = child.wall
        benchmarks = W.run_benchmarks("resume-warm", self.seed, self.size)
        op.branches = self.grid_branches(benchmarks)
        if child.ok:
            cells = len(benchmarks) * len(self.expected["labels"])
            if f": {cells} cell(s) reused, 0 computed" not in child.stderr.read_text():
                op.errors.append("sweep was not fully served by the store")
            self.check(op, out_csv, expected_csv(self.expected, benchmarks))
        return op

    def op_ingest_stream(self, index: int, directory: Path, traced: bool) -> OpResult:
        op = OpResult()
        spec = W.INGEST_STREAM
        chunked = directory / "chunked"
        rotation = str(W.ingest_rotation(self.seed))
        records = self.expected["records"][rotation]
        convert = self.launch(
            ["ingest", "convert", str(self.setup_dir / "input.txt"), "--output", str(chunked),
             "--chunk-branches", str(spec["chunk_branches"][self.size]),
             "--on-error", "skip", "--name", spec["name"], "--json"],
            "convert", directory, traced).wait()
        op.children = op.critical = [convert]
        op.wall = op.convert_wall = convert.wall
        op.records = records
        if not convert.ok:
            return op
        try:
            report = json.loads(convert.stdout.read_text())
        except ValueError:
            op.errors.append("ingest convert --json printed no JSON report")
            return op
        chunks = math.ceil(records / spec["chunk_branches"][self.size])
        if (report["records"], report["skipped"], report["chunks"]) != (
                records, spec["junk_lines"][self.size], chunks):
            op.errors.append(f"ingest report {report['records']} records, "
                             f"{report['skipped']} skipped, {report['chunks']} chunks")
        simulate = self.launch(
            ["simulate", "--trace", str(chunked), "--configurations", spec["configuration"],
             "--profile", spec["profile"]], "simulate", directory, traced).wait()
        op.children = op.critical = [convert, simulate]
        op.wall = simulate.exited - convert.launched
        op.simulate_wall = simulate.wall
        op.branches = records
        if simulate.ok:
            self.check_table(op, simulate.stdout, [spec["configuration"]],
                             {spec["name"]: [_mpki(self.expected["cells"][rotation])]})
        return op

    def operate(self, index: int, traced: bool) -> OpResult:
        """Run operation ``index`` and count it; failed ops keep their files."""
        directory = self.work / f"op-{index}-{'t' if traced else 'u'}"
        directory.mkdir(parents=True)
        handler = {"cell-mix": self.op_cell_mix, "grid-dist": self.op_grid_dist,
                   "resume-warm": self.op_resume_warm,
                   "ingest-stream": self.op_ingest_stream}[self.workload]
        try:
            op = handler(index, directory, traced)
        finally:
            for child in self.live:
                child.stop()
            self.live.clear()
        for child in op.children:
            if not child.ok:
                op.errors.append(child.describe())
        if traced:
            ledger_op(op)
        self.attempted += 1
        if op.errors:
            self.failed += 1
            self.errors.extend(f"op {index}: {error}" for error in op.errors)
        else:
            shutil.rmtree(directory)
        return op

    # -- the two kinds of run ------------------------------------------------ #

    def measure(self) -> dict:
        """Untraced run: the end-to-end metrics."""
        setups = self.setup(SETUP_REPEATS[self.size])
        ops: List[OpResult] = []
        deadline = time.perf_counter() + self.seconds
        while not ops or time.perf_counter() < deadline:
            op, scale = self.timed(lambda: self.operate(len(ops), traced=False))
            op.scale = scale
            ops.append(op)
        good = [op for op in ops if not op.errors] or ops
        latencies = sorted(op.wall * op.scale for op in good)
        if self.workload == "ingest-stream":
            rates = [op.branches / (op.simulate_wall * op.scale)
                     for op in good if op.simulate_wall]
        else:
            rates = [op.branches / (op.wall * op.scale) for op in good]
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setups), "s"),
            "branches_per_ref_s": (statistics.median(rates) if rates else 0.0, "branches/s"),
            "op_ref_s.p50": (statistics.median(latencies), "s"),
            "peak_rss_mb": (max(op.rss_mb for op in ops), "MiB"),
        }
        self.notes = [
            f"ops: {len(ops)} ({self.failed} failed); set-ups: "
            f"{', '.join(f'{ref:.3f}' for _, ref in setups)} ref_s",
            _tail_note(latencies),
            f"wall time (not scaled): op_s.p50 {statistics.median(op.wall for op in good):.4f} s, "
            f"setup median {statistics.median(wall for wall, _ in setups):.3f} s; "
            f"calibration kernel {statistics.median(self.calibrations) * 1000:.2f} ms median "
            f"(reference {CAL_REFERENCE_S * 1000:.0f} ms) on CPUs {self.cpus}",
        ]
        if self.workload == "ingest-stream":
            convert_rates = [op.records / op.convert_wall for op in good if op.convert_wall]
            self.notes.append(f"ingest_records_per_s: {statistics.median(convert_rates):.1f} "
                              "records/s (repro ingest convert, launch to exit)")
        self.notes.append(f"failed_ratio: {self.failed / self.attempted:.4f} "
                          f"({self.failed}/{self.attempted})")
        return metrics

    def measure_traced(self) -> dict:
        """Traced run: the per-layer metrics and the ledger."""
        self.setup(1)
        pairs = []
        deadline = time.perf_counter() + self.seconds
        while not pairs or time.perf_counter() < deadline:
            index = len(pairs)
            plain = self.operate(index, traced=False)
            traced = self.operate(index, traced=True)
            pairs.append((plain, traced))
        traced_ops = [traced for _, traced in pairs]
        metrics = layer_metrics(traced_ops)
        metrics["workloads.generate_s"] = (self.generate_s[-1], "s")
        imports = [self.probe("import", None, self.work, f"import{k}")
                   for k in range(IMPORT_REPEATS[self.size])]
        metrics["import.cli_s"] = (statistics.median(i["cli_s"] for i in imports), "s")
        metrics["import.repro_modules"] = (imports[-1]["repro_modules"], "count")
        metrics.update(self.ladder())
        metrics["trace_overhead_ratio"] = (
            sum(t.wall for _, t in pairs) / sum(p.wall for p, _ in pairs), "ratio")
        covered = [op.ledger["covered"] / op.wall for op in traced_ops]
        metrics["ledger.covered_share"] = (statistics.mean(covered), "ratio")
        self.notes = [f"traced ops: {len(pairs)} (each paired with an untraced op)"]
        self.notes += ledger_lines(traced_ops)
        return metrics

    def ladder(self) -> dict:
        if self.workload == "resume-warm":
            # Every cell comes from the store: no predictor runs at all.
            return {name: (0.0, "us") for name in LADDER_METRICS}
        if self.workload == "cell-mix":
            profile, length = W.CELL_MIX["profile"], W.CELL_MIX["length"][self.size]
            benchmarks = W.op_benchmarks(self.seed, 0, self.size)[:1]
        elif self.workload == "grid-dist":
            profile, length = W.GRID_DIST["profile"], W.GRID_DIST["length"][self.size]
            benchmarks = W.run_benchmarks("grid-dist", self.seed, self.size)
        else:
            profile = W.INGEST_STREAM["profile"]
            length = W.INGEST_STREAM["segment_length"][self.size]
            benchmarks = W.ingest_segments(self.seed)[:1]
        result = self.probe("ladder", {"profile": profile, "length": length,
                                       "benchmarks": benchmarks,
                                       "repeats": LADDER_REPEATS[self.size]},
                            self.work, "ladder")
        return {name: (result["metrics"][name], "us") for name in LADDER_METRICS}

    def execute(self) -> dict:
        """Run, clean up, and return the result object."""
        if self.work.exists():
            shutil.rmtree(self.work)
        (self.work / "tmp").mkdir(parents=True)
        os.sched_setaffinity(0, self.cpus)
        try:
            self.prewarm()
            metrics = self.measure_traced() if self.traced else self.measure()
        finally:
            for child in self.live:
                child.stop()
            # A failed run keeps its files for diagnosis, unless the
            # self-test corrupted its outputs on purpose.
            if not self.failed or self.corrupt:
                shutil.rmtree(self.work, ignore_errors=True)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }

    def prewarm(self) -> None:
        """Compile the program's bytecode once, outside every timing."""
        child = Child([sys.executable, "-c",
                       "import repro.cli, repro.dist.coordinator, repro.dist.worker, "
                       "repro.ingest"],
                      self.env(self.work), self.work / "prewarm.out", self.work / "prewarm.err")
        self.live.append(child)
        if not child.wait().ok:
            raise RuntimeError(f"cannot import the program: {child.describe()}")
        self.live.clear()


def _corrupt(path: Path) -> None:
    """Change the last digit of an output file (self-test only)."""
    data = bytearray(path.read_bytes())
    for index in range(len(data) - 1, -1, -1):
        if chr(data[index]).isdigit():
            data[index] = ord("0") + (data[index] - ord("0") + 1) % 10
            path.write_bytes(bytes(data))
            return


def _kernel_seconds() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(CAL_LOOPS):
        total += value * value % 7
    return time.perf_counter() - started


def _listening_port(serve: Child) -> Optional[int]:
    """Wait for ``repro serve`` to log its listen address; return the port."""
    deadline = time.perf_counter() + 60.0
    while time.perf_counter() < deadline:
        text = serve.stderr.read_text(errors="replace")
        marker = text.find("listening on ")
        if marker >= 0 and "\n" in text[marker:]:
            address = text[marker:].split()[2]
            return int(address.rsplit(":", 1)[1])
        if not serve.running():
            return None
        time.sleep(0.002)
    return None


def _tail_note(latencies: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    count = len(latencies)
    if count < 20:
        return (f"op_ref_s tail: n/a ({count} samples, {latencies[0]:.3f} to "
                f"{latencies[-1]:.3f} s; a tail above the median needs at least 20)")
    percentile = math.floor(100 * (count - 10) / count)
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return f"op_ref_s.p{percentile}: {value:.4f} s (n={count})"


# --------------------------------------------------------------------------- #
# Traced runs: spans -> per-layer metrics and the ledger
# --------------------------------------------------------------------------- #

LAYER_SPANS = {
    "workloads.cache_load_s": "workloads.cache_load",
    "trace.chunk_decode_s": "trace.chunk_decode",
    "ingest.busy_s": "ingest.convert",
    "sim.simulate_s": "sim.simulate",
    "sim.runner_overhead_s": "sim.runner",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "cli.output_s": "cli.output",
}
COUNTERS = ["trace.chunks", "ingest.records", "ingest.repaired", "ingest.skipped",
            "store.hits", "store.misses", "dist.requeued", "dist.retried", "dist.quarantined"]


def _self_times(data: dict) -> List[float]:
    spans = data["spans"]
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def ledger_op(op: OpResult) -> None:
    """Attach per-layer self times and the critical-path ledger to a traced op.

    ``self`` sums every process and thread of the operation; ``critical``
    holds the main-thread self times of the processes the operation waits
    on, plus interpreter start-up and exit, which is what ``covered``
    adds up.  ``cli.main`` self time is the unattributed glue.
    """
    totals: Dict[str, float] = defaultdict(float)
    critical: Dict[str, float] = defaultdict(float)
    counters: Dict[str, float] = defaultdict(float)
    for child in op.children:
        if child.spans is None or not child.spans.exists():
            continue
        data = json.loads(child.spans.read_text())
        on_path = child in op.critical
        for (name, _, _, _, thread), seconds in zip(data["spans"], _self_times(data)):
            totals[name] += seconds
            if on_path and thread == data["main_thread"]:
                critical[name] += seconds
        for name, value in data["counters"].items():
            counters[name] += value
        if on_path:
            critical["python.startup"] += data["started"] - child.launched
            critical["python.exit"] += child.exited - data["finished"]
    glue = critical.pop("cli.main", 0.0)
    op.ledger = {"self": totals, "critical": critical, "counters": counters,
                 "covered": sum(critical.values()), "glue": glue,
                 "dist": _dist_timings(op.store_root)}


def _dist_timings(store_root: Optional[Path]) -> Dict[str, float]:
    """Coordinator-side phases from ``timings.jsonl``, summed per grant."""
    totals = {"dist.wire_s": 0.0, "dist.trace_load_s": 0.0, "dist.worker_simulate_s": 0.0}
    path = store_root / "timings.jsonl" if store_root else None
    if path is None or not path.exists():
        return totals
    grants: Dict[tuple, dict] = {}
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("component") != "coordinator":
            continue
        phases = record["phases"]
        key = (record["trace"], phases.get("trace_load"), phases.get("simulate"))
        if key not in grants or phases["total"] > grants[key]["total"]:
            grants[key] = phases
    for phases in grants.values():
        load, simulate = phases.get("trace_load", 0.0), phases.get("simulate", 0.0)
        totals["dist.trace_load_s"] += load
        totals["dist.worker_simulate_s"] += simulate
        totals["dist.wire_s"] += phases["total"] - load - simulate
    return totals


def layer_metrics(ops: List[OpResult]) -> dict:
    """Per-operation means of the layer self times and counters."""
    count = len(ops)

    def mean(values) -> float:
        return sum(values) / count

    metrics = {}
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (mean(op.ledger["self"].get(span, 0.0) for op in ops), "s")
    for name in COUNTERS:
        metrics[name] = (mean(op.ledger["counters"].get(name, 0) for op in ops), "count")
    cells = sum(op.ledger["counters"].get("sim.cells", 0) for op in ops)
    traversals = sum(op.ledger["counters"].get("sim.traversals", 0) for op in ops)
    metrics["sim.cells_per_traversal"] = (cells / traversals if traversals else 0.0, "ratio")
    for name in ("dist.wire_s", "dist.trace_load_s", "dist.worker_simulate_s"):
        metrics[name] = (mean(op.ledger["dist"][name] for op in ops), "s")
    return metrics


def ledger_lines(ops: List[OpResult]) -> List[str]:
    """Where one operation's wall time went, on its critical path."""
    count = len(ops)
    wall = sum(op.wall for op in ops) / count
    shares: Dict[str, float] = defaultdict(float)
    for op in ops:
        for name, seconds in op.ledger["critical"].items():
            shares[name] += seconds / count
    covered = sum(op.ledger["covered"] for op in ops) / count
    glue = sum(op.ledger["glue"] for op in ops) / count
    lines = [f"ledger: op wall {wall:.4f} s, covered {covered / wall:.1%}"]
    for name, seconds in sorted(shares.items(), key=lambda item: -item[1]):
        lines.append(f"  {name:<22} {seconds:9.4f} s  {seconds / wall:6.1%}")
    lines.append(f"  unattributed remainder {wall - covered:9.4f} s  "
                 f"{(wall - covered) / wall:6.1%}: cli.main self time (argument parsing, "
                 f"spec expansion, experiment assembly) {glue:.4f} s, "
                 f"untracked gaps {wall - covered - glue:.4f} s")
    return lines


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def run_one(workload: str, seed: int, seconds: float, traced: bool,
            size: str = "full", corrupt: bool = False) -> dict:
    run = Run(workload, seed, seconds, traced, size, corrupt)
    result = run.execute()
    kind = "traced" if traced else "untraced"
    print(f"== {workload} (seed {seed}, {kind}, {size}"
          f"{', output corrupted on purpose' if corrupt else ''})")
    for name, entry in result["metrics"].items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    for note in run.notes:
        print(note)
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    return result


def self_test() -> int:
    """Every workload at minimal size, both run kinds, plus a corrupted
    output that must be caught and counted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in W.WORKLOADS:
        for traced in (False, True):
            result = run_one(workload, 7, 0.5, traced, size="tiny")
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != wanted[traced]:
                problems.append(f"{workload} trace={int(traced)}: metrics {sorted(got)} "
                                f"do not match BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(traced)}: not correct")
    for workload in W.WORKLOADS:
        result = run_one(workload, 7, 0.5, False, size="tiny", corrupt=True)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{workload}: corrupted output was not caught")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    print("self-test passed" if not problems else "self-test failed")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"{ROOT / 'src' / 'repro'} is missing: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    names = W.WORKLOADS if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    correct = all(result["correct"] for result in results.values())
    if args.workload == "all":
        out = HERE / "results" / f"all-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
        print(json.dumps({"correct": correct, "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
