"""Service and maintenance commands of the CLI.

``repro serve``, ``worker``, ``submit``, ``top``, ``store`` and ``ingest``
live here rather than in :mod:`repro.cli`, which imports this module only
when one of them runs: the common commands -- above all a ``repro sweep``
the result store answers -- never compile this code.  Argument parsing
for every command stays in :func:`repro.cli.build_parser`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict

from repro.cli import (
    EXIT_BIND_FAILURE,
    EXIT_CORRUPTION,
    EXIT_UNREACHABLE,
    _error_message,
    _expand_grid_specs,
    _log_stderr,
    _parse_duration,
    _print_sweep_results,
    _progress_printer,
    _report_store_use,
    _resolve_store,
    _suite_traces,
    _sweep_result_set,
    _write_output,
)
from repro.sim.runner import ConfigurationRun
from repro.store import ResultStore


def main(args: argparse.Namespace) -> int:
    """Run the parsed service or maintenance command ``args.command``."""
    commands = {
        "serve": _command_serve,
        "worker": _command_worker,
        "submit": _command_submit,
        "top": _command_top,
        "store": _command_store,
        "ingest": _command_ingest,
    }
    command = commands.get(args.command)
    if command is None:  # pragma: no cover - build_parser() lists every command
        raise AssertionError(f"unhandled command {args.command!r}")
    return command(args)


def _grant_limit(args: argparse.Namespace) -> int:
    """Cells per lease grant for serve/worker (1 disables batching)."""
    from repro.sim.runner import DEFAULT_BATCH_CELLS

    if getattr(args, "no_batch", False):
        return 1
    return args.batch if args.batch is not None else DEFAULT_BATCH_CELLS


def _command_serve(args: argparse.Namespace) -> int:
    from repro.dist import Coordinator, JobFailed

    store = _resolve_store(args.store)
    if args.base is None and args.param:
        print("--param needs --base", file=sys.stderr)
        return 2
    journal_path = None
    if args.journal is not None:
        if args.journal:
            journal_path = args.journal
        elif store is not None:
            journal_path = str(Path(store.root) / "journal.jsonl")
        else:
            print(
                "--journal without PATH needs a store to put journal.jsonl "
                "in: pass --store DIR (or --journal PATH)",
                file=sys.stderr,
            )
            return 2
    try:
        coordinator = Coordinator(
            host=args.host,
            port=args.port,
            store=store if store is not None else False,
            lease_timeout=args.lease_timeout,
            batch=_grant_limit(args),
            journal=journal_path,
            max_lease_losses=args.max_lease_losses,
            progress=_progress_printer(args, "serve"),
            log=_log_stderr,
        )
    except ValueError as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    try:
        coordinator.start()
    except OSError as error:
        print(f"cannot listen on {args.host}:{args.port}: {error}", file=sys.stderr)
        return EXIT_BIND_FAILURE
    if coordinator.recovered_jobs:
        print(
            f"journal recovery: re-admitted {len(coordinator.recovered_jobs)} "
            "unfinished job(s)",
            file=sys.stderr,
        )
    status_server = None
    if args.status_port is not None:
        from repro.obs.http import StatusServer

        status_server = StatusServer(
            coordinator,
            store=store,
            host=args.status_host,
            port=args.status_port,
        )
        try:
            status_server.start()
        except OSError as error:
            coordinator.shutdown()
            print(
                f"cannot bind status server on "
                f"{args.status_host}:{args.status_port}: {error}",
                file=sys.stderr,
            )
            return EXIT_BIND_FAILURE
        print(f"status endpoint: {status_server.url}/status", file=sys.stderr)
    try:
        if args.base is None:
            # Idle service: accept `repro submit` jobs until Ctrl-C.
            print(
                "serving submitted sweeps; stop with Ctrl-C", file=sys.stderr
            )
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print("\ncoordinator stopped.", file=sys.stderr)
            return 0
        try:
            base_spec, specs = _expand_grid_specs(args)
            traces = _suite_traces(args)
            job = coordinator.submit(specs, traces)
        except (KeyError, TypeError, ValueError) as error:
            print(_error_message(error), file=sys.stderr)
            return 2
        print(
            f"sweep job {job.job_id}: {job.total} cell(s); waiting for workers "
            f"(repro worker --connect {args.host}:{coordinator.address[1]})",
            file=sys.stderr,
        )
        try:
            while not job.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            print("\nserve interrupted.", file=sys.stderr)
            if store is not None:
                print(
                    "completed cells are in the store; rerun the same "
                    "`repro serve` command to resume from them",
                    file=sys.stderr,
                )
            return 130
        try:
            runs = job.runs()
        except JobFailed as error:
            print(f"sweep failed: {error}", file=sys.stderr)
            return 1
        results = _sweep_result_set(specs, base_spec, job.trace_names, runs)
        _print_sweep_results(args, results, specs)
        _report_store_use(store)
        return 0
    finally:
        if status_server is not None:
            status_server.close()
        coordinator.shutdown()


def _command_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.dist import CoordinatorUnreachable, ProtocolError
    from repro.dist.worker import DEFAULT_RECONNECT, make_worker

    store = _resolve_store(args.store)
    try:
        worker = make_worker(
            args.connect,
            jobs=args.jobs,
            store=store if store is not None else False,
            name=args.name,
            connect_retry=args.connect_retry,
            reconnect=(
                args.reconnect if args.reconnect is not None else DEFAULT_RECONNECT
            ),
            batch=_grant_limit(args),
            log=_log_stderr,
        )
    except ValueError as error:
        print(f"worker failed: {_error_message(error)}", file=sys.stderr)
        return 2

    # SIGTERM (the fleet manager's stop signal) drains: finish and upload
    # everything in flight, lease nothing new, exit 0.
    def _drain(signum, frame):
        print(
            "worker received SIGTERM; draining in-flight work before exiting",
            file=sys.stderr,
        )
        worker.request_stop()

    previous = signal.signal(signal.SIGTERM, _drain)
    try:
        completed = worker.run()
    except KeyboardInterrupt:
        print("\nworker stopped; leased cells will be requeued.", file=sys.stderr)
        return 130
    except CoordinatorUnreachable as error:
        print(f"worker failed: {_error_message(error)}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (OSError, ProtocolError, ValueError) as error:
        print(f"worker failed: {_error_message(error)}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"completed {completed} cell(s)", file=sys.stderr)
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.dist import ProtocolError, submit_sweep

    try:
        base_spec, specs = _expand_grid_specs(args)
        traces = _suite_traces(args)
    except (KeyError, TypeError, ValueError) as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    try:
        cell_results = submit_sweep(
            args.connect,
            specs,
            traces,
            progress=_progress_printer(args, "submit"),
        )
    except KeyboardInterrupt:
        print(
            "\nsubmit interrupted; the job keeps running on the coordinator.",
            file=sys.stderr,
        )
        return 130
    except (OSError, ProtocolError, RuntimeError, ValueError) as error:
        print(f"submit failed: {_error_message(error)}", file=sys.stderr)
        return 1
    try:
        runs = {
            spec.label: ConfigurationRun(
                configuration=spec.label,
                results=[
                    cell_results[(spec.label, index)] for index in range(len(traces))
                ],
            )
            for spec in specs
        }
    except KeyError as error:
        print(
            f"coordinator returned an incomplete job (missing cell {error})",
            file=sys.stderr,
        )
        return 1
    results = _sweep_result_set(
        specs, base_spec, [trace.name for trace in traces], runs
    )
    _print_sweep_results(args, results, specs)
    return 0


def _command_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    return run_top(
        args.connect,
        interval=args.interval,
        iterations=args.iterations,
        clear=args.clear,
    )


def _command_store(args: argparse.Namespace) -> int:
    store = _resolve_store(args.store)
    if store is None:
        print(
            "no result store: pass --store DIR or set REPRO_RESULT_STORE",
            file=sys.stderr,
        )
        return 2
    if args.store_command == "ls" and getattr(args, "summary_view", False):
        summary = store.summary()
        if args.json_output:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            f"{summary['cells']} cell(s), {summary['bytes']} bytes on disk, "
            f"{summary['distinct_specs']} distinct spec(s), "
            f"{summary['distinct_traces']} distinct trace(s) in {summary['root']}"
        )
        return 0
    if args.store_command == "ls" and getattr(args, "traces_view", False):
        return _store_ls_traces(store, args)
    if args.store_command == "ls":
        entries = []
        for record in store.records():
            result = record.get("result", {})
            instructions = int(result.get("instructions", 0))
            mpki = (
                1000.0 * int(result.get("mispredictions", 0)) / instructions
                if instructions > 0
                else None
            )
            entries.append(
                {
                    "key": record.get("key"),
                    "label": record.get("label"),
                    "predictor_name": result.get("predictor_name"),
                    "trace_name": result.get("trace_name"),
                    "trace_fingerprint": record.get("trace_fingerprint"),
                    "mpki": mpki,
                    "mispredictions": result.get("mispredictions"),
                    "conditional_branches": result.get("conditional_branches"),
                    "instructions": result.get("instructions"),
                    "storage_bits": result.get("storage_bits"),
                    "age_seconds": record.get("age_seconds", 0.0),
                    "path": record.get("path"),
                }
            )
        if args.json_output:
            # Machine-readable: the coordinator smoke job and CI use this
            # to verify store contents without scraping the table.
            print(json.dumps(entries, indent=2))
            return 0
        for entry in entries:
            mpki_text = (
                f"{entry['mpki']:8.3f}" if entry["mpki"] is not None else "     n/a"
            )
            print(
                f"{(entry['key'] or '?')[:12]}  "
                f"{entry['predictor_name'] or '?':<32} "
                f"{entry['trace_name'] or '?':<12} "
                f"mpki={mpki_text}  age={_format_age(entry['age_seconds'])}"
            )
        print(f"{len(entries)} record(s) in {store.root}", file=sys.stderr)
        return 0
    if args.store_command == "gc":
        try:
            cutoff = _parse_duration(args.older_than)
        except ValueError as error:
            print(_error_message(error), file=sys.stderr)
            return 2
        removed = store.gc(cutoff)
        print(
            f"removed {removed} record(s) older than {args.older_than} "
            f"from {store.root}",
            file=sys.stderr,
        )
        return 0
    if args.store_command == "export":
        _write_output(json.dumps(store.export(), indent=2), args.output)
        return 0
    if args.store_command == "import":
        try:
            if args.input == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.input, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read records from {args.input}: {error}", file=sys.stderr)
            return 2
        if isinstance(data, dict):
            data = [data]
        if not isinstance(data, list):
            print(
                f"{args.input}: expected a record object or a list of records",
                file=sys.stderr,
            )
            return 2
        imported = skipped = 0
        for record in data:
            try:
                store.import_record(record)
                imported += 1
            except (ValueError, OSError):
                skipped += 1
        print(
            f"imported {imported} record(s) into {store.root}"
            + (f", skipped {skipped} malformed" if skipped else ""),
            file=sys.stderr,
        )
        return 0 if not skipped else 1
    if args.store_command == "verify":
        report = store.verify(repair=args.repair)
        bad = report["corrupt"] + report["truncated"]
        if args.json_output:
            print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_CORRUPTION if bad else 0
        print(
            f"scanned {report['scanned']} record(s) in {report['root']}: "
            f"{report['ok']} ok, {report['legacy']} legacy (no checksum), "
            f"{report['corrupt']} corrupt, {report['truncated']} truncated"
        )
        for problem in report["problems"]:
            line = (
                f"  {problem['status']:<9} {(problem['key'] or '?')[:12]}  "
                f"{problem['detail']}"
            )
            if problem.get("quarantined_to"):
                line += f" -> quarantined to {problem['quarantined_to']}"
            print(line)
        if bad and args.repair:
            print(
                f"quarantined {report['quarantined']} record(s); the next "
                "sweep will recompute those cells",
                file=sys.stderr,
            )
        elif bad:
            print(
                "re-run with --repair to quarantine them so the next sweep "
                "recomputes those cells",
                file=sys.stderr,
            )
        return EXIT_CORRUPTION if bad else 0
    raise AssertionError(
        f"unhandled store command {args.store_command!r}"
    )  # pragma: no cover


def _store_ls_traces(store: ResultStore, args: argparse.Namespace) -> int:
    """``repro store ls --traces``: one row per trace fingerprint.

    Maps the fingerprints the store keys cells under back to the trace
    names its records carry, so an operator can tell which stored cells
    belong to which ingested trace (re-ingesting with a different chunk
    geometry yields a new fingerprint -- and therefore a new row).
    """
    by_fingerprint: Dict[str, Dict[str, Any]] = {}
    for record in store.records():
        fingerprint = record.get("trace_fingerprint") or "?"
        result = record.get("result", {})
        entry = by_fingerprint.setdefault(
            fingerprint, {"fingerprint": fingerprint, "names": set(), "cells": 0}
        )
        entry["cells"] += 1
        name = result.get("trace_name")
        if name:
            entry["names"].add(str(name))
    entries = [
        {
            "fingerprint": entry["fingerprint"],
            "names": sorted(entry["names"]),
            "cells": entry["cells"],
        }
        for entry in sorted(by_fingerprint.values(), key=lambda e: e["fingerprint"])
    ]
    if args.json_output:
        print(json.dumps(entries, indent=2))
        return 0
    for entry in entries:
        names = ", ".join(entry["names"]) or "?"
        print(
            f"{entry['fingerprint'][:16]}  {entry['cells']:>5} cell(s)  {names}"
        )
    print(
        f"{len(entries)} trace(s) across {sum(e['cells'] for e in entries)} "
        f"record(s) in {store.root}",
        file=sys.stderr,
    )
    return 0


def _format_age(seconds: float) -> str:
    for unit, size in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= size:
            return f"{seconds / size:.1f}{unit}"
    return f"{seconds:.0f}s"


def _command_ingest(args: argparse.Namespace) -> int:
    from repro.ingest import IngestError, ingest_trace
    from repro.trace.chunked import DEFAULT_CHUNK_BRANCHES, ChunkedTrace, load_any_trace

    if args.ingest_command == "convert":
        try:
            report = ingest_trace(
                args.input,
                args.output,
                reader=args.reader,
                name=args.name,
                layout=args.layout,
                chunk_branches=(
                    args.chunk_branches
                    if args.chunk_branches is not None
                    else DEFAULT_CHUNK_BRANCHES
                ),
                on_error=args.on_error,
                default_gap=args.default_gap,
            )
        except IngestError as error:
            print(f"ingest rejected: {error}", file=sys.stderr)
            return 1
        except (OSError, ValueError) as error:
            print(f"ingest failed: {_error_message(error)}", file=sys.stderr)
            return 2
        if args.json_output:
            print(json.dumps(report.to_dict(), indent=2))
            return 0
        chunks = f", {report.chunks} chunk(s)" if report.chunks else ""
        repairs = (
            f", {report.repaired} repaired, {report.skipped} skipped"
            if report.repaired or report.skipped
            else ""
        )
        print(
            f"ingested {report.records} record(s) "
            f"({report.conditional} conditional) from {report.input} "
            f"via the {report.reader} reader into {report.output} "
            f"({report.layout} layout{chunks}{repairs}, "
            f"{report.branches_per_second:,.0f} branches/s)"
        )
        print(f"fingerprint: {report.fingerprint}")
        for attribution in report.attributions:
            print(f"  note: {attribution}", file=sys.stderr)
        return 0
    try:
        trace = load_any_trace(args.path)
    except (OSError, ValueError) as error:
        print(_error_message(error), file=sys.stderr)
        return 2
    chunked = isinstance(trace, ChunkedTrace)
    if args.ingest_command == "validate":
        try:
            if chunked:
                trace.validate()
        except (OSError, ValueError) as error:
            print(f"validation failed: {_error_message(error)}", file=sys.stderr)
            return 1
        print(
            f"{args.path}: OK ({len(trace)} record(s), "
            f"fingerprint {trace.fingerprint()})"
        )
        return 0
    if args.ingest_command == "inspect":
        info: Dict[str, Any] = {
            "path": args.path,
            "name": trace.name,
            "layout": "chunked" if chunked else "monolithic",
            "records": len(trace),
            "conditional": trace.conditional_count,
            "instructions": trace.instruction_count,
            "fingerprint": trace.fingerprint(),
            "metadata": dict(trace.metadata),
        }
        if chunked:
            info["chunks"] = trace.chunk_count
            info["chunk_branches"] = trace.manifest.get("chunk_branches")
        if args.json_output:
            print(json.dumps(info, indent=2))
            return 0
        for key in (
            "name", "layout", "records", "conditional", "instructions",
            "chunks", "chunk_branches", "fingerprint",
        ):
            if key in info:
                print(f"{key}: {info[key]}")
        for key, value in sorted(info["metadata"].items()):
            print(f"metadata.{key}: {value}")
        return 0
    raise AssertionError(
        f"unhandled ingest command {args.ingest_command!r}"
    )  # pragma: no cover

