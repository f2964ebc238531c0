"""Persistent, content-addressed store of simulation results.

Sweeps in this repository are grids of ``(predictor spec, trace)`` cells,
each producing one :class:`~repro.sim.engine.SimulationResult`.  The
:class:`ResultStore` persists those cells on disk so that

* a killed or extended sweep resumes from its completed cells instead of
  recomputing them (``repro sweep --resume``),
* concurrent ``--jobs`` workers and *separate* processes sharing one store
  directory reuse each other's results, and
* future distributed runners have a dispatchable unit of work with a
  stable identity.

Cell identity
-------------
A cell key is the SHA-256 over the same identity the in-memory memo uses,
made fully content-addressed so it survives process boundaries:

* the **spec content** (:meth:`repro.api.specs.PredictorSpec.content` of
  the *resolved* spec -- explicit options, label-independent);
* the **resolved size profile** (canonical dump of the
  :class:`~repro.config.SizeProfile` the name resolved to,
  so re-registering a profile name retires its old results);
* the **trace fingerprint** (:meth:`repro.trace.trace.Trace.fingerprint`
  -- the trace's actual content plus its name, never the benchmark name
  alone, so a benchmark regenerated with different content under the same
  name can never serve stale results; the flip side is that renaming a
  trace retires its cells even when the content is unchanged);
* the **engine version** (:data:`repro.sim.engine.ENGINE_VERSION`) and the
  per-PC tracking flag.

Record format and concurrency
-----------------------------
One record per cell at ``<root>/objects/<key[:2]>/<key>.json`` (or
``.json.gz`` with ``compress=True``), written to a scratch file in the
same directory and :func:`os.replace`-d into place, so readers never
observe a partial record and concurrent writers of the same key settle on
one complete (and, results being deterministic, identical) record.  The
object tree doubles as the shared index: there is no central index file
to contend over, which is what makes independent writers safe.  Corrupt
records (truncated by a crash, hand-edited) are treated as misses and
removed so the cell is recomputed and rewritten.

Integrity
---------
Every record written by this module carries an additive ``"checksum"``
field -- ``sha256:`` over the record's canonical JSON with the checksum
field itself excluded -- verified on every read, so a bit-rotted record
that still parses as JSON is caught and recomputed rather than served.
Legacy records (written before the field existed) stay readable; the
checksum rides *outside* the keyed content, so cell keys and result
bytes are unchanged.  :meth:`ResultStore.verify` audits the whole store,
classifying each record ``ok`` / ``legacy`` / ``corrupt`` /
``truncated``; with ``repair=True`` bad records are quarantined into a
``<root>/corrupt/`` sidecar (never deleted) so the next sweep
transparently re-runs exactly those cells.  Durable writes refuse up
front with one actionable error when disk headroom is critical
(:mod:`repro.common.diskguard`).
"""

from __future__ import annotations

import errno
import gzip
import hashlib
import json
import os
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.common import diskguard
from repro.config import SizeProfile
from repro.sim.engine import ENGINE_VERSION, SimulationResult

__all__ = [
    "ResultStore",
    "profile_content",
    "result_to_dict",
    "result_from_dict",
]

#: Bump when the on-disk record schema changes (old records become misses).
_RECORD_VERSION = 1

#: Environment variable naming the store directory: unset/``0``/``off``
#: disables the store, anything else is the directory to use.
_STORE_ENV = "REPRO_RESULT_STORE"

#: Errors that mean "this record is unreadable", not "the store is broken".
_CORRUPT_ERRORS = (OSError, ValueError, KeyError, TypeError, EOFError,
                   json.JSONDecodeError, gzip.BadGzipFile)

#: Additive integrity field stamped on every written record (legacy
#: records lack it and remain readable -- see :meth:`ResultStore.verify`).
_CHECKSUM_FIELD = "checksum"
_CHECKSUM_PREFIX = "sha256:"


def _record_checksum(record: Dict[str, Any]) -> Optional[str]:
    """``sha256:`` digest of ``record``'s canonical JSON, checksum excluded.

    Canonical form is sorted-keys JSON, so the digest survives a
    parse/re-dump round trip (export/import, coordinator ingest).
    ``None`` when the record cannot be canonicalised (non-sortable
    keys); such a record is simply written without a checksum.
    """
    body = {
        field: value
        for field, value in record.items()
        if field != _CHECKSUM_FIELD
    }
    try:
        payload = json.dumps(body, ensure_ascii=False, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        return None
    return _CHECKSUM_PREFIX + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _chaos_should(point: str) -> bool:
    """Whether the chaos fault at ``point`` fires, without dragging the
    dist package into production store paths.

    The chaos module is only imported once it is plausibly configured
    (``REPRO_CHAOS`` set, or already loaded by a test's direct
    ``configure``); otherwise this is one env lookup.  Importing it loads
    ``repro.dist.chaos`` alone: the ``repro.dist`` package re-exports
    lazily, so the coordinator, worker and client stay unloaded.
    """
    module = sys.modules.get("repro.dist.chaos")
    if module is None:
        if not os.environ.get("REPRO_CHAOS"):
            return False
        from repro.dist import chaos as module
    return module.should(point)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """JSON-safe dict form of a :class:`SimulationResult`.

    This is the ``"result"`` section of a store record, and the payload
    shape the distributed runner uploads over its wire protocol
    (:mod:`repro.dist`).  Inverse: :func:`result_from_dict`.
    """
    return {
        "trace_name": result.trace_name,
        "predictor_name": result.predictor_name,
        "conditional_branches": result.conditional_branches,
        "mispredictions": result.mispredictions,
        "instructions": result.instructions,
        "storage_bits": result.storage_bits,
        "per_pc_mispredictions": {
            str(pc): count for pc, count in result.per_pc_mispredictions.items()
        },
    }


def result_from_dict(fields: Dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict` (raises on malformed input)."""
    return SimulationResult(
        trace_name=str(fields["trace_name"]),
        predictor_name=str(fields["predictor_name"]),
        conditional_branches=int(fields["conditional_branches"]),
        mispredictions=int(fields["mispredictions"]),
        instructions=int(fields["instructions"]),
        storage_bits=int(fields["storage_bits"]),
        per_pc_mispredictions={
            int(pc): int(count)
            for pc, count in (fields.get("per_pc_mispredictions") or {}).items()
        },
    )


def profile_content(profile: SizeProfile) -> str:
    """Canonical content string of a resolved :class:`SizeProfile`.

    Deterministic across processes (sorted keys, plain values), so it can
    take part in persistent cell keys the way the profile *name* cannot:
    the name says nothing about the geometry it resolves to today.
    """
    return json.dumps(asdict(profile), sort_keys=True, default=repr)


class ResultStore:
    """On-disk, content-addressed store of per-cell simulation results.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).
    compress:
        Write new records gzip-compressed.  Reading transparently accepts
        both plain and compressed records, so a store may mix them.

    The ``hits`` / ``misses`` counters track this instance's :meth:`get`
    outcomes; they are in-process statistics, not persisted state.
    """

    def __init__(self, root: Union[str, Path], compress: bool = False) -> None:
        self.root = Path(root)
        self.compress = bool(compress)
        self.hits = 0
        self.misses = 0
        self.writes_shed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"

    # ----------------------------------------------------------------- #
    # Construction helpers
    # ----------------------------------------------------------------- #

    @classmethod
    def from_env(cls) -> Optional["ResultStore"]:
        """The store named by ``REPRO_RESULT_STORE``, or ``None``.

        Unset, empty, ``0`` and ``off`` all mean "no store".
        """
        value = os.environ.get(_STORE_ENV)
        if value is None or value.strip().lower() in ("", "0", "off"):
            return None
        return cls(value)

    @classmethod
    def resolve(
        cls, store: Union["ResultStore", str, Path, None, bool]
    ) -> Optional["ResultStore"]:
        """Coerce a ``store=`` argument to a :class:`ResultStore` or ``None``.

        Accepts a ready instance, a directory path, ``None`` or ``True``
        (fall back to ``REPRO_RESULT_STORE``) or ``False`` (explicitly no
        store, even if the environment variable is set).
        """
        if store is False:
            return None
        if store is None or store is True:
            return cls.from_env()
        if isinstance(store, ResultStore):
            return store
        return cls(store)

    # ----------------------------------------------------------------- #
    # Cell identity
    # ----------------------------------------------------------------- #

    @staticmethod
    def cell_key(
        spec_content: str,
        profile: Union[SizeProfile, str],
        trace_fingerprint: str,
        track_per_pc: bool = False,
    ) -> str:
        """Content-addressed key of one ``(spec, trace)`` cell.

        ``spec_content`` must come from a *resolved* spec
        (:meth:`~repro.api.specs.PredictorSpec.resolve` then
        :meth:`~repro.api.specs.PredictorSpec.content`) so the key does not
        depend on any registry state; ``profile`` is the resolved
        :class:`SizeProfile` (or its precomputed :func:`profile_content`).
        """
        payload = json.dumps(
            {
                "engine": ENGINE_VERSION,
                "record": _RECORD_VERSION,
                "spec": spec_content,
                "profile": (
                    profile if isinstance(profile, str) else profile_content(profile)
                ),
                "trace": trace_fingerprint,
                "track_per_pc": bool(track_per_pc),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ----------------------------------------------------------------- #
    # Record access
    # ----------------------------------------------------------------- #

    def _paths_for(self, key: str) -> List[Path]:
        """Candidate record paths for ``key``, preferred format first."""
        stem = self.root / "objects" / key[:2] / key
        plain = stem.with_suffix(".json")
        packed = stem.with_suffix(".json.gz")
        return [packed, plain] if self.compress else [plain, packed]

    def get(self, key: str) -> Optional[SimulationResult]:
        """The stored :class:`SimulationResult` for ``key``, or ``None``.

        A corrupt record is removed and reported as a miss, so the caller
        recomputes and rewrites the cell -- the store self-heals.
        """
        record = self._read_record(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return _result_from_record(record)

    def get_record(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw record dict for ``key``, or ``None`` (no counters)."""
        return self._read_record(key, count=False)

    def _read_record(self, key: str, count: bool = True) -> Optional[Dict[str, Any]]:
        for path in self._paths_for(key):
            if not path.is_file():
                continue
            try:
                record = _load_record(path)
            except _CORRUPT_ERRORS:
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            if record.get("key") != key or "result" not in record:
                # A record that does not describe its own key is corrupt
                # (e.g. a file copied to the wrong name).
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            return record
        return None

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and any(
            path.is_file() for path in self._paths_for(key)
        )

    def put(
        self,
        key: str,
        result: SimulationResult,
        *,
        label: Optional[str] = None,
        trace_fingerprint: Optional[str] = None,
        spec: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist ``result`` under ``key`` (atomic write-then-rename).

        ``label``, ``trace_fingerprint`` and ``spec`` (the resolved spec's
        dict form) are descriptive metadata for ``repro store ls`` /
        ``export`` and debugging; identity lives entirely in ``key``.
        """
        record = {
            "version": _RECORD_VERSION,
            "engine_version": ENGINE_VERSION,
            "key": key,
            "created": time.time(),
            "label": label if label is not None else result.predictor_name,
            "trace_fingerprint": trace_fingerprint,
            "spec": spec,
            "result": result_to_dict(result),
        }
        return self._write_record(key, record)

    def import_record(self, record: Dict[str, Any]) -> Path:
        """Persist a full record dict produced elsewhere (atomic, validated.)

        The inverse of :meth:`export` / the per-record entries of
        :meth:`records`: merging one store into another is
        ``for record in src.export(): dst.import_record(record)``
        (the CLI form is ``repro store export | repro store import``).
        The distributed coordinator also uses this to ingest result
        records uploaded by workers that do not share its store.

        The record must carry its own ``key`` and a ``result`` section
        that round-trips through :func:`result_from_dict`; transient
        fields added by :meth:`records` (``path``, ``age_seconds``) are
        dropped.  Raises ``ValueError`` on malformed records.
        """
        if not isinstance(record, dict):
            raise ValueError("record must be a dict")
        key = record.get("key")
        if not isinstance(key, str) or not key:
            raise ValueError("record has no key")
        if record.get("version") != _RECORD_VERSION:
            raise ValueError(
                f"unsupported record version {record.get('version')!r}"
            )
        try:
            result_from_dict(record["result"])
        except _CORRUPT_ERRORS as error:
            raise ValueError(f"record {key[:12]}: malformed result ({error})") from None
        record = {
            field: value
            for field, value in record.items()
            if field not in ("path", "age_seconds")
        }
        return self._write_record(key, record)

    def _write_record(self, key: str, record: Dict[str, Any]) -> Path:
        try:
            diskguard.check_writable(
                self.root, what=f"store record write ({key[:12]})"
            )
        except diskguard.DiskPressureError:
            # Callers that treat the store as best-effort swallow the
            # error; the counter lets them report the shed writes anyway.
            self.writes_shed += 1
            raise
        path = self._paths_for(key)[0]
        path.parent.mkdir(parents=True, exist_ok=True)
        # Re-stamp the integrity checksum over the content actually being
        # written (imported records may carry one from their source store).
        record = {
            field: value
            for field, value in record.items()
            if field != _CHECKSUM_FIELD
        }
        checksum = _record_checksum(record)
        if checksum is not None:
            record[_CHECKSUM_FIELD] = checksum
        # default=repr: spec overrides may hold non-JSON values (specs allow
        # Any); metadata is descriptive, so a repr beats failing the run.
        payload = json.dumps(record, ensure_ascii=False, default=repr).encode("utf-8")
        if path.suffix == ".gz":
            # mtime=0 keeps equal payloads byte-identical across writers.
            payload = gzip.compress(payload, mtime=0)
        scratch = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            scratch.write_bytes(payload)
            if _chaos_should("store.write_enospc"):
                raise OSError(
                    errno.ENOSPC,
                    "chaos: injected ENOSPC on store record write",
                    str(path),
                )
            os.replace(scratch, path)
        except OSError:
            try:
                scratch.unlink()
            except OSError:
                pass
            raise
        return path

    # ----------------------------------------------------------------- #
    # Maintenance / introspection
    # ----------------------------------------------------------------- #

    def _record_paths(self) -> Iterator[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if path.name.startswith(".") or not path.is_file():
                    continue
                if path.name.endswith(".json") or path.name.endswith(".json.gz"):
                    yield path

    def keys(self) -> List[str]:
        """Keys of every (readable-looking) record in the store."""
        return [_key_of(path) for path in self._record_paths()]

    def __len__(self) -> int:
        return sum(1 for _ in self._record_paths())

    def records(self) -> Iterator[Dict[str, Any]]:
        """Iterate every readable record dict, silently skipping corrupt ones.

        Each yielded record additionally carries ``"path"`` (str) and
        ``"age_seconds"`` (float, from the file's mtime).
        """
        now = time.time()
        for path in self._record_paths():
            try:
                record = _load_record(path)
                age = max(0.0, now - path.stat().st_mtime)
            except _CORRUPT_ERRORS:
                continue
            record["path"] = str(path)
            record["age_seconds"] = age
            yield record

    def summary(self) -> Dict[str, Any]:
        """One-line occupancy totals: cells, bytes on disk, distinct
        specs, distinct traces.

        Backs ``repro store ls --summary`` and the coordinator's
        ``/store`` endpoint.  Corrupt records still count their bytes
        (they occupy the disk) but not their spec/trace identities.
        """
        cells = 0
        size = 0
        specs: set = set()
        traces: set = set()
        for path in self._record_paths():
            try:
                size += path.stat().st_size
            except OSError:
                pass
            try:
                record = _load_record(path)
            except _CORRUPT_ERRORS:
                continue
            cells += 1
            spec = record.get("spec")
            if isinstance(spec, dict):
                try:
                    specs.add(json.dumps(spec, sort_keys=True, default=repr))
                except (TypeError, ValueError):
                    specs.add(f"label:{record.get('label')}")
            else:
                specs.add(f"label:{record.get('label')}")
            fingerprint = record.get("trace_fingerprint")
            if isinstance(fingerprint, str):
                traces.add(fingerprint)
        return {
            "root": str(self.root),
            "cells": cells,
            "bytes": size,
            "distinct_specs": len(specs),
            "distinct_traces": len(traces),
        }

    def verify(self, repair: bool = False) -> Dict[str, Any]:
        """Audit every record, classifying its integrity.

        Each record file is classified as one of

        * ``ok`` -- parses, matches its key, and its embedded checksum
          verifies;
        * ``legacy`` -- readable but written before checksums existed
          (still served normally);
        * ``truncated`` -- cut short (crash or copy mid-write);
        * ``corrupt`` -- anything else unreadable or inconsistent,
          including a checksum mismatch on a record that still parses.

        With ``repair=True`` every ``corrupt`` / ``truncated`` file is
        *quarantined*: moved (same-filesystem rename) into the
        ``<root>/corrupt/`` sidecar for post-mortem inspection.  The
        cell then reads as a miss, so the next sweep transparently
        re-runs exactly the quarantined cells.

        Returns a report dict with ``scanned``, per-class counts,
        ``quarantined``, and a ``problems`` list (one entry per bad
        record: key, path, status, detail, and where it was moved).
        Backs ``repro store verify [--repair] [--json]``.
        """
        counts = {"ok": 0, "legacy": 0, "corrupt": 0, "truncated": 0}
        problems: List[Dict[str, Any]] = []
        scanned = 0
        quarantined = 0
        for path in self._record_paths():
            scanned += 1
            status, detail = _classify_record(path)
            counts[status] += 1
            if status in ("ok", "legacy"):
                continue
            problem: Dict[str, Any] = {
                "key": _key_of(path),
                "path": str(path),
                "status": status,
                "detail": detail,
            }
            if repair:
                target = self._quarantine(path)
                if target is not None:
                    problem["quarantined_to"] = str(target)
                    quarantined += 1
            problems.append(problem)
        report: Dict[str, Any] = {"root": str(self.root), "scanned": scanned}
        report.update(counts)
        report["quarantined"] = quarantined
        report["problems"] = problems
        return report

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a bad record into the ``corrupt/`` sidecar (never delete).

        Returns the destination, or ``None`` when the move failed (the
        record then stays in place and is reported but not repaired).
        """
        sidecar = self.root / "corrupt"
        try:
            sidecar.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        target = sidecar / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = sidecar / f"{path.name}.{suffix}"
        try:
            os.replace(path, target)
        except OSError:
            return None
        return target

    def gc(self, older_than_seconds: float) -> int:
        """Remove records whose file mtime is older than the cut-off.

        Returns the number of records removed.  Bounds store growth:
        ``repro store gc --older-than 30d`` keeps a rolling window.
        Scratch files left behind by killed writers are removed too.
        """
        cutoff = time.time() - older_than_seconds
        removed = 0
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                try:
                    stale = path.stat().st_mtime < cutoff
                except OSError:
                    continue
                if path.name.startswith("."):
                    # Scratch file: only ever stale, never a live record.
                    if stale:
                        try:
                            path.unlink()
                        except OSError:
                            pass
                    continue
                if stale:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            try:
                shard.rmdir()  # only succeeds when emptied
            except OSError:
                pass
        return removed

    def export(self) -> List[Dict[str, Any]]:
        """All records as a JSON-safe list (for ``repro store export``)."""
        return list(self.records())


def _key_of(path: Path) -> str:
    name = path.name
    for suffix in (".json.gz", ".json"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _load_record(path: Path) -> Dict[str, Any]:
    data = path.read_bytes()
    if _chaos_should("store.read_corrupt"):
        mangled = bytearray(data)
        if mangled:
            mangled[len(mangled) // 2] ^= 0xFF
        data = bytes(mangled)
    if path.suffix == ".gz":
        data = gzip.decompress(data)
    record = json.loads(data.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError(f"{path}: record is not a JSON object")
    if record.get("version") != _RECORD_VERSION:
        raise ValueError(f"{path}: unsupported record version")
    stored = record.get(_CHECKSUM_FIELD)
    if stored is not None and stored != _record_checksum(record):
        # Bit rot that still parses as JSON: never serve it.
        raise ValueError(f"{path}: checksum mismatch")
    return record


def _classify_record(path: Path) -> Tuple[str, Optional[str]]:
    """``("ok" | "legacy" | "corrupt" | "truncated", detail)`` for one file.

    The truncation heuristics lean on the record format: gzip members
    carry an end-of-stream trailer (a cut stream raises ``EOFError``),
    and plain records are ``json.dumps`` of a dict, so they always end
    with ``}`` -- a parse failure on a record that does not is a cut,
    not a flip.
    """
    try:
        data = path.read_bytes()
    except OSError as error:
        return "corrupt", f"unreadable: {error}"
    if not data:
        return "truncated", "empty file"
    if path.suffix == ".gz":
        try:
            data = gzip.decompress(data)
        except EOFError:
            return "truncated", "gzip stream ends before its trailer"
        except (OSError, gzip.BadGzipFile) as error:
            return "corrupt", f"bad gzip: {error}"
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        return "corrupt", f"not utf-8: {error}"
    try:
        record = json.loads(text)
    except json.JSONDecodeError as error:
        if not text.rstrip().endswith("}"):
            return "truncated", "record ends mid-token"
        return "corrupt", f"bad json: {error.msg} (char {error.pos})"
    if not isinstance(record, dict):
        return "corrupt", "record is not a JSON object"
    if record.get("version") != _RECORD_VERSION:
        return "corrupt", f"unsupported record version {record.get('version')!r}"
    if record.get("key") != _key_of(path):
        return "corrupt", "key does not match file name"
    try:
        result_from_dict(record["result"])
    except _CORRUPT_ERRORS as error:
        return "corrupt", f"malformed result ({error})"
    stored = record.get(_CHECKSUM_FIELD)
    if stored is None:
        return "legacy", "no checksum (pre-integrity record)"
    if stored != _record_checksum(record):
        return "corrupt", "checksum mismatch"
    return "ok", None


def _result_from_record(record: Dict[str, Any]) -> SimulationResult:
    return result_from_dict(record["result"])
