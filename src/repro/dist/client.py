"""Client side of the distributed sweep service.

Two entry points:

* :func:`submit_sweep` -- upload a whole sweep (specs x traces) to a
  running coordinator, stream its progress, and return the per-cell
  results.  ``repro submit`` is a thin wrapper.
* :class:`DistBackend` -- the pluggable execution backend
  :class:`~repro.sim.runner.SuiteRunner` and
  :class:`~repro.api.experiment.Experiment` accept (``backend=``): the
  runner's batch of missing cells is submitted instead of being fanned
  over the local process pool, so ``Experiment(...,
  backend=DistBackend("host:4780"))`` transparently runs on the cluster
  and stays bit-identical to a serial run.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.api.specs import PredictorSpec
from repro.config import SizeProfile
from repro.dist import protocol
from repro.dist.protocol import ConnectionClosed, ProtocolError
from repro.sim.engine import SimulationResult
from repro.store import result_from_dict
from repro.trace.trace import Trace

__all__ = ["DistBackend", "submit_sweep", "parse_address"]

#: Results keyed by ``(label, trace index)``.
CellResults = Dict[Tuple[str, int], SimulationResult]


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Coerce ``"host:port"`` (or a ready tuple) into ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, _, port_text = str(address).rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"coordinator address needs HOST:PORT, got {address!r}")
    return host, int(port_text)


def _notify(progress, done: int, total: int, frame: Dict[str, Any]) -> None:
    """Invoke a progress callable, forwarding requeued/retried/quarantined
    stats to callables that declare ``stats_aware`` (duck-typed so plain
    ``(done, total)`` callables keep working unchanged)."""
    if progress is None:
        return
    if getattr(progress, "stats_aware", False):
        stats = {
            key: int(frame[key])
            for key in ("requeued", "retried", "quarantined")
            if isinstance(frame.get(key), int)
        }
        progress(done, total, stats=stats or None)
    else:
        progress(done, total)


def submit_cells(
    address: Union[str, Tuple[str, int]],
    entries: Sequence[Dict[str, Any]],
    traces: Sequence[Trace],
    track_per_pc: bool = False,
    cells: Optional[Sequence[Tuple[str, int]]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    timeout: Optional[float] = None,
    submit_retry: float = 10.0,
) -> CellResults:
    """Low-level submit: pre-resolved spec entries, explicit traces.

    ``entries`` are ``{"label", "spec", "profile"}`` dicts exactly as the
    protocol defines them; ``cells`` optionally restricts the job to a
    subset of ``(label, trace index)`` pairs.  Blocks until the job
    settles; raises ``RuntimeError`` when the coordinator reports a
    failure (including quarantined cells, each with its attributed error)
    and :class:`ProtocolError` on wire trouble.

    Transient connect/submit failures -- the coordinator not yet
    listening, or restarting -- are retried with jittered backoff for up
    to ``submit_retry`` seconds until the job is *accepted*.  After
    acceptance there is nothing safe to retry into (resubmitting would
    start a second job), so wire trouble then surfaces to the caller,
    whose store-backed ``--resume`` is the recovery path.
    """
    host, port = parse_address(address)
    frame: Dict[str, Any] = {
        "type": "submit",
        "protocol": protocol.PROTOCOL_VERSION,
        "track_per_pc": bool(track_per_pc),
        "specs": list(entries),
        "traces": [protocol.encode_trace(trace) for trace in traces],
    }
    if cells is not None:
        frame["cells"] = [[label, index] for label, index in cells]
    sock, rfile, wfile, accepted = _submit_until_accepted(
        host, port, frame, timeout, submit_retry
    )
    try:
        total = int(accepted.get("total", 0))
        _notify(progress, int(accepted.get("done", 0)), total, accepted)
        while True:
            reply = protocol.expect(
                protocol.read_frame(rfile), "progress", "job_done"
            )
            if reply["type"] == "progress":
                _notify(progress, int(reply.get("done", 0)), total, reply)
                continue
            if "error" in reply:
                raise RuntimeError(f"distributed sweep failed: {reply['error']}")
            _notify(progress, int(reply.get("done", 0)), total, reply)
            quarantined = reply.get("quarantined_cells")
            if quarantined:
                details = "; ".join(
                    f"({cell.get('label')}, {cell.get('index')}): {cell.get('error')}"
                    for cell in quarantined
                )
                raise RuntimeError(
                    f"distributed sweep failed: {len(quarantined)} cell(s) "
                    f"quarantined -- {details}"
                )
            results: CellResults = {}
            for cell in reply.get("cells", []):
                try:
                    key = (str(cell["label"]), int(cell["index"]))
                    results[key] = result_from_dict(cell["result"])
                except (KeyError, TypeError, ValueError) as error:
                    raise ProtocolError(f"malformed job_done cell: {error}") from None
            return results
    finally:
        for stream in (wfile, rfile):
            try:
                stream.close()
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass


def _submit_until_accepted(
    host: str,
    port: int,
    frame: Dict[str, Any],
    timeout: Optional[float],
    submit_retry: float,
):
    """Connect and submit until an ``accepted`` frame arrives.

    Each attempt is a fresh connection, so a half-delivered submit frame
    on a dying socket is simply abandoned -- the coordinator only admits
    (and journals) a job whose submit frame parsed completely, so retrying
    can never double-admit.
    """
    deadline = time.monotonic() + max(0.0, float(submit_retry))
    delay = 0.05
    while True:
        sock = None
        rfile = wfile = None
        try:
            sock = protocol.connect(host, port, timeout=timeout)
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            protocol.write_frame(wfile, frame)
            accepted = protocol.expect(protocol.read_frame(rfile), "accepted")
            return sock, rfile, wfile, accepted
        except (OSError, ConnectionClosed) as error:
            for stream in (wfile, rfile):
                if stream is not None:
                    try:
                        stream.close()
                    except OSError:
                        pass
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"cannot submit to coordinator at {host}:{port} "
                    f"within {submit_retry:.0f}s: {error}"
                ) from None
            time.sleep(delay * (0.5 + random.random()))
            delay = min(delay * 2, 2.0)


def submit_sweep(
    address: Union[str, Tuple[str, int]],
    specs: Sequence[PredictorSpec],
    traces: Sequence[Trace],
    track_per_pc: bool = False,
    registry=None,
    progress: Optional[Callable[[int, int], None]] = None,
    timeout: Optional[float] = None,
    submit_retry: float = 10.0,
) -> CellResults:
    """Submit a sweep of :class:`PredictorSpec` over ``traces``.

    Specs are resolved locally (against ``registry``), so the caller's
    registrations -- custom configurations and size profiles -- travel to
    the coordinator as self-contained payloads.
    """
    if registry is None:
        from repro.api.registry import default_registry

        registry = default_registry()
    entries = []
    for spec in specs:
        resolved = spec.resolve(registry)
        sizes = registry.resolve_profile(resolved.profile)
        entries.append(
            {
                "label": spec.label,
                "spec": resolved.to_dict(),
                "profile": protocol.profile_to_payload(sizes),
            }
        )
    return submit_cells(
        address, entries, traces,
        track_per_pc=track_per_pc, progress=progress, timeout=timeout,
        submit_retry=submit_retry,
    )


class DistBackend:
    """Execution backend that dispatches runner batches to a coordinator.

    Use it anywhere the local pool would run::

        backend = DistBackend("127.0.0.1:4780")
        Experiment(specs, ..., backend=backend).run()

    The runner hands over its already-resolved specs, profiles and the
    exact set of missing cells; results come back per cell and are merged
    (and persisted to a configured store) exactly like pool results, so
    distributed runs are bit-identical to serial ones.
    """

    name = "dist"

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        timeout: Optional[float] = None,
    ) -> None:
        self.address = parse_address(address)
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistBackend({self.address[0]}:{self.address[1]})"

    def execute(
        self,
        specs: Mapping[str, PredictorSpec],
        sizes: Mapping[str, SizeProfile],
        traces: Sequence[Trace],
        pending: Sequence[Tuple[str, int]],
        track_per_pc: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> CellResults:
        """Run ``pending`` ``(label, trace index)`` cells remotely."""
        entries = [
            {
                "label": label,
                "spec": spec.to_dict(),
                "profile": protocol.profile_to_payload(sizes[label]),
            }
            for label, spec in specs.items()
        ]
        return submit_cells(
            self.address, entries, traces,
            track_per_pc=track_per_pc, cells=pending,
            progress=progress, timeout=self.timeout,
        )
