"""Read-only HTTP status surface for the distributed-sweep coordinator.

``repro serve --status-port N`` starts a :class:`StatusServer` thread
next to the coordinator's TCP service.  It answers purely from
coordinator snapshots (taken under the coordinator's own lock), never
mutates scheduling state, and is completely independent of the TCP work
protocol -- killing it mid-run affects observability only, never job
correctness.

Endpoints (all ``GET``, all JSON unless noted):

``/status``
    Uptime, job totals, cells done/total, recent cells/s, ETA.
``/jobs``
    One record per submitted job: progress, degradation stats, labels.
``/workers``
    Connected workers: name, leases held, cells completed, last-seen.
``/store``
    Result-store occupancy (cells, bytes, distinct specs/traces).
``/metrics``
    Prometheus text exposition format (0.0.4): status-derived gauges
    plus everything in the process metrics registry.

Everything else is a JSON 404.  The server binds ``127.0.0.1`` by
default -- the surface is unauthenticated and read-only, so it is meant
for the coordinator host (or an ssh tunnel), not the open network.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.common import diskguard
from repro.obs import DEFAULT_STATUS_PORT
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["DEFAULT_STATUS_PORT", "StatusServer"]


class StatusServer:
    """Serves coordinator state over HTTP from a daemon thread.

    Parameters
    ----------
    coordinator:
        Object with ``status_snapshot()``, ``jobs_snapshot()`` and
        ``workers_snapshot()`` methods (the dist coordinator).
    store:
        Optional :class:`~repro.store.ResultStore` whose ``summary()``
        backs ``/store``.
    metrics:
        Registry rendered into ``/metrics``; defaults to the
        process-wide one.
    """

    def __init__(
        self,
        coordinator: Any,
        store: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_STATUS_PORT,
    ) -> None:
        self.coordinator = coordinator
        self.store = store
        self.metrics = metrics if metrics is not None else default_registry()
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``.

        Raises ``OSError`` when the port is taken, so callers can map it
        to the same exit code as a coordinator bind failure.
        """
        status = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                status._handle(self)

            def log_message(self, format: str, *args: Any) -> None:
                pass  # status polling must not spam the coordinator log

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        host, port = self._server.server_address[:2]
        self.host, self.port = str(host), int(port)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-status-http",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ----------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0].rstrip("/") or "/status"
        try:
            if path == "/status":
                self._send_json(request, 200, self.coordinator.status_snapshot())
            elif path == "/jobs":
                self._send_json(request, 200, {"jobs": self.coordinator.jobs_snapshot()})
            elif path == "/workers":
                self._send_json(
                    request, 200, {"workers": self.coordinator.workers_snapshot()}
                )
            elif path == "/store":
                summary = self.store.summary() if self.store is not None else None
                self._send_json(request, 200, {"store": summary})
            elif path == "/metrics":
                self._send_text(request, 200, self._render_metrics())
            else:
                self._send_json(request, 404, {"error": f"no such endpoint: {path}"})
        except BrokenPipeError:
            pass  # poller went away mid-response; nothing to do
        except Exception as error:  # never take the server thread down
            try:
                self._send_json(request, 500, {"error": repr(error)})
            except OSError:
                pass

    def _render_metrics(self) -> str:
        """Status-derived gauges first, then the process registry."""
        lines: List[str] = []

        def gauge(name: str, value: Any, help: str, kind: str = "gauge") -> None:
            if value is None:
                return
            lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            number = float(value)
            text = str(int(number)) if number.is_integer() else repr(number)
            lines.append(f"{name} {text}")

        snap = self.coordinator.status_snapshot()
        stats: Dict[str, int] = snap.get("stats", {})
        gauge("repro_uptime_seconds", snap.get("uptime_seconds"), "Coordinator uptime.")
        gauge("repro_jobs_total", snap.get("jobs_total"), "Jobs submitted.", "counter")
        gauge("repro_jobs_active", snap.get("jobs_active"), "Jobs not yet settled.")
        gauge(
            "repro_cells_done",
            snap.get("cells_done"),
            "Cells completed across all jobs.",
            "counter",
        )
        gauge("repro_cells_total", snap.get("cells_total"), "Cells admitted across all jobs.")
        gauge("repro_cells_pending", snap.get("cells_pending"), "Cells queued, unleased.")
        gauge("repro_cells_leased", snap.get("cells_leased"), "Cells leased to workers.")
        gauge(
            "repro_cells_per_second",
            snap.get("cells_per_second"),
            "Recent completion rate (sliding window).",
        )
        gauge(
            "repro_workers_connected",
            snap.get("workers"),
            "Worker connections currently open.",
        )
        gauge(
            "repro_workers_low_disk",
            snap.get("workers_low_disk"),
            "Connected workers advertising low disk headroom.",
        )
        gauge(
            "repro_cells_requeued_total",
            stats.get("requeued"),
            "Cells requeued after a lost lease.",
            "counter",
        )
        gauge(
            "repro_cells_retried_total",
            stats.get("retried"),
            "Cells re-leased after a loss.",
            "counter",
        )
        gauge(
            "repro_cells_quarantined_total",
            stats.get("quarantined"),
            "Cells quarantined after repeated losses.",
            "counter",
        )
        if self.store is not None:
            summary = self.store.summary()
            gauge("repro_store_cells", summary.get("cells"), "Records in the result store.")
            gauge("repro_store_bytes", summary.get("bytes"), "Result store bytes on disk.")
            gauge(
                "repro_store_distinct_traces",
                summary.get("distinct_traces"),
                "Distinct trace fingerprints in the store.",
            )
            root = getattr(self.store, "root", None)
            if root is not None:
                try:
                    free = diskguard.free_bytes(root)
                except OSError:
                    free = None
                gauge(
                    "repro_store_disk_free_bytes",
                    free,
                    "Free bytes on the filesystem holding the result store.",
                )
                disk_state = diskguard.state(root)
                gauge(
                    "repro_store_disk_low",
                    1 if disk_state in ("low", "critical") else 0,
                    "1 when store disk headroom is below the low threshold.",
                )
                gauge(
                    "repro_store_disk_critical",
                    1 if disk_state == "critical" else 0,
                    "1 when store disk headroom is below the critical threshold.",
                )
        body = "\n".join(lines) + ("\n" if lines else "")
        return body + self.metrics.render_prometheus()

    # -- response helpers ----------------------------------------------

    @staticmethod
    def _send_json(request: BaseHTTPRequestHandler, code: int, payload: Any) -> None:
        data = json.dumps(payload, indent=2, sort_keys=True, default=repr).encode("utf-8")
        request.send_response(code)
        request.send_header("Content-Type", "application/json; charset=utf-8")
        request.send_header("Content-Length", str(len(data)))
        request.end_headers()
        request.wfile.write(data)

    @staticmethod
    def _send_text(request: BaseHTTPRequestHandler, code: int, body: str) -> None:
        data = body.encode("utf-8")
        request.send_response(code)
        request.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        request.send_header("Content-Length", str(len(data)))
        request.end_headers()
        request.wfile.write(data)
