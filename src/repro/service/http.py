"""HTTP shell of the signature service.

:class:`SignatureService` composes the supervisor (control plane) with the
frontend (data plane) and a background *pump* thread that closes windows
whenever the ingest queue holds one; :class:`ServiceServer` bolts the
stdlib ``ThreadingHTTPServer`` on top, following the ``obs.server`` split:
all response logic lives in the socket-free
:meth:`~repro.service.frontend.ServiceFrontend.respond`, the handler only
moves bytes.

Ingest is asynchronous by design: ``POST /ingest`` acknowledges admission
to the bounded queue (202), and the pump applies whole windows to the
shard fleet from a single thread — shard engines never see concurrent
mutation, while any number of handler threads read consistent snapshots.
A handler thread whose read needs a shard's sketch tier builds it from
the shard's ingest log, under the shard's lock.

Observability has one context per service: one metrics registry (the
caller's active one when it collects, else a fresh one) and the event
log active at construction.  :class:`SignatureService` installs both on
every thread where service code runs — the constructor's history
restore, the pump thread, and every ``ingest``/``pump``/``respond``/
``close`` call (HTTP handler threads included) — so ``/metrics`` and the
event log see shard, store, kernel and alert signals from all of them.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro import obs
from repro.graph.batch import RecordBatch
from repro.graph.stream import EdgeRecord
from repro.obs.server import HttpListener
from repro.service.config import ServiceConfig
from repro.service.frontend import Response, ServiceFrontend
from repro.service.supervisor import ShardSupervisor


class SignatureService:
    """The whole service minus sockets: supervisor + frontend + pump."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        checkpoint_dir: Optional[str | Path] = None,
        history_dir: Optional[str | Path] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.config = config or ServiceConfig()
        active = obs.get_registry()
        self._registry = active if active.enabled else obs.MetricsRegistry()
        self._events = obs.get_event_log()
        with self._installed():
            self.supervisor = ShardSupervisor(
                self.config,
                checkpoint_dir=checkpoint_dir,
                history_dir=history_dir,
                clock=clock,
                sleep=sleep,
            )
            self.frontend = ServiceFrontend(self.supervisor, self.config, clock=clock)
        self._pump_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._pump_lock = threading.Lock()

    @contextmanager
    def _installed(self) -> Iterator[None]:
        """Run the block under the service's registry and event log."""
        with obs.use_registry(self._registry), obs.use_event_log(self._events):
            yield

    # ------------------------------------------------------------------
    # Synchronous conveniences (tests, examples, CLI replay)
    # ------------------------------------------------------------------
    def ingest(self, records: Sequence[EdgeRecord]) -> bool:
        """Offer records directly to the queue; ``False`` means backpressure.

        The records become one batch interned into the service's label
        table; an invalid record (non-finite time or weight) raises
        :class:`~repro.exceptions.DatasetError` naming it, as ``/ingest``
        answers 400.
        """
        with self._installed():
            batch = RecordBatch.from_records(records, self.supervisor.labels)
            return self.frontend.queue.offer(batch.validate())

    def pump(self, force: bool = False) -> int:
        """Close all currently fillable windows (serialized with the thread)."""
        with self._pump_lock, self._installed():
            return self.frontend.pump(force=force)

    def respond(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[dict] = None,
    ) -> Response:
        with self._installed():
            return self.frontend.respond(method, path, body, headers=headers)

    # ------------------------------------------------------------------
    # Background pump
    # ------------------------------------------------------------------
    def start_pump(self, interval_s: float = 0.05) -> None:
        """Run the window pump on a daemon thread until :meth:`stop_pump`.

        An idle pump wakes on every admitted batch (and at least every
        ``interval_s``), so a window closes as soon as it fills.
        """
        if self._pump_thread is not None:
            raise RuntimeError("pump already running")
        self._stop.clear()
        arrived = self.frontend.queue.arrived

        def loop() -> None:
            with self._installed():
                while not self._stop.is_set():
                    if self.pump() == 0:
                        arrived.wait(interval_s)
                        arrived.clear()

        self._pump_thread = threading.Thread(
            target=loop, name="repro-service-pump", daemon=True
        )
        self._pump_thread.start()

    def stop_pump(self, drain: bool = True) -> None:
        """Stop the pump thread; with ``drain`` close a final short window."""
        self._stop.set()
        self.frontend.queue.arrived.set()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=5.0)
            self._pump_thread = None
        if drain:
            self.pump(force=True)

    def close(self) -> None:
        """Shut the service down: stop the pump (draining a final short
        window) and release the supervisor's shared-memory pool, if any."""
        with self._installed():
            self.stop_pump(drain=True)
            self.supervisor.close()


class ServiceServer:
    """Serve a :class:`SignatureService` over HTTP (stdlib only).

    ``port=0`` binds an ephemeral port; read the bound one from ``.port``
    after :meth:`start`.  The context manager starts both the listener and
    the ingest pump, and drains the queue on exit.
    """

    def __init__(
        self,
        service: SignatureService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pump_interval_s: float = 0.05,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.pump_interval_s = pump_interval_s
        self._httpd: Optional[HttpListener] = None

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        handler = _make_handler(self)
        self._httpd = HttpListener((self.host, self.port), handler)
        self.port = self._httpd.server_address[1]
        self._httpd.start(f"repro-service-server:{self.port}")
        self.service.start_pump(self.pump_interval_s)
        obs.emit("service.server.started", level="info", url=self.url)
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self.service.close()
        self._httpd.stop()
        self._httpd = None
        obs.emit("service.server.stopped", level="info", url=self.url)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _make_handler(server: ServiceServer):
    service = server.service

    class _Handler(BaseHTTPRequestHandler):
        # Handler threads start with a fresh contextvar context, so what
        # they record goes through the service's install.  Load tests
        # hammer the endpoints; per-request stderr noise helps nobody —
        # route it to the service's event log instead.
        def log_message(self, format: str, *args) -> None:
            with service._installed():
                obs.emit(
                    "service.server.request",
                    level="debug",
                    client=self.address_string(),
                    detail=format % args,
                )

        def _serve(self, method: str, body: Optional[str]) -> None:
            try:
                status, headers, payload = service.respond(
                    method, self.path, body, headers=dict(self.headers)
                )
            except Exception as error:  # noqa: BLE001 - must answer the socket
                status = 500
                headers = {"Content-Type": "application/json"}
                payload = json.dumps({"error": str(error)}) + "\n"
                with service._installed():
                    obs.emit("service.server.error", level="error", error=str(error))
            encoded = payload.encode("utf-8")
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def do_GET(self) -> None:
            self._serve("GET", None)

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length).decode("utf-8") if length else None
            self._serve("POST", body)

    return _Handler
