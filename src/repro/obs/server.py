"""Live metrics endpoint: a stdlib HTTP daemon over a collecting registry.

:class:`ObsServer` exposes the active run to pull-based monitoring with no
third-party dependency (``http.server`` + a daemon thread):

* ``GET /metrics`` — Prometheus text exposition of a fresh registry
  snapshot (``text/plain; version=0.0.4``), scrape-safe mid-run: the
  snapshot is taken under the registry lock, so buckets, sums and counts
  are always mutually consistent;
* ``GET /healthz`` — JSON liveness (status, uptime, scrape count);
* ``GET /snapshot.json`` — the full ``repro.obs/v1`` JSON payload
  (validatable with :func:`repro.obs.export.validate_payload`);
* ``GET /series.json`` — the attached :class:`TimeSeriesStore` trajectories
  (empty object when no store is attached).

Every request increments ``obs.server.requests{route=...}`` on the served
registry — scrapes are themselves observable — and is logged at debug
level to the active event log.

:class:`HttpListener` is the listener loop of this server and of the
signature service's :class:`~repro.service.http.ServiceServer`.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import urlparse

from repro.obs import logs
from repro.obs.export import build_payload, to_prometheus
from repro.obs.timeseries import TimeSeriesStore

#: Content type Prometheus scrapers expect for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

ROUTES = ("/metrics", "/healthz", "/snapshot.json", "/series.json")


class HttpListener(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` served from a daemon thread whose loop
    blocks with no timeout between connections.  :meth:`stop` wakes it
    through a socket pair, so a stop never waits out a poll."""

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._wake, self._waker = socket.socketpair()
        self._thread: Optional[threading.Thread] = None

    def start(self, name: str) -> None:
        self._thread = threading.Thread(target=self._serve, name=name, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake, selectors.EVENT_READ)
            while all(key.fileobj is self for key, _ in selector.select()):
                self._handle_request_noblock()

    def stop(self) -> None:
        """Wake the loop, wait for its thread to exit, close every socket."""
        self._waker.send(b"\0")
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.server_close()
        self._wake.close()
        self._waker.close()


class ObsServer:
    """Serve a registry (and optional series store) over HTTP.

    ``port=0`` binds an ephemeral port; read the bound one from
    ``server.port`` after :meth:`start`.  The listener thread is a daemon,
    so a forgotten server never blocks interpreter exit, but call
    :meth:`stop` (or use the context manager) for a clean shutdown.
    """

    def __init__(
        self,
        registry,
        *,
        store: Optional[TimeSeriesStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        meta: Optional[Dict] = None,
    ) -> None:
        self.registry = registry
        self.store = store
        self.host = host
        self.port = port
        self.meta = dict(meta or {})
        self._httpd: Optional[HttpListener] = None
        self._log = logs.NULL_EVENT_LOG
        self._started_at = 0.0
        self._requests = 0
        self._requests_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        handler = _make_handler(self)
        self._httpd = HttpListener((self.host, self.port), handler)
        # Handler threads start with a fresh contextvar context, so capture
        # the event log active *now* for request-time logging.
        self._log = logs.get_event_log()
        self.port = self._httpd.server_address[1]
        self._started_at = time.time()
        self._httpd.start(f"repro-obs-server:{self.port}")
        logs.emit("obs.server.started", level="info", url=self.url)
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.stop()
        self._httpd = None
        logs.emit("obs.server.stopped", level="info", url=self.url,
                  requests=self._requests)

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Responses (called from handler threads)
    # ------------------------------------------------------------------
    def _count_request(self, route: str) -> int:
        with self._requests_lock:
            self._requests += 1
            total = self._requests
        self.registry.counter("obs.server.requests", route=route).inc()
        return total

    def respond(self, path: str):
        """Return ``(status, content_type, body_text)`` for a request path."""
        route = urlparse(path).path
        if route not in ROUTES:
            return 404, "application/json", json.dumps(
                {"error": "not found", "routes": list(ROUTES)}
            ) + "\n"
        self._count_request(route)
        if route == "/metrics":
            return 200, PROMETHEUS_CONTENT_TYPE, to_prometheus(self.registry.snapshot())
        if route == "/healthz":
            return 200, "application/json", json.dumps(
                {
                    "status": "ok",
                    "uptime_s": round(time.time() - self._started_at, 3),
                    "requests": self._requests,
                    "series": 0 if self.store is None else len(self.store),
                },
                sort_keys=True,
            ) + "\n"
        if route == "/snapshot.json":
            payload = build_payload(self.registry.snapshot(), meta=self.meta)
            return 200, "application/json", json.dumps(payload, sort_keys=True) + "\n"
        series = {} if self.store is None else self.store.to_dict()
        return 200, "application/json", json.dumps(
            {"series": series}, sort_keys=True
        ) + "\n"


def _make_handler(server: ObsServer):
    class _Handler(BaseHTTPRequestHandler):
        # Scrapers poll fast; per-request stderr noise helps nobody.
        def log_message(self, format: str, *args) -> None:
            server._log.emit(
                "obs.server.request", level="debug",
                client=self.address_string(), detail=format % args,
            )

        def do_GET(self) -> None:
            try:
                status, content_type, body = server.respond(self.path)
            except Exception as error:  # noqa: BLE001 - must answer the socket
                status, content_type = 500, "application/json"
                body = json.dumps({"error": str(error)}) + "\n"
                server._log.emit("obs.server.error", level="error", error=str(error))
            encoded = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

    return _Handler
