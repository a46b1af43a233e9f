"""The service data plane: bounded ingest queue + socket-free request logic.

:class:`ServiceFrontend` implements every endpoint as a pure function from
``(method, path, query, body)`` to ``(status, headers, body)`` — the HTTP
layer (:mod:`repro.service.http`) is a thin socket adapter over it, and
tests drive the full contract without ever binding a port (the same split
``obs.server`` uses for scrape-consistency testing).

Failure envelope implemented here:

* **Backpressure** — :class:`BoundedIngestQueue` holds accepted-but-not-
  applied record batches; an ingest that does not fit is rejected whole
  with 429 and a ``Retry-After`` header.  Acceptance (202) is an
  acknowledgement: once offered, records are never dropped — they sit in
  the queue until a window closes over them.
* **Load shedding** — when queue occupancy crosses the shed threshold,
  query endpoints answer 503 (with ``Retry-After``) while ingest keeps
  being accepted: shedding reads protects the writes that back them.
* **Circuit breaking** — exact-tier query calls are guarded by the shard's
  breaker; a refused or failed call falls back to the sketch tier, built
  from the shard's ingest log on the first such read of a window, and the
  response carries ``"approximate": true``.
* **Deadlines** — a request that overruns ``request_deadline_s`` answers
  504 instead of pretending latency is fine.

Observability implemented here (the PR 9 layer):

* **Request tracing** — every request is served under a fresh
  :class:`repro.obs.RequestContext` (or one continuing the caller's
  ``X-Trace-Id``); frontend and shard code attach spans via
  ``obs.span``, the finished tree is stored in a bounded
  :class:`repro.obs.TraceStore`, and ``GET /trace/<id>`` returns it.
  Responses carry ``X-Trace-Id`` / ``X-Request-Id`` headers.
* **Metrics** — every endpoint, shard and store records through ``obs.*``
  into the active registry, which ``/metrics`` exports: the service's one
  registry, installed on every thread that runs service code
  (:class:`repro.service.http.SignatureService`).  Shard-scoped work runs
  under ``obs.use_labels(shard=...)``, so per-shard series keep a
  ``shard`` label; per-endpoint ``service.latency_s`` histograms carry
  guaranteed relative error.
* **SLOs** — declarative objectives from the config evaluated as
  multi-window error-budget burn rates at ``GET /slo``, wired into an
  :class:`repro.obs.AlertManager`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, TypeVar
from urllib.parse import parse_qs, unquote

import numpy as np

from repro import obs
from repro.core.signature import Signature
from repro.exceptions import DatasetError, PipelineError, ShardDown
from repro.graph.batch import LabelTable, RecordBatch, validate_columns
from repro.service.config import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    ServiceConfig,
)
from repro.service.shard import SketchTier
from repro.service.supervisor import ShardState, ShardSupervisor

#: ``(status, headers, body-text)`` — what the HTTP adapter writes out.
Response = Tuple[int, Dict[str, str], str]

T = TypeVar("T")

JSON_TYPE = "application/json"


class BoundedIngestQueue:
    """Thread-safe bounded buffer of record batches with all-or-nothing
    admission, counted in records."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise PipelineError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._batches: Deque[RecordBatch] = deque()
        self._queued = 0
        self._lock = threading.Lock()
        self.accepted = 0
        self.rejected = 0
        #: Set on every admitted batch, so a waiting pump closes a window
        #: as soon as it fills.
        self.arrived = threading.Event()

    def offer(self, batch: RecordBatch) -> bool:
        """Admit the whole batch, or none of it (the 429 contract)."""
        with self._lock:
            if self._queued + len(batch) > self.capacity:
                self.rejected += len(batch)
                return False
            if len(batch):
                self._batches.append(batch)
            self._queued += len(batch)
            self.accepted += len(batch)
        self.arrived.set()
        return True

    def take(
        self, count: int, labels: LabelTable, force: bool = False
    ) -> Optional[RecordBatch]:
        """Pop the oldest ``count`` records as one batch over ``labels``,
        splitting a batch that straddles the boundary; with ``force`` pop a
        short remainder too.  ``None`` when nothing (eligible) is queued.

        A part interned into another table (an older generation of
        ``labels``) is interned into ``labels`` first."""
        with self._lock:
            if not self._queued or (self._queued < count and not force):
                return None
            parts: List[RecordBatch] = []
            wanted = count
            while wanted and self._batches:
                batch = self._batches.popleft()
                if len(batch) > wanted:
                    self._batches.appendleft(batch.take(slice(wanted, None)))
                    batch = batch.take(slice(0, wanted))
                parts.append(batch)
                wanted -= len(batch)
            self._queued -= count - wanted
        return RecordBatch.concat([part.interned_into(labels) for part in parts])

    def __len__(self) -> int:
        with self._lock:
            return self._queued

    def occupancy(self) -> float:
        return len(self) / self.capacity


def service_objectives(config: ServiceConfig) -> List[obs.ServiceObjective]:
    """The SLOs a config declares (possibly empty if all are disabled)."""
    objectives: List[obs.ServiceObjective] = []
    if config.slo_availability is not None:
        objectives.append(
            obs.ServiceObjective(
                name="availability",
                endpoint="*",
                kind=obs.KIND_AVAILABILITY,
                target=config.slo_availability,
            )
        )
    if config.slo_similar_p99_s is not None:
        objectives.append(
            obs.ServiceObjective(
                name="similar-p99",
                endpoint="/similar",
                kind=obs.KIND_LATENCY,
                quantile=0.99,
                threshold_s=config.slo_similar_p99_s,
            )
        )
    return objectives


class ServiceFrontend:
    """All endpoint logic, independent of sockets and threads."""

    ROUTES = (
        "/signature/", "/similar/", "/anomaly/", "/history/", "/trajectory/",
        "/status", "/ingest", "/metrics", "/trace/", "/slo",
    )

    def __init__(
        self,
        supervisor: ShardSupervisor,
        config: ServiceConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.supervisor = supervisor
        self.config = config or supervisor.config
        self.queue = BoundedIngestQueue(self.config.queue_capacity)
        self._clock = clock
        self._started_at = clock()
        self.traces = obs.TraceStore(self.config.trace_store_size)
        objectives = service_objectives(self.config)
        self.alerts = obs.AlertManager(
            [obs.burn_rate_rule(objective) for objective in objectives]
        )
        self.slo = obs.SLOTracker(
            objectives,
            windows_s=self.config.slo_windows_s,
            clock=clock,
            alert_manager=self.alerts,
        )

    # ------------------------------------------------------------------
    # Window pump
    # ------------------------------------------------------------------
    def pump(self, force: bool = False) -> int:
        """Close as many windows as the queue can fill; returns windows closed.

        With ``force`` a final short window is closed from the remainder —
        the drain path for shutdown and synchronous tests.
        """
        closed = 0
        while True:
            bucket = self.queue.take(
                self.config.window_records, self.supervisor.labels, force=force
            )
            if bucket is None:
                break
            self.supervisor.ingest(bucket)
            closed += 1
            obs.counter("service.windows").inc()
        return closed

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def respond(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Handle one request; never raises (the data plane must answer).

        ``headers`` (optional, case-insensitive) may carry ``X-Trace-Id``
        to continue a caller's trace; the response headers always carry
        ``X-Trace-Id`` / ``X-Request-Id`` so a client can fetch its own
        span tree from ``GET /trace/<id>``.
        """
        started = self._clock()
        raw_path, _, query_string = path.partition("?")
        route = self._route_of(raw_path)
        endpoint = route or "unknown"
        obs.counter("service.requests", route=endpoint).inc()
        context = obs.RequestContext(
            trace_id=_incoming_trace_id(headers),
            deadline_s=self.config.request_deadline_s,
            clock=self._clock,
            method=method,
            path=raw_path,
            endpoint=endpoint,
        )
        with obs.use_trace(context):
            with obs.span("service.request", endpoint=endpoint):
                try:
                    response = self._handle_request(
                        method, raw_path, query_string, body, started
                    )
                except Exception as error:  # noqa: BLE001 - must answer the socket
                    obs.emit(
                        "service.error", level="error",
                        path=raw_path, error=str(error),
                    )
                    obs.counter("service.errors").inc()
                    response = self._json(500, {"error": str(error)})
            if (
                self.config.request_deadline_s is not None
                and self._clock() - started > self.config.request_deadline_s
                and response[0] < 500
            ):
                obs.counter("service.deadline_exceeded").inc()
                obs.emit("service.deadline_exceeded", level="warning", path=raw_path)
                response = self._json(
                    504,
                    {
                        "error": "request deadline exceeded",
                        "deadline_s": self.config.request_deadline_s,
                    },
                )
            # Emitted inside the trace scope so the log line carries
            # trace_id/request_id — the hook that makes `read_events(...,
            # trace_id=...)` reconstruct a single request's story.
            obs.emit(
                "service.request.done",
                level="debug",
                method=method,
                path=raw_path,
                status=response[0],
            )
        context.finish()
        self.traces.put(context)
        elapsed = self._clock() - started
        status = response[0]
        obs.histogram("service.latency_s", endpoint=endpoint).observe(elapsed)
        self.slo.record(endpoint, elapsed, ok=status < 500)
        response_headers = dict(response[1])
        response_headers["X-Trace-Id"] = context.trace_id
        response_headers["X-Request-Id"] = context.request_id
        return status, response_headers, response[2]

    @staticmethod
    def _route_of(path: str) -> Optional[str]:
        for route in ServiceFrontend.ROUTES:
            if path == route or (route.endswith("/") and path.startswith(route)):
                return route.rstrip("/") or route
        return None

    def _handle_request(
        self,
        method: str,
        path: str,
        query_string: str,
        body: Optional[str],
        started: float,
    ) -> Response:
        if path == "/status" and method == "GET":
            return self._handle_status()
        if path == "/metrics" and method == "GET":
            return self._handle_metrics()
        if path == "/slo" and method == "GET":
            return self._handle_slo()
        if path.startswith("/trace/") and method == "GET":
            return self._handle_trace(unquote(path[len("/trace/"):]))
        if path == "/ingest" and method == "POST":
            return self._handle_ingest(body)
        if method != "GET":
            return self._json(405, {"error": f"method {method} not allowed"})
        for prefix, handler in (
            ("/signature/", self._handle_signature),
            ("/similar/", self._handle_similar),
            ("/anomaly/", self._handle_anomaly),
            ("/history/", self._handle_history),
            ("/trajectory/", self._handle_trajectory),
        ):
            if path.startswith(prefix):
                shed = self._maybe_shed()
                if shed is not None:
                    return shed
                node = unquote(path[len(prefix):])
                if not node:
                    return self._json(404, {"error": "missing node id"})
                try:
                    return handler(node, parse_qs(query_string))
                except ShardDown as down:
                    return self._down_response(self.supervisor.shards[down.shard_id])
        return self._json(
            404, {"error": "not found", "routes": list(self.ROUTES)}
        )

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------
    def _maybe_shed(self) -> Optional[Response]:
        """Shed query traffic (503) while the ingest queue is under pressure."""
        if self.queue.occupancy() < self.config.shed_fraction:
            return None
        obs.counter("service.shed_queries").inc()
        obs.emit(
            "service.query_shed",
            level="warning",
            occupancy=round(self.queue.occupancy(), 3),
        )
        return self._json(
            503,
            {
                "error": "shedding query load (ingest queue under pressure)",
                "occupancy": round(self.queue.occupancy(), 3),
            },
            headers={"Retry-After": self._retry_after()},
        )

    def _retry_after(self) -> str:
        import math

        return str(max(1, math.ceil(self.config.retry_after_s)))

    def _handle_ingest(self, body: Optional[str]) -> Response:
        if not body:
            return self._json(400, {"error": "empty ingest body"})
        try:
            records = parse_ingest_body(body, self.supervisor.labels)
        except (KeyError, TypeError, ValueError, DatasetError) as error:
            return self._json(400, {"error": f"malformed ingest body: {error}"})
        if not records:
            return self._json(400, {"error": "no records in ingest body"})
        if not self.queue.offer(records):
            obs.counter("service.ingest_rejected").inc(len(records))
            obs.emit(
                "service.backpressure",
                level="warning",
                rejected=len(records),
                queued=len(self.queue),
                capacity=self.queue.capacity,
            )
            return self._json(
                429,
                {
                    "error": "ingest queue full",
                    "queued": len(self.queue),
                    "capacity": self.queue.capacity,
                },
                headers={"Retry-After": self._retry_after()},
            )
        obs.counter("service.ingest_accepted").inc(len(records))
        return self._json(
            202,
            {
                "accepted": len(records),
                "queued": len(self.queue),
                "window_records": self.config.window_records,
            },
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _tiered(
        self,
        state: ShardState,
        node: str,
        exact: Callable[[], T],
        sketch: Callable[[SketchTier], T],
    ) -> Tuple[T, bool, int]:
        """One query of ``node``'s home shard: ``(answer, approximate,
        window)``, where the answer is ``exact()`` or ``sketch(tier)``.

        Exact tier first — guarded by the shard's breaker — then the sketch
        tier of the shard's published window, which the supervisor builds
        on its first read.  ``window`` is the answering tier's, read before
        the answer, so it never names a window the tier has not applied.
        Raises :class:`~repro.exceptions.ShardDown` for a DOWN shard and
        for a failed sketch build, which marks the shard DOWN.
        """
        if state.health == HEALTH_DOWN:
            raise ShardDown(state.shard_id)
        shard = str(state.shard_id)
        with obs.use_labels(shard=shard):
            if (
                state.health == HEALTH_HEALTHY
                and state.engine is not None
                and state.breaker.allow()
            ):
                with obs.span("shard.query", shard=shard, tier="exact") as span_node:
                    started = self._clock()
                    try:
                        if state.injector is not None:
                            state.injector.on_query(state.shard_id, node)
                        window = state.engine.window
                        answer = exact()
                    except Exception as error:  # noqa: BLE001 - breaker accounting
                        state.breaker.record_failure(self._clock() - started)
                        obs.counter("shard.query_failures").inc()
                        if span_node is not None:
                            span_node.error = str(error)
                        obs.emit(
                            "service.query_failed",
                            level="warning",
                            shard=state.shard_id,
                            node=node,
                            error=str(error),
                        )
                    else:
                        state.breaker.record_success(self._clock() - started)
                        return answer, False, window
            with obs.span("sketch.fallback", shard=shard, tier="sketch"):
                tier = self.supervisor.sketch_tier(state)
                answer = sketch(tier)
        obs.counter("service.approximate_answers").inc()
        return answer, True, tier.window

    def _shard_signature(
        self, state: ShardState, node: str
    ) -> Tuple[Optional[Signature], bool, int]:
        """The node's signature from its home shard (see :meth:`_tiered`)."""
        return self._tiered(
            state,
            node,
            lambda: state.engine.signature(node),
            lambda tier: tier.signature(node),
        )

    def _handle_signature(self, node: str, _params: Dict) -> Response:
        state = self.supervisor.state_for(node)
        signature, approximate, window = self._shard_signature(state, node)
        if signature is None:
            return self._json(
                404,
                {
                    "error": f"no signature for node {node!r}",
                    "node": node,
                    "shard": state.shard_id,
                    "approximate": approximate,
                },
            )
        return self._json(
            200,
            {
                "node": node,
                "shard": state.shard_id,
                "window": window,
                "approximate": approximate,
                "scheme": self.config.scheme,
                "signature": {
                    str(dst): weight for dst, weight in signature.entries
                },
            },
        )

    def _handle_similar(self, node: str, params: Dict) -> Response:
        try:
            k = int(params.get("k", ["5"])[0])
        except ValueError:
            return self._json(400, {"error": "k must be an integer"})
        if k < 1:
            return self._json(400, {"error": f"k must be >= 1, got {k}"})
        home = self.supervisor.state_for(node)
        signature, approximate, _window = self._shard_signature(home, node)
        if signature is None:
            return self._json(
                404, {"error": f"no signature for node {node!r}", "node": node}
            )
        # Scatter-gather: every shard with a live exact tier contributes its
        # index; shards that cannot (DOWN, demoted, breaker open) are skipped
        # and the response is marked partial rather than failing the query.
        scored: List[Tuple[str, float]] = []
        skipped: List[int] = []
        trace = obs.current_trace()
        for state in self.supervisor.shards:
            # Deadline-aware gather: once the edge deadline has passed,
            # remaining shards are skipped — the 504 is coming either way,
            # so don't burn their query capacity on a dead request.
            if trace is not None and trace.expired():
                skipped.append(state.shard_id)
                continue
            if (
                self.supervisor.shard_health(state) != HEALTH_HEALTHY
                or state.engine is None
            ):
                skipped.append(state.shard_id)
                continue
            shard = str(state.shard_id)
            with obs.span("similar.gather", shard=shard), obs.use_labels(shard=shard):
                scored.extend(
                    (str(owner), score)
                    for owner, score in state.engine.query_index().query(
                        signature, k=k, exclude_self=True
                    )
                )
        scored.sort(key=lambda item: (item[1], item[0]))
        return self._json(
            200,
            {
                "node": node,
                "window": self.supervisor.window,
                "k": k,
                "approximate": approximate,
                "partial": bool(skipped),
                "shards_skipped": skipped,
                "distance": self.config.distance,
                "similar": [
                    {"node": owner, "distance": score} for owner, score in scored[:k]
                ],
            },
        )

    def _handle_anomaly(self, node: str, _params: Dict) -> Response:
        state = self.supervisor.state_for(node)
        persistence, approximate, window = self._tiered(
            state,
            node,
            lambda: state.engine.persistence(node),
            lambda tier: tier.persistence(node),
        )
        if persistence is None:
            return self._json(
                200,
                {
                    "node": node,
                    "window": window,
                    "status": "insufficient-history",
                    "persistence": None,
                    "anomalous": None,
                    "approximate": approximate,
                },
            )
        return self._json(
            200,
            {
                "node": node,
                "window": window,
                "status": "ok",
                "persistence": persistence,
                "threshold": self.config.anomaly_threshold,
                "anomalous": persistence < self.config.anomaly_threshold,
                "approximate": approximate,
            },
        )

    # ------------------------------------------------------------------
    # Time travel (history store)
    # ------------------------------------------------------------------
    def _history_unavailable(self) -> Response:
        return self._json(
            404,
            {
                "error": "history store not configured "
                "(start the service with a checkpoint or history directory)",
            },
        )

    def _handle_history(self, node: str, params: Dict) -> Response:
        """``GET /history/<node>?window=N&k=K`` — who looked like the node.

        The node's *stored* signature at ``window`` (default: its home
        shard's latest) anchors a time-travel lookalike query answered by
        every shard's history store via the on-disk LSH index.  Shards
        without a usable store are skipped and the response is marked
        ``partial``, mirroring ``/similar``.
        """
        home = self.supervisor.state_for(node)
        if home.store is None:
            return self._history_unavailable()
        history = home.store.history
        try:
            k = int(params.get("k", ["5"])[0])
        except ValueError:
            return self._json(400, {"error": "k must be an integer"})
        if k < 1:
            return self._json(400, {"error": f"k must be >= 1, got {k}"})
        raw_window = params.get("window", [None])[0]
        try:
            window = int(raw_window) if raw_window is not None else history.max_window()
        except ValueError:
            return self._json(400, {"error": "window must be an integer"})
        if window < 0:
            return self._json(
                404, {"error": "history store is empty", "node": node}
            )
        signature = history.signature(node, window)
        if signature is None:
            return self._json(
                404,
                {
                    "error": f"no stored signature for node {node!r} "
                    f"in window {window}",
                    "node": node,
                    "window": window,
                },
            )
        matches: List[Dict] = []
        skipped: List[int] = []
        trace = obs.current_trace()
        for state in self.supervisor.shards:
            if trace is not None and trace.expired():
                skipped.append(state.shard_id)
                continue
            if state.store is None:
                skipped.append(state.shard_id)
                continue
            shard = str(state.shard_id)
            with obs.span("history.gather", shard=shard), obs.use_labels(shard=shard):
                try:
                    hits = state.store.history.query(signature, window, k=k)
                except Exception:  # noqa: BLE001 - partial results beat a 500
                    skipped.append(state.shard_id)
                    continue
            matches.extend(
                {
                    "node": hit.owner,
                    "window": hit.window,
                    "distance": hit.distance,
                }
                for hit in hits
                if hit.owner != node
            )
        matches.sort(key=lambda item: (item["distance"], item["node"]))
        return self._json(
            200,
            {
                "node": node,
                "window": window,
                "k": k,
                "distance": self.config.distance,
                "partial": bool(skipped),
                "shards_skipped": skipped,
                "matches": matches[:k],
            },
        )

    def _handle_trajectory(self, node: str, params: Dict) -> Response:
        """``GET /trajectory/<node>?from=A&to=B`` — the node's stored
        signatures over windows ``[from, to)`` from its home shard's
        history store."""
        home = self.supervisor.state_for(node)
        if home.store is None:
            return self._history_unavailable()
        try:
            start = int(params["from"][0]) if "from" in params else None
            stop = int(params["to"][0]) if "to" in params else None
        except ValueError:
            return self._json(400, {"error": "from/to must be integers"})
        shard = str(home.shard_id)
        with obs.span("trajectory.gather", shard=shard), obs.use_labels(shard=shard):
            points = home.store.history.trajectory(node, start, stop)
        if not points:
            return self._json(
                404,
                {
                    "error": f"no stored windows for node {node!r}",
                    "node": node,
                    "shard": home.shard_id,
                },
            )
        return self._json(
            200,
            {
                "node": node,
                "shard": home.shard_id,
                "windows": [window for window, _ in points],
                "trajectory": [
                    {
                        "window": window,
                        "signature": {
                            str(dst): weight for dst, weight in signature.entries
                        },
                    }
                    for window, signature in points
                ],
            },
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _handle_status(self) -> Response:
        status = self.supervisor.status()
        status.update(
            {
                "uptime_s": round(self._clock() - self._started_at, 3),
                "queue": {
                    "depth": len(self.queue),
                    "capacity": self.queue.capacity,
                    "occupancy": round(self.queue.occupancy(), 4),
                    "accepted": self.queue.accepted,
                    "rejected": self.queue.rejected,
                    "shedding": self.queue.occupancy() >= self.config.shed_fraction,
                },
                "scheme": self.config.scheme,
                "k": self.config.k,
            }
        )
        healths = [shard["health"] for shard in status["shards"]]
        if all(health == HEALTH_DOWN for health in healths):
            status["service"] = HEALTH_DOWN
        elif all(health == HEALTH_HEALTHY for health in healths):
            status["service"] = HEALTH_HEALTHY
        else:
            status["service"] = HEALTH_DEGRADED
        return self._json(200, status)

    def _handle_metrics(self) -> Response:
        """The active registry in the Prometheus text format.

        Two gauges of ingest memory are set first: ``service.labels``, the
        labels in the current generation of the label table, and
        ``service.ingest_log_bytes``, the column bytes the shards' ingest
        logs hold.
        """
        from repro.obs.export import to_prometheus

        obs.gauge("service.labels").set(len(self.supervisor.labels))
        obs.gauge("service.ingest_log_bytes").set(
            sum(state.log_bytes for state in self.supervisor.shards)
        )
        return (
            200,
            {"Content-Type": obs.PROMETHEUS_CONTENT_TYPE},
            to_prometheus(obs.get_registry().snapshot()),
        )

    def _handle_slo(self) -> Response:
        return self._json(200, self.slo.evaluate())

    def _handle_trace(self, trace_id: str) -> Response:
        if not trace_id:
            return self._json(404, {"error": "missing trace id"})
        record = self.traces.get(trace_id)
        if record is None:
            return self._json(
                404,
                {
                    "error": f"no stored trace {trace_id!r}",
                    "stored_traces": len(self.traces),
                    "capacity": self.traces.capacity,
                },
            )
        return self._json(200, record)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _down_response(self, state: ShardState) -> Response:
        obs.counter("service.down_answers").inc()
        return self._json(
            503,
            {
                "error": f"shard {state.shard_id} is down",
                "shard": state.shard_id,
                "health": HEALTH_DOWN,
                "last_error": state.last_error,
            },
            headers={"Retry-After": self._retry_after()},
        )

    @staticmethod
    def _json(
        status: int, payload: Dict, headers: Optional[Dict[str, str]] = None
    ) -> Response:
        merged = {"Content-Type": JSON_TYPE}
        if headers:
            merged.update(headers)
        return status, merged, json.dumps(payload, sort_keys=True) + "\n"


def _incoming_trace_id(headers: Optional[Dict[str, str]]) -> Optional[str]:
    """The caller's ``X-Trace-Id``, if any (header names case-insensitive)."""
    if not headers:
        return None
    for name, value in headers.items():
        if name.lower() == "x-trace-id" and value:
            return str(value).strip() or None
    return None


def parse_ingest_body(body: str, labels: LabelTable) -> RecordBatch:
    """Parse an ingest payload into a record batch interned into ``labels``.

    Accepts ``{"records": [...]}`` where each record is either a 4-list
    ``[time, src, dst, weight]``, a 3-list (``weight`` 1) or an object
    with those keys (``weight`` defaults to 1).  Node ids are coerced to
    strings — the service contract.  When every row is a 4-list the
    fields are converted a column at a time; other payloads are read one
    row at a time.  Raises ``ValueError`` (or ``DatasetError`` for an
    invalid value) naming the first bad row: times must be finite and
    weights finite and non-negative.
    """
    rows = json.loads(body)["records"]
    if not isinstance(rows, list):
        raise ValueError("records must be a list")
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {4}:
        times, sources, destinations, weights = zip(*rows)
    else:
        times, sources, destinations, weights = [], [], [], []
        for index, row in enumerate(rows):
            if isinstance(row, dict):
                time_value, src, dst = row["time"], row["src"], row["dst"]
                weight = row.get("weight", 1.0)
            elif isinstance(row, list) and len(row) in (3, 4):
                time_value, src, dst = row[:3]
                weight = row[3] if len(row) == 4 else 1.0
            else:
                raise ValueError(f"record {index}: expected 3 or 4 fields, got {row!r}")
            times.append(time_value)
            sources.append(src)
            destinations.append(dst)
            weights.append(weight)
    time = _float_column(times, "time")
    weight = _float_column(weights, "weight")
    validate_columns(time, weight)
    # Interned last, so a rejected body adds no label to the table.
    return RecordBatch(
        time=time,
        src=labels.intern(list(map(str, sources))),
        dst=labels.intern(list(map(str, destinations))),
        weight=weight,
        labels=labels,
    )


def _float_column(values, field: str) -> np.ndarray:
    """``float`` of every value as a float64 array; a value ``float``
    rejects raises ``ValueError`` naming its row."""
    try:
        return np.fromiter(map(float, values), dtype=np.float64, count=len(values))
    except (TypeError, ValueError, OverflowError):
        for index, value in enumerate(values):
            try:
                float(value)
            except (TypeError, ValueError, OverflowError) as error:
                raise ValueError(f"record {index}: bad {field} {value!r}: {error}") from None
        raise
