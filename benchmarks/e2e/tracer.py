"""The benchmark's own span tracer, installed from outside the program.

:func:`install` wraps public functions of every layer at class level, on
each class (and subclass) that defines them; functions imported by name
are patched where they are imported.  Each call records one span: name,
start, end, span id, parent span id, trace id and thread.  Spans stay in
memory until :meth:`Tracer.dump`.  Nothing called once per record is
wrapped, so the cost is per window, node or request.

A layer's self time is its spans' durations minus the time their child
spans cover; :func:`layer_table` computes it.  Every span's self time
adds up to the duration of the outermost spans (the roots), so the table
accounts for all traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from common import metric

#: Layers :func:`layer_metrics` reports; a span's layer is its name up to
#: the first dot (the roots ``bench.pass`` and ``http.*`` included).
LAYERS = ("pipeline", "graph", "core", "store", "streaming", "matching", "service", "obs", "http")

#: ``(module, class, method, span name)``: wrapped on the class and on
#: every loaded subclass that defines the method itself.
METHODS = (
    ("repro.pipeline.runner", "SignaturePipeline", "run", "pipeline.run"),
    ("repro.pipeline.sources", "RecordSource", "read", "pipeline.source_read"),
    ("repro.pipeline.checkpoint", "CheckpointStore", "save_window", "pipeline.checkpoint_save"),
    ("repro.graph.windows", "SlidingWindowAggregator", "advance", "graph.advance"),
    ("repro.core.scheme", "SignatureScheme", "compute", "core.compute"),
    ("repro.core.scheme", "SignatureScheme", "compute_all", "core.compute_all"),
    ("repro.store.history", "HistoryStore", "append", "store.append"),
    ("repro.store.history", "HistoryStore", "query", "store.query"),
    ("repro.store.history", "HistoryStore", "trajectory", "store.trajectory"),
    ("repro.store.history", "HistoryStore", "signature", "store.signature"),
    ("repro.store.history", "HistoryStore", "load_window", "store.load_window"),
    ("repro.streaming.stream_schemes", "StreamingTopTalkers", "observe_records", "streaming.observe"),
    ("repro.streaming.stream_schemes", "StreamingTopTalkers", "merge", "streaming.merge"),
    ("repro.matching.index", "SignatureIndex", "add_all", "matching.index_build"),
    ("repro.matching.index", "SignatureIndex", "query", "matching.index_query"),
    ("repro.service.frontend", "ServiceFrontend", "respond", "service.respond"),
    ("repro.service.frontend", "ServiceFrontend", "pump", "service.pump"),
    ("repro.service.supervisor", "ShardSupervisor", "ingest", "service.supervisor_ingest"),
    ("repro.service.shard", "ShardEngine", "apply", "service.shard_apply"),
    ("repro.service.shard", "SketchTier", "advance", "service.sketch_advance"),
    ("repro.obs.slo", "SLOTracker", "record", "obs.slo_record"),
    ("repro.obs.tracing", "TraceStore", "put", "obs.trace_put"),
    ("repro.obs.digest", "LatencyDigest", "observe", "obs.digest_observe"),
    ("repro.obs.registry", "Histogram", "observe", "obs.histogram_observe"),
)

#: ``(module, function, span name)``: patched at the module that imports it.
FUNCTIONS = (
    ("repro.pipeline.runner", "aggregate_records", "graph.aggregate"),
    ("repro.service.frontend", "parse_ingest_body", "service.parse_ingest"),
)

#: Root spans of the server process: each HTTP request (stdlib parsing and
#: socket I/O included) and each pump call of the window thread.
SERVER_ROOTS = (
    ("http.server", "BaseHTTPRequestHandler", "handle_one_request", "http.request"),
    ("repro.service.http", "SignatureService", "pump", "http.pump"),
)

# Span tuple fields.
NAME, START, END, SPAN_ID, PARENT, TRACE_ID, THREAD = range(7)


def _request_trace_id(args, kwargs) -> Optional[str]:
    """The ``X-Trace-Id`` a client sent, from ``ServiceFrontend.respond``'s
    ``headers`` argument (the id the service itself continues)."""
    headers = kwargs.get("headers") or (args[4] if len(args) > 4 else None) or {}
    for key, value in headers.items():
        if key.lower() == "x-trace-id":
            return value
    return None


#: Span name -> how a call's arguments name its trace (spans without an
#: entry inherit their parent's).
TRACE_IDS = {"service.respond": _request_trace_id}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        trace_id = trace_id or parent[1]
        stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (name, start, end, span_id, parent[0], trace_id, threading.get_ident())
            )

    def _wrap(self, function: Callable, name: str, trace_id_of=None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            trace_id = trace_id_of(args, kwargs) if trace_id_of else None
            with tracer.span(name, trace_id):
                return function(*args, **kwargs)

        return traced

    def patch(self, owner, attribute: str, name: str, trace_id_of=None) -> None:
        original = vars(owner)[attribute]
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attribute} is not a plain function")
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, name, trace_id_of))

    def patch_method(self, cls: type, method: str, name: str) -> None:
        trace_id_of = TRACE_IDS.get(name)
        for owner in [cls, *_subclasses(cls)]:
            if method in vars(owner):
                self.patch(owner, method, name, trace_id_of)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(list(self.spans)), encoding="utf-8")


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer, *, server_roots: bool = False) -> None:
    """Wrap every layer function (and, in a server, the root spans)."""
    methods = METHODS + (SERVER_ROOTS if server_roots else ())
    for module, cls, method, name in methods:
        tracer.patch_method(getattr(importlib.import_module(module), cls), method, name)
    for module, function, name in FUNCTIONS:
        tracer.patch(importlib.import_module(module), function, name)


def load_spans(path: Path) -> List[tuple]:
    return [tuple(span) for span in json.loads(Path(path).read_text(encoding="utf-8"))]


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the duration of its direct children.

    Children run on their parent's thread inside its interval, one after
    another, so their durations never overlap.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return {
        span[SPAN_ID]: max(0.0, span[END] - span[START] - covered[span[SPAN_ID]])
        for span in spans
    }


def roots(spans: List[tuple]) -> List[tuple]:
    """Outermost spans (a span whose parent never finished counts as one)."""
    ids = {span[SPAN_ID] for span in spans}
    return [span for span in spans if span[PARENT] not in ids]


def layer_table(spans: List[tuple]) -> Dict:
    """Per span name: calls, self seconds and share of the root wall, plus
    ``root_wall_s`` and ``unattributed_frac`` (the roots' own self time)."""
    own = self_times(spans)
    top = roots(spans)
    root_wall = sum(span[END] - span[START] for span in top)
    table: Dict[str, Dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        row = table[span[NAME]]
        row["calls"] += 1
        row["self_s"] += own[span[SPAN_ID]]
    for row in table.values():
        row["share"] = row["self_s"] / root_wall if root_wall else 0.0
    return {
        "functions": dict(table),
        "root_wall_s": root_wall,
        "self_sum_s": sum(own.values()),
        "unattributed_frac": (
            sum(own[span[SPAN_ID]] for span in top) / root_wall if root_wall else 0.0
        ),
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(table: Dict, overhead: float, records: int) -> Dict:
    """Per-layer metrics of a :func:`layer_table` whose spans processed
    ``records`` records: each traced layer's self-time share of the root
    wall and calls per 1000 records, ``unattributed_frac`` and the given
    ``trace_overhead_frac`` (traced / untraced cost, minus 1)."""
    metrics: Dict = {}
    for layer in LAYERS:
        rows = [row for name, row in table["functions"].items() if layer_of(name) == layer]
        if not rows:
            continue
        metrics[f"{layer}.self_frac"] = metric(sum(row["share"] for row in rows), "ratio")
        metrics[f"{layer}.calls_per_krec"] = metric(
            1000.0 * sum(row["calls"] for row in rows) / records, "1/krecord"
        )
    metrics["unattributed_frac"] = metric(table["unattributed_frac"], "ratio")
    metrics["trace_overhead_frac"] = metric(overhead, "ratio")
    return metrics
