"""Request-scoped tracing: trace ids, span trees, and a bounded trace store.

The aggregate layer (:mod:`repro.obs.registry`) answers "how slow is
``/similar`` on average" — spans there are *merged* across requests.  This
module answers the other question: "why was *this* request slow".  A
:class:`RequestContext` is minted at the service edge (one per HTTP
request), carries a ``trace_id``, an optional deadline, and a tree of
:class:`TraceSpan` records; it travels through frontend → supervisor →
shard handlers on a contextvar, so deeply nested code can attach spans
and correlate log lines without threading a context argument through
every signature.

Three consumers hang off the active trace:

* :func:`repro.obs.span` adds a node to the active trace as well as
  timing the block on the active metrics registry, so one ``with`` block
  feeds both the per-request tree and the merged aggregate.
* :class:`repro.obs.logs.EventLog` stamps ``trace_id`` / ``request_id``
  onto every record emitted while a trace is active.
* :class:`TraceStore` keeps the last N finished traces in memory for
  ``GET /trace/<id>`` — bounded, oldest evicted first, no persistence
  (traces are debugging artifacts, not records).

Everything is thread-safe: the service handles requests from HTTP server
threads while the supervisor pumps windows from the caller's thread, and
a single request's scatter-gather may touch spans from several frames.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import registry as _registry

__all__ = [
    "RequestContext",
    "TraceSpan",
    "TraceStore",
    "current_trace",
    "new_trace_id",
    "use_trace",
]


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4, no dashes)."""
    return uuid.uuid4().hex


class TraceSpan:
    """One node of a request's span tree (name, attrs, timing, children)."""

    __slots__ = ("name", "attrs", "start_s", "duration_s", "children", "error")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.duration_s = 0.0
        self.children: List["TraceSpan"] = []
        self.error: Optional[str] = None

    def to_dict(self) -> Dict:
        record: Dict = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.error is not None:
            record["error"] = self.error
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record


class RequestContext:
    """Identity, deadline and span tree for one in-flight request.

    ``deadline_s`` is a *budget* in seconds from construction; ``None``
    means unbounded.  ``remaining()`` is what callers pass down so a
    shard fan-out can stop early once the edge has already timed out.
    """

    __slots__ = (
        "trace_id",
        "request_id",
        "attrs",
        "started_s",
        "started_wall",
        "deadline_s",
        "_clock",
        "_root",
        "_stack",
        "_lock",
        "finished_s",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        **attrs,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.request_id = uuid.uuid4().hex[:16]
        self.attrs: Dict[str, object] = dict(attrs)
        self._clock = clock
        self.started_s = clock()
        self.started_wall = time.time()
        self.deadline_s = deadline_s
        self._root: Optional[TraceSpan] = None
        #: Active span stack, root-first; spans nest per the with-block
        #: structure of the code that opened them.
        self._stack: List[TraceSpan] = []
        self._lock = threading.Lock()
        self.finished_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self.started_s

    def remaining(self) -> Optional[float]:
        """Budget left, or ``None`` when the request has no deadline."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    # ------------------------------------------------------------------
    # Span tree
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[TraceSpan]:
        """Open a child span under the innermost open span (or as root)."""
        node = TraceSpan(name, attrs)
        with self._lock:
            node.start_s = self.elapsed()
            if self._stack:
                self._stack[-1].children.append(node)
            elif self._root is None:
                self._root = node
            else:
                # A second top-level span (e.g. response serialization
                # after the handler closed): keep the tree rooted.
                self._root.children.append(node)
            self._stack.append(node)
        start = self._clock()
        try:
            yield node
        except BaseException as exc:
            node.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            node.duration_s = self._clock() - start
            with self._lock:
                if node in self._stack:
                    self._stack.remove(node)

    def finish(self) -> None:
        self.finished_s = self.elapsed()

    def to_dict(self) -> Dict:
        """Plain-data image of the trace (JSON-able) for ``GET /trace/<id>``."""
        with self._lock:
            record: Dict = {
                "trace_id": self.trace_id,
                "request_id": self.request_id,
                "started_unix": self.started_wall,
                "duration_s": (
                    self.finished_s if self.finished_s is not None else self.elapsed()
                ),
            }
            if self.attrs:
                record["attrs"] = dict(self.attrs)
            if self.deadline_s is not None:
                record["deadline_s"] = self.deadline_s
            record["spans"] = self._root.to_dict() if self._root else None
            return record


def current_trace() -> Optional[RequestContext]:
    """The request context in scope, or ``None``."""
    return _registry._TRACE.get()


@contextmanager
def use_trace(context: Optional[RequestContext]) -> Iterator[Optional[RequestContext]]:
    """Make ``context`` the active trace for the block (``None`` clears it)."""
    token = _registry._TRACE.set(context)
    try:
        yield context
    finally:
        _registry._TRACE.reset(token)


class TraceStore:
    """Bounded, thread-safe store of recently finished traces.

    Insertion order is eviction order (an OrderedDict ring): once
    ``capacity`` traces are held, storing one more drops the oldest.
    """

    DEFAULT_CAPACITY = 256

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"trace store capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._traces: "OrderedDict[str, Dict]" = OrderedDict()
        self._lock = threading.Lock()

    def put(self, context: RequestContext) -> None:
        """Store a finished trace (snapshotted to plain data immediately)."""
        record = context.to_dict()
        with self._lock:
            self._traces[context.trace_id] = record
            self._traces.move_to_end(context.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Dict]:
        with self._lock:
            return self._traces.get(trace_id)

    def ids(self) -> Tuple[str, ...]:
        """Stored trace ids, oldest first."""
        with self._lock:
            return tuple(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
