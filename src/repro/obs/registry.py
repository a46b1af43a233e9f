"""Process-local metrics registry: counters, gauges, histograms and spans.

The registry is the hub of the observability layer (:mod:`repro.obs`).
Design constraints, in priority order:

* **Zero overhead when off.**  The default registry is the
  :class:`NullRegistry` singleton; every instrument it hands out is a
  shared no-op object, and hot paths guard their bookkeeping behind a
  single ``registry.enabled`` attribute read.
* **Mergeable across processes.**  :meth:`MetricsRegistry.snapshot`
  produces a plain-data (picklable, JSON-able) image of the registry;
  :meth:`MetricsRegistry.merge` folds a snapshot back in.  Counters and
  histogram digests add, gauges combine with ``max`` — all commutative
  and associative, so the merged result is identical for any worker
  scheduling as long as snapshots are merged in a fixed order (which
  :func:`repro.parallel.parallel_map` guarantees by merging in input
  order).
* **Deterministic output.**  Snapshots are sorted by instrument key, so
  two runs doing the same work export byte-identical payloads (modulo
  wall-clock fields).

Spans record wall time and call counts in a parent/child tree.  A span's
identity is its name plus its *string-valued* attributes (so
``span("fig1.cell", scheme="TT")`` and ``scheme="UT"`` are distinct tree
nodes), while *numeric* attributes accumulate as per-span totals (so
``span("kernel.pairwise", pairs=n * n)`` sums the workload across calls).
:func:`span` is the one span call: inside a request trace
(:mod:`repro.obs.tracing`) it also adds a node to that request's tree.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Sequence, Tuple

from repro.obs.digest import DEFAULT_RELATIVE_ACCURACY, LatencyDigest

_LabelsKey = Tuple[Tuple[str, str], ...]
_InstrumentKey = Tuple[str, _LabelsKey]


def _labels_key(labels: Dict[str, object]) -> _LabelsKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def render_key(name: str, labels: Sequence[Tuple[str, str]]) -> str:
    """Stable human/text form of an instrument key: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count; merged across workers by summing."""

    __slots__ = ("_registry", "_key")

    def __init__(self, registry: "MetricsRegistry", key: _InstrumentKey) -> None:
        self._registry = registry
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        registry = self._registry
        with registry._lock:
            registry._counters[self._key] = (
                registry._counters.get(self._key, 0.0) + amount
            )


class Gauge:
    """Point-in-time value; merged across workers by taking the maximum."""

    __slots__ = ("_registry", "_key")

    def __init__(self, registry: "MetricsRegistry", key: _InstrumentKey) -> None:
        self._registry = registry
        self._key = key

    def set(self, value: float) -> None:
        with self._registry._lock:
            self._registry._gauges[self._key] = float(value)


class Histogram:
    """A distribution: a :class:`~repro.obs.digest.LatencyDigest` at
    ``DEFAULT_RELATIVE_ACCURACY``, so every quantile it reports is within
    that relative error of a true order statistic.  Merges add bucket
    counts (see :mod:`repro.obs.digest`).
    """

    __slots__ = ("_registry", "_key")

    def __init__(self, registry: "MetricsRegistry", key: _InstrumentKey) -> None:
        self._registry = registry
        self._key = key

    def observe(self, value: float) -> None:
        registry = self._registry
        with registry._lock:
            registry._histograms[self._key].observe(value)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the null registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


class _NullSpan:
    """Reentrant no-op context manager (one shared instance, no state)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()

#: The ambient span path (tuple of span keys), shared by all registries so
#: spans nest naturally across subsystem boundaries.
_SPAN_PATH: ContextVar[Tuple[str, ...]] = ContextVar("repro_obs_span_path", default=())

#: The active request trace (a :class:`~repro.obs.tracing.RequestContext`);
#: ``None`` outside any traced request.  It lives here, beside the span
#: path, so :func:`span` reads it without importing the tracing module.
_TRACE: ContextVar = ContextVar("repro_obs_trace", default=None)


def current_span_path() -> Tuple[str, ...]:
    """The active span path (root-first); empty outside any span."""
    return _SPAN_PATH.get()


@contextmanager
def detached_span_path() -> Iterator[None]:
    """Run the block with an empty span path.

    Worker-side entry points use this: with fork-start process pools the
    child inherits the parent's contextvars, so without the reset a worker
    would record spans already prefixed by the parent's active span — and
    the parent's merge graft would then prefix them a second time.
    """
    token = _SPAN_PATH.set(())
    try:
        yield
    finally:
        _SPAN_PATH.reset(token)


def _span_key(name: str, attrs: Dict[str, object]) -> Tuple[str, Dict[str, float]]:
    """Split span attrs into identity (string-valued) and totals (numeric)."""
    identity = {
        key: value for key, value in attrs.items() if isinstance(value, str)
    }
    values = {
        key: float(value)
        for key, value in attrs.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    return render_key(name, _labels_key(identity)), values


class _Span:
    """Live span: times the ``with`` body and records into the registry."""

    __slots__ = ("_registry", "_key", "_values", "_token", "_start")

    def __init__(
        self, registry: "MetricsRegistry", key: str, values: Dict[str, float]
    ) -> None:
        self._registry = registry
        self._key = key
        self._values = values
        self._token = None
        self._start = 0.0

    def __enter__(self) -> None:
        self._token = _SPAN_PATH.set(_SPAN_PATH.get() + (self._key,))
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        path = _SPAN_PATH.get()
        _SPAN_PATH.reset(self._token)
        self._registry._record_span(path, elapsed, self._values)


def _new_span_stats() -> Dict:
    return {
        "count": 0,
        "total_s": 0.0,
        "min_s": float("inf"),
        "max_s": 0.0,
        "values": {},
    }


class MetricsRegistry:
    """A collecting registry.  See the module docstring for the contract."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_InstrumentKey, float] = {}
        self._gauges: Dict[_InstrumentKey, float] = {}
        self._histograms: Dict[_InstrumentKey, LatencyDigest] = {}
        self._spans: Dict[Tuple[str, ...], Dict] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return Counter(self, (name, _labels_key(labels)))

    def gauge(self, name: str, **labels) -> Gauge:
        return Gauge(self, (name, _labels_key(labels)))

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = LatencyDigest(DEFAULT_RELATIVE_ACCURACY)
        return Histogram(self, key)

    def _span(self, name: str, attrs: Dict[str, object]) -> _Span:
        key, values = _span_key(name, attrs)
        return _Span(self, key, values)

    def _record_span(
        self, path: Tuple[str, ...], elapsed: float, values: Dict[str, float]
    ) -> None:
        with self._lock:
            stats = self._spans.setdefault(path, _new_span_stats())
            stats["count"] += 1
            stats["total_s"] += elapsed
            stats["min_s"] = min(stats["min_s"], elapsed)
            stats["max_s"] = max(stats["max_s"], elapsed)
            for key, value in values.items():
                stats["values"][key] = stats["values"].get(key, 0.0) + value

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-data image of the registry (picklable, JSON-able, sorted)."""
        with self._lock:
            return {
                "counters": [
                    [name, dict(labels), value]
                    for (name, labels), value in sorted(self._counters.items())
                ],
                "gauges": [
                    [name, dict(labels), value]
                    for (name, labels), value in sorted(self._gauges.items())
                ],
                "histograms": [
                    [name, dict(labels), state.to_dict()]
                    for (name, labels), state in sorted(self._histograms.items())
                ],
                "spans": [
                    {
                        "path": list(path),
                        "count": stats["count"],
                        "total_s": stats["total_s"],
                        "min_s": stats["min_s"],
                        "max_s": stats["max_s"],
                        "values": dict(stats["values"]),
                    }
                    for path, stats in sorted(self._spans.items())
                ],
            }

    def merge(self, snapshot: Dict, prefix: Tuple[str, ...] = ()) -> None:
        """Fold a :meth:`snapshot` into this registry.

        ``prefix`` grafts the snapshot's span trees under an existing span
        path — :func:`repro.parallel.parallel_map` passes the caller's
        active span path so worker span trees land exactly where the same
        work would have landed had it run serially.
        """
        with self._lock:
            for name, labels, value in snapshot.get("counters", []):
                key = (name, _labels_key(labels))
                self._counters[key] = self._counters.get(key, 0.0) + value
            for name, labels, value in snapshot.get("gauges", []):
                key = (name, _labels_key(labels))
                self._gauges[key] = max(self._gauges.get(key, value), value)
            for name, labels, incoming in snapshot.get("histograms", []):
                key = (name, _labels_key(labels))
                state = self._histograms.get(key)
                if state is None:
                    self._histograms[key] = LatencyDigest.from_dict(incoming)
                    continue
                try:
                    state.merge(LatencyDigest.from_dict(incoming))
                except ValueError:
                    raise ValueError(
                        f"cannot merge histogram {render_key(name, _labels_key(labels))!r}:"
                        f" relative accuracies differ"
                    ) from None
            for record in snapshot.get("spans", []):
                path = prefix + tuple(record["path"])
                stats = self._spans.setdefault(path, _new_span_stats())
                stats["count"] += record["count"]
                stats["total_s"] += record["total_s"]
                stats["min_s"] = min(stats["min_s"], record["min_s"])
                stats["max_s"] = max(stats["max_s"], record["max_s"])
                for key, value in record.get("values", {}).items():
                    stats["values"][key] = stats["values"].get(key, 0.0) + value

    # ------------------------------------------------------------------
    # Convenience accessors (tests and report plumbing)
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get((name, _labels_key(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label sets."""
        with self._lock:
            return sum(
                value
                for (counter_name, _labels), value in self._counters.items()
                if counter_name == name
            )

    def counters_flat(self, prefix: str = "") -> Dict[str, float]:
        """Counters as a ``rendered-key -> value`` dict (optionally filtered)."""
        with self._lock:
            return {
                render_key(name, labels): value
                for (name, labels), value in sorted(self._counters.items())
                if name.startswith(prefix)
            }


class NullRegistry:
    """The default, do-nothing registry.  All instruments are shared no-ops."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def _span(self, name: str, attrs: Dict[str, object]) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> Dict:
        return {"counters": [], "gauges": [], "histograms": [], "spans": []}

    def merge(self, snapshot: Dict, prefix: Tuple[str, ...] = ()) -> None:
        return None

    def counter_value(self, name: str, **labels) -> float:
        return 0.0

    def counter_total(self, name: str) -> float:
        return 0.0

    def counters_flat(self, prefix: str = "") -> Dict[str, float]:
        return {}


NULL_REGISTRY = NullRegistry()

_ACTIVE: ContextVar = ContextVar("repro_obs_registry", default=NULL_REGISTRY)


def get_registry():
    """The registry currently collecting metrics (the null one by default)."""
    return _ACTIVE.get()


def enabled() -> bool:
    """Whether a real (collecting) registry is active."""
    return _ACTIVE.get().enabled


@contextmanager
def use_registry(registry) -> Iterator:
    """Route all :mod:`repro.obs` instrumentation to ``registry`` for the block."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


#: Labels every instrument created through :func:`counter`, :func:`gauge`
#: and :func:`histogram` carries (see :func:`use_labels`).
_LABELS: ContextVar[Dict[str, str]] = ContextVar("repro_obs_labels", default={})


@contextmanager
def use_labels(**labels) -> Iterator[None]:
    """Add ``labels`` to every counter, gauge and histogram the block
    creates through the module-level helpers; a label the call site names
    itself wins.  Scopes nest (the inner one wins too).  Spans are
    unchanged: their string attributes already name what they time.

    The service runs each shard's work under ``use_labels(shard=...)``, so
    one registry keeps per-shard series apart.
    """
    token = _LABELS.set({**_LABELS.get(), **labels})
    try:
        yield
    finally:
        _LABELS.reset(token)


def _scoped(labels: Dict[str, object]) -> Dict[str, object]:
    scope = _LABELS.get()
    return {**scope, **labels} if scope else labels


def counter(name: str, **labels):
    """Counter on the active registry (no-op when observability is off)."""
    return _ACTIVE.get().counter(name, **_scoped(labels))


def gauge(name: str, **labels):
    """Gauge on the active registry (no-op when observability is off)."""
    return _ACTIVE.get().gauge(name, **_scoped(labels))


def histogram(name: str, **labels):
    """Histogram on the active registry (no-op when observability is off)."""
    return _ACTIVE.get().histogram(name, **_scoped(labels))


def span(name: str, **attrs):
    """The one span call: times the ``with`` body on the active registry
    (a shared no-op when observability is off) and, while a request trace
    is active, adds a node for it to that trace's tree.

    Yields the trace node inside a request, ``None`` otherwise.
    """
    registry_span = _ACTIVE.get()._span(name, attrs)
    trace = _TRACE.get()
    if trace is None:
        return registry_span
    return _traced_span(trace, name, attrs, registry_span)


@contextmanager
def _traced_span(trace, name: str, attrs: Dict[str, object], registry_span) -> Iterator:
    with trace.span(name, **attrs) as node, registry_span:
        yield node


def merge_into_active(snapshot: Dict) -> None:
    """Merge a worker snapshot into the active registry, grafting the
    snapshot's spans under the caller's current span path.  No-op when
    observability is off."""
    registry = _ACTIVE.get()
    if registry.enabled:
        registry.merge(snapshot, prefix=current_span_path())
