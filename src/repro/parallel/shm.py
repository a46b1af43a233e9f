"""Zero-copy shared-memory parallel recompute engine.

:func:`repro.parallel.pmap.parallel_map` pickles every task's full inputs
through a pipe — fine for grids of small self-describing cells, fatal for
"recompute these 50k signatures on this 2M-edge window" where the window
itself dominates the payload.  This module takes the other route, after
the message-size-batched MPI master/worker fan-out in SNIPPETS.md:

1. the parent *publishes* large inputs once — graph adjacency rows as
   insertion-ordered CSR buffers, long target lists — into named
   :mod:`multiprocessing.shared_memory` segments, described by a small
   picklable *manifest* (segment names, dtypes, shapes, byte counts);
2. a persistent :class:`~concurrent.futures.ProcessPoolExecutor` receives
   *index-range work items* (manifest + ``[start, stop)``), never the
   arrays themselves;
3. workers reattach zero-copy (attachments are cached per manifest token,
   so a window is mapped once per worker, not once per task) and return
   results in ``message_size``-batched chunks;
4. the parent merges chunks **in input order**, so the assembled result is
   byte-identical to the serial computation regardless of worker
   scheduling.

Byte-identity is load-bearing, not best-effort: graphs are published as
*insertion-ordered* CSR (rows and columns in adjacency-dict iteration
order, never canonicalised/sorted), so the reconstructed
:class:`~repro.graph.comm_graph.CommGraph` replays every order-sensitive
float reduction — ``sum(neighbours.values())``, matrix assembly from
``edges()`` — bit-for-bit.  A scheme's batch gives every owner the
signature it would get alone, so every scheme's targets are partitioned
by the same rule.

Segment lifecycle: every segment created in this process is recorded in a
registry that unlinks leftovers at interpreter exit (``atexit``), so even
a worker crash mid-dispatch cannot leak ``/dev/shm`` entries past the
parent's lifetime; :meth:`ShmEngine.close` releases deterministically.
Tests assert emptiness via :func:`active_segment_names`.

Observability (when a collecting registry is active in the caller): a
``shm.workers`` gauge, ``shm.bytes_shared`` / ``shm.dispatches`` /
``shm.tasks`` counters, a ``shm.dispatch`` span per fan-out, and worker
span trees grafted under the caller's active span in input order, exactly
like :func:`parallel_map`.
"""

from __future__ import annotations

import atexit
import itertools
import math
import multiprocessing
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np
from multiprocessing import shared_memory

from repro import obs
from repro.core.signature import Signature
from repro.exceptions import ReproError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.parallel.pmap import effective_jobs
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheme import SignatureScheme

__all__ = [
    "ArraySpec",
    "GraphManifest",
    "ShmEngine",
    "ShmError",
    "active_segment_names",
    "attach_array",
    "attach_graph",
    "publish_graph",
    "release_manifest",
]

#: Default number of per-target results per worker→parent message.
DEFAULT_MESSAGE_SIZE = 256

#: Below this many targets the id list rides inside the work item itself;
#: above it, the list is published once as a shared pickle blob and tasks
#: carry only ``[start, stop)``.
_INLINE_TARGET_LIMIT = 2048

#: Worker-side attachment cache sizes (graphs are windows — a handful
#: live at a time; blobs are per-dispatch target lists).
_WORKER_GRAPH_CACHE = 4
_WORKER_BLOB_CACHE = 8


class ShmError(ReproError):
    """Shared-memory engine misuse (closed engine, bad manifest, ...)."""


# ----------------------------------------------------------------------
# Segment registry: guaranteed unlink-on-exit
# ----------------------------------------------------------------------
class _SegmentRegistry:
    """Ledger of every shared-memory segment this process created.

    Segments are unlinked explicitly (engine close / manifest release) or,
    as a last resort, by the :mod:`atexit` hook — so a worker crash or an
    abandoned engine cannot leak ``/dev/shm`` entries past the parent
    process's lifetime.  (Workers never create segments; they only attach,
    and the ``multiprocessing`` resource tracker is shared across the pool
    process tree, so only the parent's unlink retires the name.)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._counter = itertools.count()

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        with self._lock:
            name = f"repro-shm-{os.getpid()}-{next(self._counter)}"
            segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
            self._segments[segment.name] = segment
        return segment

    def unlink(self, name: str) -> None:
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is None:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def cleanup(self) -> None:
        for name in self.names():
            self.unlink(name)


_REGISTRY = _SegmentRegistry()
atexit.register(_REGISTRY.cleanup)


def active_segment_names() -> List[str]:
    """Names of shared-memory segments this process created and has not
    yet unlinked.  Empty once every engine/manifest is released — tests
    assert on this to prove nothing leaks into ``/dev/shm``."""
    return _REGISTRY.names()


# ----------------------------------------------------------------------
# Array and blob publication
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArraySpec:
    """Where one numpy array lives: segment name + dtype + shape.

    ``segment`` is ``None`` for zero-byte arrays (POSIX shared memory
    cannot be zero-sized); attach materialises an empty array instead.
    """

    segment: Optional[str]
    dtype: str
    shape: Tuple[int, ...]
    nbytes: int


def _share_array(array: np.ndarray) -> ArraySpec:
    """Copy ``array`` into a fresh named segment and describe it."""
    array = np.ascontiguousarray(array)
    spec = ArraySpec(None, str(array.dtype), tuple(array.shape), int(array.nbytes))
    if array.nbytes == 0:
        return spec
    segment = _REGISTRY.create(array.nbytes)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    obs.counter("shm.bytes_shared").inc(array.nbytes)
    return ArraySpec(segment.name, spec.dtype, spec.shape, spec.nbytes)


def _share_blob(payload: object) -> ArraySpec:
    """Pickle an arbitrary object (node-id tables, target lists) into a
    segment — shipped once, not per task."""
    return _share_array(np.frombuffer(pickle.dumps(payload), dtype=np.uint8))


# Worker-side attachments, cached so a published window is mapped and
# reconstructed once per worker process, not once per work item.
_ATTACHED_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_GRAPH_CACHE: "OrderedDict[str, CommGraph]" = OrderedDict()
_BLOB_CACHE: "OrderedDict[str, object]" = OrderedDict()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    segment = _ATTACHED_SEGMENTS.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        _ATTACHED_SEGMENTS[name] = segment
    return segment


def attach_array(spec: ArraySpec) -> np.ndarray:
    """Zero-copy read-only view of a published array.

    Read-only is deliberate: the buffer is shared across every worker, so
    an accidental in-place mutation must fail loudly rather than corrupt
    sibling processes.
    """
    if spec.segment is None:
        return np.empty(spec.shape, dtype=np.dtype(spec.dtype))
    segment = _attach_segment(spec.segment)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    view.flags.writeable = False
    return view


def _load_blob(spec: ArraySpec) -> object:
    return pickle.loads(attach_array(spec).tobytes())


def _cached_blob(spec: ArraySpec) -> object:
    assert spec.segment is not None
    payload = _BLOB_CACHE.get(spec.segment)
    if payload is None:
        payload = _load_blob(spec)
        _BLOB_CACHE[spec.segment] = payload
        while len(_BLOB_CACHE) > _WORKER_BLOB_CACHE:
            _BLOB_CACHE.popitem(last=False)
    else:
        _BLOB_CACHE.move_to_end(spec.segment)
    return payload


# ----------------------------------------------------------------------
# Graph publication: insertion-ordered CSR manifests
# ----------------------------------------------------------------------
_TOKENS = itertools.count()


def _next_token(prefix: str) -> str:
    return f"{prefix}-{os.getpid()}-{next(_TOKENS)}"


@dataclass(frozen=True)
class GraphManifest:
    """A published :class:`CommGraph`: node-id blob + two insertion-ordered
    CSR triples (out-rows, in-rows) + exact scalar state.

    The CSR is **not** canonical sparse form — rows follow adjacency-dict
    insertion order and columns follow per-row neighbour insertion order —
    precisely so :func:`attach_graph` rebuilds dicts whose iteration order
    (and therefore every order-sensitive float reduction downstream) is
    bit-identical to the published graph.
    """

    token: str
    bipartite: bool
    num_edges: int
    total_weight: float
    nodes: ArraySpec  # pickled node-id list, insertion order
    out_indptr: ArraySpec
    out_cols: ArraySpec
    out_data: ArraySpec
    in_indptr: ArraySpec
    in_cols: ArraySpec
    in_data: ArraySpec
    sides: Optional[ArraySpec]  # uint8 per node: 0=left, 1=right, 2=unassigned

    @property
    def nbytes(self) -> int:
        return _manifest_nbytes(self)


def _manifest_specs(manifest) -> List[ArraySpec]:
    specs = []
    for field in fields(manifest):
        value = getattr(manifest, field.name)
        if isinstance(value, ArraySpec):
            specs.append(value)
    return specs


def _manifest_nbytes(manifest) -> int:
    return sum(spec.nbytes for spec in _manifest_specs(manifest))


def release_manifest(manifest) -> None:
    """Unlink every segment a manifest points at (idempotent)."""
    for spec in _manifest_specs(manifest):
        if spec.segment is not None:
            _REGISTRY.unlink(spec.segment)


def publish_graph(graph: CommGraph) -> GraphManifest:
    """Publish ``graph`` into shared memory and return its manifest.

    The caller owns the segments: release them via
    :func:`release_manifest` (or :meth:`ShmEngine.close` for
    engine-cached publications); the atexit registry is the backstop.
    """
    ordering = graph.nodes()
    out_indptr, out_cols, out_data, _ = graph.out_rows()
    in_indptr, in_cols, in_data, _ = graph.in_rows()
    is_bipartite = isinstance(graph, BipartiteGraph)
    sides_spec = None
    if is_bipartite:
        codes = np.full(len(ordering), 2, dtype=np.uint8)
        for i, node in enumerate(ordering):
            if node in graph._left:
                codes[i] = 0
            elif node in graph._right:
                codes[i] = 1
        sides_spec = _share_array(codes)
    return GraphManifest(
        token=_next_token("graph"),
        bipartite=is_bipartite,
        num_edges=graph.num_edges,
        total_weight=graph.total_weight,
        nodes=_share_blob(ordering),
        out_indptr=_share_array(out_indptr),
        out_cols=_share_array(out_cols),
        out_data=_share_array(out_data),
        in_indptr=_share_array(in_indptr),
        in_cols=_share_array(in_cols),
        in_data=_share_array(in_data),
        sides=sides_spec,
    )


def _csr_to_rows(
    ordering: List[NodeId],
    indptr: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
) -> Dict[NodeId, Dict[NodeId, float]]:
    col_list = cols.tolist()
    data_list = data.tolist()  # Python floats, bit-exact
    bounds = indptr.tolist()
    rows: Dict[NodeId, Dict[NodeId, float]] = {}
    for i, node in enumerate(ordering):
        start, stop = bounds[i], bounds[i + 1]
        rows[node] = {
            ordering[col_list[j]]: data_list[j] for j in range(start, stop)
        }
    return rows


def attach_graph(manifest: GraphManifest) -> CommGraph:
    """Reconstruct the published graph, bit-identical in iteration order.

    The adjacency dicts are materialised (schemes need dict access), but
    from a single shared read — no pickled graph ever crosses a pipe, and
    workers cache the reconstruction per manifest token.
    """
    ordering: List[NodeId] = _load_blob(manifest.nodes)  # type: ignore[assignment]
    cls = BipartiteGraph if manifest.bipartite else CommGraph
    graph = cls.__new__(cls)
    graph._columns = None
    graph._out = _csr_to_rows(
        ordering,
        attach_array(manifest.out_indptr),
        attach_array(manifest.out_cols),
        attach_array(manifest.out_data),
    )
    graph._in = _csr_to_rows(
        ordering,
        attach_array(manifest.in_indptr),
        attach_array(manifest.in_cols),
        attach_array(manifest.in_data),
    )
    graph._num_edges = manifest.num_edges
    graph._total_weight = manifest.total_weight
    graph._version = 0
    graph._cache = {}
    graph._cache_stats = {}
    if manifest.bipartite and manifest.sides is not None:
        codes = attach_array(manifest.sides).tolist()
        graph._left = {node for node, code in zip(ordering, codes) if code == 0}
        graph._right = {node for node, code in zip(ordering, codes) if code == 1}
    return graph


def _cached_graph(manifest: GraphManifest) -> CommGraph:
    graph = _GRAPH_CACHE.get(manifest.token)
    if graph is None:
        graph = attach_graph(manifest)
        _GRAPH_CACHE[manifest.token] = graph
        while len(_GRAPH_CACHE) > _WORKER_GRAPH_CACHE:
            _GRAPH_CACHE.popitem(last=False)
    else:
        _GRAPH_CACHE.move_to_end(manifest.token)
    return graph


# ----------------------------------------------------------------------
# Work items
# ----------------------------------------------------------------------
class _ComputeTask:
    """Index-range signature recompute: manifest + target range, never the
    graph.  Results travel back as compact ``(owner, entries)`` tuples —
    one message per ≤ ``message_size`` targets."""

    __slots__ = (
        "manifest",
        "scheme",
        "targets_spec",
        "inline_targets",
        "start",
        "stop",
        "collect",
    )

    def __init__(
        self,
        manifest: GraphManifest,
        scheme: "SignatureScheme",
        targets_spec: Optional[ArraySpec],
        inline_targets: Optional[List[NodeId]],
        start: int,
        stop: int,
        collect: bool,
    ) -> None:
        self.manifest = manifest
        self.scheme = scheme
        self.targets_spec = targets_spec
        self.inline_targets = inline_targets
        self.start = start
        self.stop = stop
        self.collect = collect

    def run(self):
        graph = _cached_graph(self.manifest)
        if self.inline_targets is not None:
            chunk = self.inline_targets
        else:
            targets: List[NodeId] = _cached_blob(self.targets_spec)  # type: ignore[assignment]
            chunk = targets[self.start : self.stop]
        if self.collect:
            registry = obs.MetricsRegistry()
            with obs.detached_span_path(), obs.use_registry(registry):
                signatures = self.scheme._compute_batch(graph, list(chunk))
            snapshot = registry.snapshot()
        else:
            signatures = self.scheme._compute_batch(graph, list(chunk))
            snapshot = None
        rows = [(node, signature.entries) for node, signature in signatures.items()]
        return rows, snapshot


def _execute(task):
    return task.run()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ShmEngine:
    """Persistent worker pool computing over shared-memory publications.

    One engine owns one pool and one publication cache; create it once per
    run (pipeline run, experiment, shard supervisor), dispatch many times,
    then :meth:`close` — or use it as a context manager.  Publications are
    cached per ``(graph identity, graph version)`` so a graph is
    republished exactly when it mutates, and the
    previous window's segments are evicted once the cache overflows.

    Thread-safe for publication bookkeeping; dispatches from multiple
    threads share the pool.
    """

    #: Byte-identical to the serial path (a
    #: :class:`~repro.core.execution.ComputeEngine`).
    exact = True

    def __init__(
        self,
        jobs: int = 0,
        message_size: int = DEFAULT_MESSAGE_SIZE,
        start_method: Optional[str] = None,
        graph_cache_size: int = 4,
    ) -> None:
        if message_size < 1:
            raise ShmError(f"message_size must be >= 1, got {message_size}")
        if graph_cache_size < 1:
            raise ShmError("the publication cache size must be >= 1")
        self._workers = effective_jobs(jobs)
        self._message_size = int(message_size)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._start_method = start_method
        self._graph_cache_size = graph_cache_size
        self._pool: Optional[ProcessPoolExecutor] = None
        # Strong refs keep id() keys stable for the lifetime of the entry.
        self._graphs: "OrderedDict[Tuple[int, int], Tuple[GraphManifest, CommGraph]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._closed = False
        self._bytes_shared = 0

    # -- introspection -------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    @property
    def message_size(self) -> int:
        return self._message_size

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def bytes_shared(self) -> int:
        """Total bytes published through this engine (cumulative)."""
        return self._bytes_shared

    def segment_names(self) -> List[str]:
        """Segments currently held by this engine's publication cache."""
        with self._lock:
            specs: List[ArraySpec] = []
            for manifest, _graph in self._graphs.values():
                specs.extend(_manifest_specs(manifest))
        return sorted(spec.segment for spec in specs if spec.segment is not None)

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ShmEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and unlink every published segment.

        Idempotent; after closing, dispatch methods raise :class:`ShmError`.
        """
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            manifests = [manifest for manifest, _ in self._graphs.values()]
            self._graphs.clear()
        for manifest in manifests:
            release_manifest(manifest)
        obs.gauge("shm.workers").set(0)

    def _check_open(self) -> None:
        if self._closed:
            raise ShmError("ShmEngine is closed")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._pool
        if pool is None:
            context = multiprocessing.get_context(self._start_method)
            pool = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=context
            )
            self._pool = pool
            obs.gauge("shm.workers").set(self._workers)
        return pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def _run(self, tasks: List) -> List:
        """Submit tasks and collect results in input order.

        A dead worker poisons the whole pool (``BrokenProcessPool``): the
        pool is discarded so the next dispatch starts a fresh one, and the
        error propagates — published segments stay registered and are
        released by :meth:`close` / atexit, never leaked.
        """
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_execute, task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._discard_pool()
            raise

    # -- publication ---------------------------------------------------
    def publish_graph(self, graph: CommGraph) -> GraphManifest:
        """Publish (or return the cached publication of) ``graph``."""
        self._check_open()
        key = (id(graph), graph.version)
        with self._lock:
            entry = self._graphs.get(key)
            if entry is not None:
                self._graphs.move_to_end(key)
                return entry[0]
        manifest = publish_graph(graph)
        evicted: List[GraphManifest] = []
        with self._lock:
            self._graphs[key] = (manifest, graph)
            self._bytes_shared += manifest.nbytes
            while len(self._graphs) > self._graph_cache_size:
                old_manifest, _old_graph = self._graphs.popitem(last=False)[1]
                evicted.append(old_manifest)
        for old in evicted:
            release_manifest(old)
        return manifest

    # -- dispatch ------------------------------------------------------
    def compute_batch(
        self,
        scheme: "SignatureScheme",
        graph: CommGraph,
        targets: Optional[Sequence[NodeId]] = None,
    ) -> Dict[NodeId, Signature]:
        """``scheme._compute_batch(graph, targets)``, fanned across the
        pool — byte-identical to the serial call, results in target order.
        ``targets=None`` means every node, as in ``compute_all``.
        """
        self._check_open()
        targets = list(targets) if targets is not None else graph.nodes()
        if not targets:
            return {}
        manifest = self.publish_graph(graph)
        chunk = max(1, min(self._message_size, math.ceil(len(targets) / self._workers)))
        registry = obs.get_registry()
        collect = registry.enabled
        targets_spec = None
        inline = len(targets) <= _INLINE_TARGET_LIMIT
        if not inline:
            targets_spec = _share_blob(targets)
        tasks = [
            _ComputeTask(
                manifest,
                scheme,
                targets_spec,
                targets[start : start + chunk] if inline else None,
                start,
                min(start + chunk, len(targets)),
                collect,
            )
            for start in range(0, len(targets), chunk)
        ]
        if collect:
            registry.counter("shm.dispatches", op="compute").inc()
            registry.counter("shm.tasks", op="compute").inc(len(tasks))
        merged: Dict[NodeId, Signature] = {}
        try:
            with registry.span("shm.dispatch", op="compute", scheme=scheme.name):
                for rows, snapshot in self._run(tasks):
                    if snapshot is not None:
                        obs.merge_into_active(snapshot)
                    for node, entries in rows:
                        merged[node] = Signature(node, dict(entries))
        finally:
            if targets_spec is not None and targets_spec.segment is not None:
                _REGISTRY.unlink(targets_spec.segment)
        return {node: merged[node] for node in targets}
