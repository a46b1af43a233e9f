"""Zero-copy shared-memory parallel recompute engine.

:func:`repro.parallel.pmap.parallel_map` pickles every task's full inputs
through a pipe — fine for grids of small self-describing cells, fatal for
"recompute these 50k signatures on this 2M-edge window" where the window
itself dominates the payload.  This module takes the other route, after
the message-size-batched MPI master/worker fan-out in SNIPPETS.md:

1. the parent *publishes* a graph once — its edge columns in build order
   and its node-label table — into named
   :mod:`multiprocessing.shared_memory` segments, described by a small
   picklable *manifest* (segment names, dtypes, shapes, byte counts);
2. a persistent :class:`~concurrent.futures.ProcessPoolExecutor` receives
   *work items* (manifest + at most ``DEFAULT_MESSAGE_SIZE`` target ids),
   never the arrays themselves;
3. workers reattach zero-copy (the rebuilt window is cached per manifest
   token, so a window is mapped once per worker, not once per task, and
   unmapped once copied out) and return
   each chunk of at most ``DEFAULT_MESSAGE_SIZE`` targets as one
   :class:`~repro.core.packed.SignaturePack`;
4. the parent joins the chunk packs **in input order**
   (:meth:`SignaturePack.concat`), so the assembled pack is
   byte-identical to the serial computation regardless of worker
   scheduling.

Byte-identity is load-bearing, not best-effort: graphs are published as
their :meth:`~repro.graph.comm_graph.CommGraph.to_arrays` (node order and
edges in build order, never canonicalised/sorted), so the reconstructed
:class:`~repro.graph.comm_graph.CommGraph` has the same rows and replays
every order-sensitive float reduction — ``sum(neighbours.values())``,
the row kernels — bit-for-bit.  A scheme's batch gives every owner the
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
span trees grafted under the caller's active span in input order, through
the same worker wrapper as :func:`parallel_map`.
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np
from multiprocessing import shared_memory

from repro import obs
from repro.core.packed import SignaturePack
from repro.exceptions import ReproError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, GraphArrays
from repro.parallel.pmap import _consume_merging, _InstrumentedTask, effective_jobs
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

#: Most targets per work item, so per worker→parent message.
DEFAULT_MESSAGE_SIZE = 256

#: Worker-side graph cache size (graphs are windows — a handful live at
#: a time).  The parent's publication cache holds as many graphs as a
#: worker's.
_WORKER_GRAPH_CACHE = 4


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
    """Pickle an arbitrary object (a node-label table) into a segment —
    shipped once, not per task."""
    return _share_array(np.frombuffer(pickle.dumps(payload), dtype=np.uint8))


# Worker-side attachments and what was copied out of them, cached so a
# published window is mapped and reconstructed once per worker process,
# not once per work item.
_ATTACHED_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_GRAPH_CACHE: "OrderedDict[str, CommGraph]" = OrderedDict()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    segment = _ATTACHED_SEGMENTS.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        _ATTACHED_SEGMENTS[name] = segment
    return segment


def _detach(specs: Sequence[ArraySpec]) -> None:
    """Close the worker's attachments of publications it has copied out,
    so it holds a file descriptor per segment only while reading it."""
    for spec in specs:
        segment = _ATTACHED_SEGMENTS.pop(spec.segment, None) if spec.segment else None
        if segment is not None:
            segment.close()


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


# ----------------------------------------------------------------------
# Graph publication: edge-column manifests
# ----------------------------------------------------------------------
_TOKENS = itertools.count()


def _next_token(prefix: str) -> str:
    return f"{prefix}-{os.getpid()}-{next(_TOKENS)}"


@dataclass(frozen=True)
class GraphManifest:
    """A published :class:`CommGraph`: its :meth:`~CommGraph.to_arrays` —
    the node-label blob, the edge columns in build order and a bipartite
    graph's side masks — so :func:`attach_graph` rebuilds a graph whose
    rows, and so every order-sensitive float reduction downstream, are
    bit-identical to the published graph's.
    """

    token: str
    bipartite: bool
    nodes: ArraySpec  # pickled node-label list, node order
    src: ArraySpec
    dst: ArraySpec
    weight: ArraySpec
    sides: Optional[ArraySpec]  # bool, 2 x nodes: left and right masks

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
    arrays = graph.to_arrays()
    return GraphManifest(
        token=_next_token("graph"),
        bipartite=isinstance(graph, BipartiteGraph),
        nodes=_share_blob(arrays.nodes),
        src=_share_array(arrays.src),
        dst=_share_array(arrays.dst),
        weight=_share_array(arrays.weight),
        sides=None if arrays.sides is None else _share_array(np.stack(arrays.sides)),
    )


def attach_graph(manifest: GraphManifest) -> CommGraph:
    """Reconstruct the published graph, bit-identical in every row order.

    The arrays are copied out of one shared read — no pickled graph ever
    crosses a pipe, and workers cache the reconstruction per manifest
    token.
    """
    sides = None
    if manifest.sides is not None:
        left, right = attach_array(manifest.sides).copy()
        sides = left, right
    arrays = GraphArrays(
        _load_blob(manifest.nodes),  # type: ignore[arg-type]
        attach_array(manifest.src).copy(),
        attach_array(manifest.dst).copy(),
        attach_array(manifest.weight).copy(),
        sides,
    )
    return (BipartiteGraph if manifest.bipartite else CommGraph).from_arrays(arrays)


def _cached_graph(manifest: GraphManifest) -> CommGraph:
    graph = _GRAPH_CACHE.get(manifest.token)
    if graph is None:
        graph = attach_graph(manifest)
        _detach(_manifest_specs(manifest))
        _GRAPH_CACHE[manifest.token] = graph
        while len(_GRAPH_CACHE) > _WORKER_GRAPH_CACHE:
            _GRAPH_CACHE.popitem(last=False)
    else:
        _GRAPH_CACHE.move_to_end(manifest.token)
    return graph


# ----------------------------------------------------------------------
# Work items
# ----------------------------------------------------------------------
def _compute_chunk(
    task: Tuple[GraphManifest, "SignatureScheme", List[NodeId]]
) -> SignaturePack:
    """One work item: a chunk's signatures over a published graph, as one
    pack — the manifest travels, never the graph."""
    manifest, scheme, chunk = task
    return scheme._compute_batch(_cached_graph(manifest), chunk)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ShmEngine:
    """Persistent worker pool computing over shared-memory publications.

    One engine owns one pool and one publication cache; create it once per
    run (pipeline run, experiment, shard supervisor), dispatch many times,
    then :meth:`close` — or use it as a context manager.  Publications are
    cached per graph (a graph never changes), and the previous window's
    segments are evicted once the cache overflows.

    Thread-safe for publication bookkeeping; dispatches from multiple
    threads share the pool.
    """

    def __init__(self, jobs: int = 0) -> None:
        self._workers = effective_jobs(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        # Strong refs keep id() keys stable for the lifetime of the entry.
        self._graphs: "OrderedDict[int, Tuple[GraphManifest, CommGraph]]" = (
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
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
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

    def _run(self, function: Callable, tasks: List) -> List:
        """Submit ``function`` over the tasks and collect results in input
        order.

        A dead worker poisons the whole pool (``BrokenProcessPool``): the
        pool is discarded so the next dispatch starts a fresh one, and the
        error propagates — published segments stay registered and are
        released by :meth:`close` / atexit, never leaked.
        """
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(function, task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._discard_pool()
            raise

    # -- publication ---------------------------------------------------
    def publish_graph(self, graph: CommGraph) -> GraphManifest:
        """Publish (or return the cached publication of) ``graph``.

        Publications are keyed by graph identity: a graph never changes,
        and the cache entry holds the graph, so its id is not reused while
        the entry lives.
        """
        self._check_open()
        key = id(graph)
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
            while len(self._graphs) > _WORKER_GRAPH_CACHE:
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
    ) -> SignaturePack:
        """``scheme._compute_batch(graph, targets)``, fanned across the
        pool — byte-identical to the serial call, rows in target order (a
        repeated target keeps its first place).  ``targets=None`` means
        every node, as in ``compute_all``.
        """
        self._check_open()
        targets = list(dict.fromkeys(targets)) if targets is not None else graph.nodes()
        if not targets:
            return SignaturePack.from_signatures({})
        manifest = self.publish_graph(graph)
        chunk = max(1, min(DEFAULT_MESSAGE_SIZE, math.ceil(len(targets) / self._workers)))
        tasks = [
            (manifest, scheme, targets[start : start + chunk])
            for start in range(0, len(targets), chunk)
        ]
        collect = obs.enabled()
        if collect:
            obs.counter("shm.dispatches", op="compute").inc()
            obs.counter("shm.tasks", op="compute").inc(len(tasks))
        with obs.span("shm.dispatch", op="compute", scheme=scheme.name):
            if collect:
                packs = _consume_merging(
                    self._run(_InstrumentedTask(_compute_chunk), tasks)
                )
            else:
                packs = self._run(_compute_chunk, tasks)
        return SignaturePack.concat(packs)
