"""One shard of the online signature service.

:class:`ShardEngine` is the exact tier: it owns a sliding-window
aggregator, the scheme and a per-shard checkpoint store (which is also the
shard's signature history).  It records through ``obs.*`` into the active
registry, under a ``shard`` label scope (:func:`repro.obs.use_labels`), so
one registry keeps every shard's series apart.  Every window
close builds the window's graph and computes its signatures afresh with
``compute_all``.  Service node ids are strings (they arrive over the
wire), so computed signatures and the string-keyed checkpoint payloads
coincide.

:meth:`ShardEngine.rebuild` is the recovery path: given the shard's
acknowledged ingest log (the buckets the supervisor still keeps for it),
it produces only the windows it must.  Those are the last two, which answer
queries, and, with a store, every window from the first one without a
hash-verified checkpoint whose buckets the log still holds in full, which
it recomputes and re-persists.  A window's
graph depends only on its own buckets, so the rebuild starts
``window_buckets - 1`` buckets before the first window it produces and
reproduces the graph and signatures of a shard that never crashed.

:class:`SketchTier` is the degraded tier: the Count-Min / SpaceSaving (and
Flajolet-Martin, for ``ut``) sketches of a shard's last two published
windows, built from the last ``window_buckets + 1`` buckets of the shard's
ingest log only when a read needs them.
It reads the log, not the exact engine, so a shard whose exact engine is
dead keeps answering — approximately, and saying so.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro import obs
from repro.core.distances import OUT_OF_RANGE_TOL, get_distance
from repro.core.execution import ComputeEngine
from repro.core.packed import SignaturePack
from repro.core.scheme import SignatureScheme, create_scheme
from repro.core.signature import Signature
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.comm_graph import CommGraph
from repro.graph.windows import SlidingWindowAggregator
from repro.matching.index import SignatureIndex
from repro.pipeline.checkpoint import CheckpointStore
from repro.service.config import ServiceConfig
from repro.streaming.stream_schemes import StreamingTopTalkers, sketch_window

#: The signatures of a shard with no window yet.
_NO_SIGNATURES = SignaturePack.from_signatures({})


def _clamp_persistence(value: float, path: str) -> float:
    """Clamp ``1 - distance`` to [0, 1], counting genuine excursions as
    ``distance.out_of_range{path}``.

    Registered distances clamp themselves, but custom distances (or a
    distance that exceeds 1 on disjoint supports) would otherwise surface
    as negative persistence in ``/anomaly`` responses.
    """
    if value < 0.0:
        if value < -OUT_OF_RANGE_TOL:
            obs.counter("distance.out_of_range", path=path).inc()
        return 0.0
    if value > 1.0:
        if value > 1.0 + OUT_OF_RANGE_TOL:
            obs.counter("distance.out_of_range", path=path).inc()
        return 1.0
    return value


class ShardEngine:
    """Exact signature engine for one shard."""

    def __init__(
        self,
        shard_id: int,
        config: ServiceConfig,
        *,
        store: Optional[CheckpointStore] = None,
        compute_engine: Optional[ComputeEngine] = None,
        labels: Optional[LabelTable] = None,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        #: Every applied window is checkpointed here, and
        #: :meth:`restore_from_history` can bring a fresh process back to
        #: answering from it without any ingest log.
        self.store = store
        # Supervisor-owned compute engine (``None``: in-process); the
        # shard never closes it — its lifecycle belongs to whoever shares it.
        self.compute_engine = compute_engine
        self.scheme: SignatureScheme = create_scheme(
            config.scheme, k=config.k, **config.scheme_params
        )
        # Buckets arrive interned into ``labels`` (the service's one table).
        self.aggregator = SlidingWindowAggregator(
            window_buckets=config.window_buckets, labels=labels
        )
        #: Index of the last applied window; -1 before any bucket arrived.
        self.window = -1
        #: Current / previous window signatures, string-keyed: a computed
        #: or store-loaded window's pack.
        self.signatures: SignaturePack = _NO_SIGNATURES
        self.prev_signatures: SignaturePack = _NO_SIGNATURES
        self._index: Optional[SignatureIndex] = None
        self._distance = get_distance(config.distance)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def apply(self, bucket: RecordBatch) -> None:
        """Advance one window with ``bucket`` and recompute signatures.

        Records are put in canonical order first (float aggregation is
        order-sensitive; this makes output invariant to arrival order,
        exactly as the pipeline does), then every sender's signature is
        computed.
        """
        with obs.use_labels(shard=str(self.shard_id)):
            self._apply(bucket.canonical())

    def _apply(self, records: RecordBatch) -> None:
        self.aggregator.advance(records)
        graph = self.aggregator.graph
        self.prev_signatures = self.signatures
        self.signatures = self._compute(graph)
        # The window index moves only once its signatures are in place, so a
        # reader that reads ``window`` first never labels older signatures
        # with it.
        self.window += 1
        self._index = None
        obs.counter("shard.windows").inc()
        obs.counter("shard.records").inc(len(records))
        obs.gauge("shard.nodes").set(graph.num_nodes)
        obs.gauge("shard.edges").set(graph.num_edges)
        meta = {
            "shard": self.shard_id,
            "num_records": len(records),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        }
        if self.store is not None:
            self.store.save_window(self.window, self.signatures, meta=meta)
            obs.counter("shard.checkpoint_writes").inc()

    def _compute(self, graph: CommGraph) -> SignaturePack:
        """Every sender's signature on ``graph`` (string labels: the
        buckets are interned from the wire)."""
        return self.scheme.compute_all(graph, graph.senders(), engine=self.compute_engine)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def rebuild(
        self,
        buckets: Sequence[RecordBatch],
        *,
        base_window: int = -1,
        whole_from: Optional[int] = None,
    ) -> List[str]:
        """Restore engine state from the acknowledged ingest log.

        Produces only the windows it must: the last two (``signatures``
        and ``prev_signatures``) and, with a store, every window from the
        first one not covered by the longest hash-verified checkpoint
        prefix, which is recomputed and re-persisted.  A produced window
        with a verified checkpoint is *loaded*, not recomputed.  Returns
        the scan issues encountered (corrupt/missing checkpoints), so the
        supervisor can surface them as health events.

        ``base_window`` is the window before the log's first bucket: the
        window a restarted process restored from the store, or the last
        window the supervisor trimmed away.  Bucket ``i`` replays as global
        window ``base_window + 1 + i`` (and windows ``base_window`` and the
        one before are re-seeded from the store when the log holds fewer
        than two buckets).

        ``whole_from`` is the first window whose buckets the log holds in
        full: ``base_window + 1`` (the default) for a log that starts at a
        restart, since the engine that applied those windows held no
        earlier bucket either, and ``base_window + window_buckets`` for a
        log the supervisor trimmed.  A window before it is never
        recomputed, because its graph would miss buckets: a damaged
        checkpoint there stays a reported issue.  The supervisor trims only
        a HEALTHY shard, whose every window is checkpointed, and keeps the
        ``window_buckets + 1`` buckets the last two windows need.
        """
        issues: List[str] = []
        last = base_window + len(buckets)
        first = last - 1
        verified = 0
        if self.store is not None:
            scan = self.store.scan()
            issues.extend(scan.issues)
            verified = min(scan.next_window, last + 1)
            first = min(first, verified)
        first = max(first, base_window + 1 if whole_from is None else whole_from)
        with obs.use_labels(shard=str(self.shard_id)):
            if base_window >= 0 and len(buckets) < 2:
                self._seed_from_history(base_window)
            self._replay(buckets, first - base_window - 1, verified, base_window)
            if issues:
                obs.counter("shard.checkpoint_issues").inc(len(issues))
            obs.counter("shard.rebuilds").inc()
        return issues

    def _seed_from_history(self, base_window: int) -> None:
        """Re-seed query state at ``base_window`` — its signatures and the
        window before's — before replaying the log.

        Lenient on a damaged store (the window may have been compacted
        away or corrupted): the engine then serves the replayed suffix
        only, but global window numbering stays correct.
        """
        history = self.store.history if self.store is not None else None

        def load(window: int) -> SignaturePack:
            if history is not None and window in history:
                return history.load_window(window)
            return _NO_SIGNATURES

        self.window = base_window
        self.prev_signatures = load(base_window - 1)
        self.signatures = load(base_window)

    def _replay(
        self,
        buckets: Sequence[RecordBatch],
        start: int,
        verified: int,
        base_window: int,
    ) -> None:
        """Produce the windows of ``buckets[start:]``, first holding the
        earlier buckets that the window of ``buckets[start]`` covers."""
        held = max(0, start - self.config.window_buckets + 1)
        for bucket in buckets[held:start]:
            self.aggregator.hold(bucket.canonical())
        for offset in range(start, len(buckets)):
            index = base_window + 1 + offset
            self.aggregator.advance(buckets[offset].canonical())
            self.window = index
            if index < verified:
                # Checkpoint verified: loading reproduces the original
                # signatures exactly (raw float64 segments, canonical
                # entry ordering), without recomputing the window.
                assert self.store is not None
                signatures, _meta = self.store.load_window(index)
            else:
                signatures = self._compute(self.aggregator.graph)
                if self.store is not None:
                    # Heal the store: re-persist the recomputed window so the
                    # history converges back to the uninterrupted run's.
                    self.store.save_window(
                        index,
                        signatures,
                        meta={"shard": self.shard_id, "recovered": True},
                    )
            self.prev_signatures = self.signatures
            self.signatures = signatures
        self._index = None

    def restore_from_history(self) -> bool:
        """Restore query state from the shard's store alone.

        The path a restarted *process* takes before any ingest log exists:
        the last two recorded windows become ``signatures`` /
        ``prev_signatures``, so ``/signature``, ``/history`` and
        ``/anomaly`` answer immediately from durable state.  The
        aggregator's buckets are gone, so the next window's graph holds
        only buckets applied after the restart.
        Returns whether any window was restored.
        """
        last = self.store.history.max_window() if self.store is not None else -1
        if last < 0:
            return False
        with obs.use_labels(shard=str(self.shard_id)):
            self._seed_from_history(last)
            obs.counter("shard.history_restores").inc()
        self._index = None
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def signature(self, node: str) -> Optional[Signature]:
        """The node's current-window signature, or ``None`` if unknown."""
        return self.signatures.get(node)

    def query_index(self) -> SignatureIndex:
        """Similarity index over the current window's pack, built on the
        window's first query."""
        if self._index is None:
            self._index = SignatureIndex(self.signatures, self._distance)
        return self._index

    def persistence(self, node: str) -> Optional[float]:
        """``1 - dist(sig_prev, sig_now)`` for the node, or ``None`` when the
        node is missing from either of the last two windows."""
        now = self.signatures.get(node)
        prev = self.prev_signatures.get(node)
        if now is None or prev is None:
            return None
        return _clamp_persistence(1.0 - self._distance(prev, now), "shard.persistence")


class SketchTier:
    """The one-pass sketches of a shard's last two published windows.

    ``log`` is the shard's ingest log up to window ``window``: its last
    bucket is that window's.  ``current`` sketches the last
    ``window_buckets`` buckets and ``previous`` the window before, each
    with :func:`~repro.streaming.stream_schemes.sketch_window`; either is
    ``None`` when the log holds none of its buckets.  Only the last
    ``window_buckets + 1`` buckets are read, which is what the supervisor
    keeps of a HEALTHY shard's log.
    """

    def __init__(
        self,
        config: ServiceConfig,
        log: Sequence[RecordBatch],
        window: int,
    ) -> None:
        self.config = config
        self.window = window
        span = config.window_buckets
        log = [bucket.canonical() for bucket in log[-span - 1:]]
        self.current = self._sketch(log[-span:]) if log else None
        self.previous = self._sketch(log[:-1][-span:]) if len(log) > 1 else None

    def _sketch(self, buckets: Sequence[RecordBatch]) -> StreamingTopTalkers:
        return sketch_window(
            self.config.scheme,
            buckets,
            k=self.config.k,
            epsilon=self.config.streaming_epsilon,
            delta=self.config.streaming_delta,
            seed=self.config.seed,
        )

    def signature(self, node: str) -> Optional[Signature]:
        """Approximate signature for the node, ``None`` when never seen."""
        if self.current is None or node not in self.current.sources:
            return None
        return self.current.signature(node)

    def persistence(self, node: str) -> Optional[float]:
        """Approximate persistence across the last two sketch windows."""
        if self.current is None or self.previous is None:
            return None
        if node not in self.current.sources or node not in self.previous.sources:
            return None
        distance = get_distance(self.config.distance)
        return _clamp_persistence(
            1.0 - distance(self.previous.signature(node), self.current.signature(node)),
            "sketch.persistence",
        )
