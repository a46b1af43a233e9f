"""Shard supervision: routing, lockstep windows, restarts and escalation.

:class:`ShardSupervisor` owns one :class:`~repro.service.shard.ShardEngine`
per shard and applies every accepted window bucket to all of them in
lockstep.  Its job is the failure envelope:

* a shard whose engine raises mid-apply is **rebuilt** from the shard's
  acknowledged ingest log (and verified checkpoints) under the PR 1
  :class:`~repro.pipeline.retry.RetryPolicy` — backoff between attempts,
  a bounded restart budget;
* when the budget is exhausted the shard **escalates to DEGRADED**: the
  engine is dropped and the sketch tier answers (flagged approximate)
  until a later window's rebuild succeeds;
* the sketch tier (:class:`~repro.service.shard.SketchTier`) is built from
  the shard's ingest log on the first approximate read of a published
  window (:meth:`ShardSupervisor.sketch_tier`), so a shard whose exact tier
  serves never builds one; if that build fails the shard is **DOWN** — it
  stops answering, but its ingest log keeps accumulating so a later heal
  can recover everything, and no other shard is affected.

Acknowledged-ingest durability: a bucket is appended to the shard's log
*before* the engine sees it, so a crash mid-apply can never lose accepted
records — the rebuild replays the log including the in-flight bucket.

Buckets are :class:`~repro.graph.batch.RecordBatch` columns interned into
the supervisor's one :class:`~repro.graph.batch.LabelTable`, so the log
holds 24 bytes per record and routing is one array lookup per bucket.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.execution import make_engine
from repro.exceptions import ServiceError, ShardDown
from repro.graph.batch import LabelTable, RecordBatch
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.retry import RetryPolicy, call_with_retry
from repro.service.breaker import STATE_CLOSED, STATE_CODES, CircuitBreaker
from repro.service.config import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    ServiceConfig,
)
from repro.service.shard import ShardEngine, SketchTier
from repro.streaming.hashing import stable_hash64


@dataclass
class ShardState:
    """Everything the supervisor tracks about one shard."""

    shard_id: int
    engine: Optional[ShardEngine]
    breaker: CircuitBreaker
    registry: obs.MetricsRegistry
    #: Per-shard checkpoints and signature history (``None`` without a
    #: checkpoint or history directory).
    store: Optional[CheckpointStore] = None
    #: Supervision verdict from the ingest path (the breaker adds the
    #: query-path view on top; see :meth:`ShardSupervisor.shard_health`).
    health: str = HEALTH_HEALTHY
    #: Acknowledged ingest log: every bucket routed to this shard, in order.
    buckets: List[RecordBatch] = field(default_factory=list)
    #: Records and column bytes in the ingest log.
    records_ingested: int = 0
    log_bytes: int = 0
    #: Window restored from history at process start (-1 for a fresh
    #: process).  The ingest log only covers windows after this point, so
    #: rebuilds replay bucket ``i`` as global window ``window_base + 1 + i``.
    window_base: int = -1
    restarts: int = 0
    last_error: str = ""
    #: The sketch tier of the published window, once a read has built it
    #: (see :meth:`ShardSupervisor.sketch_tier`), and the lock that lets
    #: concurrent readers build it once.
    sketch: Optional[SketchTier] = None
    sketch_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Chaos hook; ``None`` in production.
    injector: Optional[object] = None


class ShardSupervisor:
    """Owns the shard fleet; applies windows, restarts and demotes shards."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        checkpoint_dir: Optional[str | Path] = None,
        history_dir: Optional[str | Path] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or ServiceConfig()
        # One store per shard under one directory: when both are given,
        # ``history_dir`` holds the stores and ``checkpoint_dir`` stays empty.
        store_dir = history_dir or checkpoint_dir
        self.store_dir = Path(store_dir) if store_dir else None
        self.retry = retry or RetryPolicy(
            max_attempts=self.config.max_restarts + 1,
            base_delay=self.config.restart_base_delay_s,
            jitter=0.0,
        )
        self._clock = clock
        self._sleep = sleep
        #: The one label table every bucket of this service is interned into.
        self.labels = LabelTable()
        # One compute engine for the whole fleet, rebuilt shards included:
        # shards advance sequentially from the pump thread, so one shm pool
        # serves every shard's window recompute.
        self.compute_engine = make_engine(self.config.strategy, jobs=self.config.jobs)
        #: Global window index; -1 before the first bucket closes.
        self.window = -1
        self.shards: List[ShardState] = [
            self._new_state(shard_id) for shard_id in range(self.config.num_shards)
        ]
        self._restore_from_history()

    def _restore_from_history(self) -> None:
        """Bring a restarted process back to answering from durable history.

        Each shard engine restores its last recorded window from the
        shard's store; the global window index resumes at the
        highest restored window so status and responses stay truthful.
        Shards fall back to empty (fresh) state when the stores are empty.
        """
        restored = -1
        for state in self.shards:
            if state.engine is not None and state.engine.restore_from_history():
                state.window_base = state.engine.window
                restored = max(restored, state.engine.window)
        if restored >= 0:
            self.window = restored
            obs.emit(
                "service.restored_from_history",
                level="info",
                window=restored,
                shards=len(self.shards),
            )

    def close(self) -> None:
        """Close the compute engine this supervisor built (idempotent).

        An shm engine releases its worker pool and segments here; serial
        supervisors hold no process-level resources.
        """
        if self.compute_engine is not None:
            self.compute_engine.close()

    def _new_state(self, shard_id: int) -> ShardState:
        store = None
        if self.store_dir is not None:
            store = CheckpointStore(self.store_dir / f"shard-{shard_id:02d}")
        registry = obs.MetricsRegistry()
        return ShardState(
            shard_id=shard_id,
            engine=ShardEngine(
                shard_id,
                self.config,
                store=store,
                registry=registry,
                compute_engine=self.compute_engine,
                labels=self.labels,
            ),
            breaker=CircuitBreaker(
                self.config.breaker,
                name=f"shard-{shard_id}",
                clock=self._clock,
                registry=registry,
            ),
            registry=registry,
            store=store,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_for(self, node: str) -> int:
        """Stable shard assignment of a node (hash of its string form)."""
        return stable_hash64(str(node)) % self.config.num_shards

    def state_for(self, node: str) -> ShardState:
        return self.shards[self.shard_for(node)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, bucket: RecordBatch) -> None:
        """Close one global window: route the bucket and advance every shard.

        Records are routed by source node (signatures are owner-centric),
        each by its source's fingerprint as :meth:`shard_for` routes the
        label, and a stable partition keeps every shard's records in
        bucket order.  Every shard advances even on an empty sub-bucket so
        windows stay in lockstep.  Shard failures are contained — one shard
        crashing, degrading or going down never blocks the others.

        :attr:`window` names the new window only once every shard has
        applied the bucket or failed on it: cross-shard answers carry it,
        while an answer from one shard carries that shard's own window.
        Publishing it drops every shard's sketch tier of an earlier window.
        """
        window = self.window + 1
        if bucket.labels is not self.labels:
            raise ServiceError("the bucket is interned into another label table")
        num_shards = np.uint64(self.config.num_shards)
        shard_of = self.labels.fingerprints()[bucket.src] % num_shards
        order = np.argsort(shard_of, kind="stable")
        bounds = np.searchsorted(shard_of[order], np.arange(len(self.shards) + 1))
        routed = [bucket.take(order[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        try:
            for state in self.shards:
                sub = routed[state.shard_id]
                # Acknowledge durability first: once logged, the records
                # survive any engine crash below (the rebuild replays the log).
                state.buckets.append(sub)
                state.records_ingested += len(sub)
                state.log_bytes += sub.nbytes
                self._advance_engine(state, sub, window)
        finally:
            self.window = window
            for state in self.shards:
                # Under the lock, so a tier a reader has just built for the
                # new window is kept.
                with state.sketch_lock:
                    tier = state.sketch
                    if tier is not None and tier.window != self.published_window(state):
                        state.sketch = None

    def published_window(self, state: ShardState) -> int:
        """The shard's last published window, from its ingest log: bucket
        ``i`` is window ``window_base + 1 + i``, and a bucket still being
        applied belongs to no published window."""
        return min(self.window, state.window_base + len(state.buckets))

    def sketch_tier(self, state: ShardState) -> SketchTier:
        """The shard's sketch tier at its published window.

        Built from the ingest log on the first read of a window and kept
        until the next window is published; readers of one shard build it
        one at a time, so concurrent reads of a window build it once.  The
        chaos ``on_sketch`` hook fires before each build; a build that
        raises marks the shard DOWN and raises
        :class:`~repro.exceptions.ShardDown`.
        """
        with state.sketch_lock:
            window = self.published_window(state)
            tier = state.sketch
            if tier is not None and tier.window == window:
                return tier
            try:
                if state.injector is not None:
                    state.injector.on_sketch(state.shard_id, window)
                tier = SketchTier(
                    self.config,
                    state.buckets[:window - state.window_base],
                    window,
                    registry=state.registry,
                )
            except Exception as error:  # noqa: BLE001 - escalation, not masking
                state.health = HEALTH_DOWN
                state.last_error = str(error)
                obs.emit(
                    "service.shard.down",
                    level="error",
                    shard=state.shard_id,
                    window=window,
                    error=str(error),
                )
                state.registry.counter("shard.down_transitions").inc()
                raise ShardDown(state.shard_id) from error
            state.sketch = tier
            return tier

    def _advance_engine(self, state: ShardState, sub: RecordBatch, window: int) -> None:
        if state.health == HEALTH_DOWN:
            return
        if state.engine is None:
            # Previously demoted: try one opportunistic rebuild per window,
            # so clearing the underlying fault heals the shard.
            self._try_restart(state, opportunistic=True, window=window)
            return
        try:
            if state.injector is not None:
                state.injector.on_apply(state.shard_id, window)
            state.engine.apply(sub)
        except Exception as error:  # noqa: BLE001 - supervised restart below
            state.last_error = str(error)
            obs.emit(
                "service.shard.crashed",
                level="error",
                shard=state.shard_id,
                window=window,
                error=str(error),
            )
            state.registry.counter("shard.crashes").inc()
            self._try_restart(state, opportunistic=False, window=window)

    def _try_restart(
        self, state: ShardState, opportunistic: bool, window: Optional[int] = None
    ) -> None:
        """Rebuild the shard engine under the retry policy; demote on failure.

        ``window`` labels the events: the window being closed, by default
        the current one (an administrative heal).
        """
        if window is None:
            window = self.window

        def attempt() -> ShardEngine:
            state.restarts += 1
            if state.injector is not None:
                state.injector.on_rebuild(state.shard_id)
            engine = ShardEngine(
                state.shard_id,
                self.config,
                store=state.store,
                registry=state.registry,
                compute_engine=self.compute_engine,
                labels=self.labels,
            )
            issues = engine.rebuild(state.buckets, base_window=state.window_base)
            for issue in issues:
                obs.emit(
                    "service.shard.checkpoint_issue",
                    level="warning",
                    shard=state.shard_id,
                    issue=issue,
                )
            return engine

        def count_restart(attempt_no: int, error: BaseException, delay: float) -> None:
            state.registry.counter("shard.restart_retries").inc()
            obs.emit(
                "service.shard.restart_retry",
                level="warning",
                shard=state.shard_id,
                attempt=attempt_no,
                error=str(error),
                delay_s=round(delay, 6),
            )

        policy = (
            RetryPolicy(max_attempts=1) if opportunistic else self.retry
        )
        try:
            engine = call_with_retry(
                attempt,
                policy,
                retry_on=(Exception,),
                sleep=self._sleep,
                clock=self._clock,
                rng=self.config.seed + state.shard_id,
                on_retry=count_restart,
            )
        except Exception as error:  # noqa: BLE001 - budget exhausted
            state.engine = None
            state.last_error = str(error)
            if state.health != HEALTH_DEGRADED:
                state.health = HEALTH_DEGRADED
                obs.emit(
                    "service.shard.degraded",
                    level="error",
                    shard=state.shard_id,
                    window=window,
                    error=str(error),
                )
                state.registry.counter("shard.degradations").inc()
            return
        state.engine = engine
        if state.health != HEALTH_HEALTHY:
            obs.emit(
                "service.shard.recovered",
                level="info",
                shard=state.shard_id,
                window=window,
            )
        state.health = HEALTH_HEALTHY
        state.registry.counter("shard.restarts").inc()
        obs.emit(
            "service.shard.restarted",
            level="info",
            shard=state.shard_id,
            window=window,
        )

    # ------------------------------------------------------------------
    # Chaos / administration
    # ------------------------------------------------------------------
    def install_injector(self, shard_id: int, injector: Optional[object]) -> None:
        """Attach (or with ``None``, remove) a chaos injector to one shard."""
        self.shards[shard_id].injector = injector

    def heal(self, shard_id: int) -> bool:
        """Force one rebuild attempt for a demoted/down shard.

        Returns whether the shard is HEALTHY afterwards.  The cached
        sketch tier is dropped, so the next approximate read builds it
        afresh from the ingest log.
        """
        state = self.shards[shard_id]
        state.sketch = None
        if state.health == HEALTH_DOWN:
            state.health = HEALTH_DEGRADED
        self._try_restart(state, opportunistic=True)
        return state.health == HEALTH_HEALTHY

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_health(self, state: ShardState) -> str:
        """Effective health: supervision verdict + breaker state.

        An open (or half-open) breaker reports DEGRADED even while the
        engine object is alive — clients are being served sketches either
        way, and that is what health must describe.
        """
        if state.health == HEALTH_DOWN:
            return HEALTH_DOWN
        if state.health == HEALTH_DEGRADED or state.engine is None:
            return HEALTH_DEGRADED
        if state.breaker.state != STATE_CLOSED:
            return HEALTH_DEGRADED
        return HEALTH_HEALTHY

    def status(self) -> Dict:
        """Per-shard health/breaker/window snapshot for ``/status``.

        Each shard reports the window it has applied.  The top-level window
        is :attr:`window`, or the window every shard has already applied
        when a snapshot lands between a close's last shard and its
        publication, so it is never behind all of its shards.
        """
        shards = []
        for state in self.shards:
            breaker_state = state.breaker.state
            state.registry.gauge("shard.breaker_state").set(
                STATE_CODES[breaker_state]
            )
            shards.append(
                {
                    "shard": state.shard_id,
                    "health": self.shard_health(state),
                    "breaker": breaker_state,
                    "window": (
                        state.engine.window if state.engine else self.published_window(state)
                    ),
                    "exact_nodes": len(state.engine.signatures) if state.engine else 0,
                    "records_ingested": state.records_ingested,
                    "restarts": state.restarts,
                    "last_error": state.last_error,
                }
            )
        return {
            "window": max(self.window, min(shard["window"] for shard in shards)),
            "num_shards": len(self.shards),
            "shards": shards,
        }

    def metrics_snapshot(self) -> Dict:
        """All shard registries merged into one snapshot (for ``/metrics``).

        Each shard's metrics gain a ``shard`` label before merging, so
        per-shard series stay distinguishable the Prometheus way instead
        of blurring into one fleet-wide sum.
        """
        merged = obs.MetricsRegistry()
        for state in self.shards:
            snapshot = state.registry.snapshot()
            label = str(state.shard_id)
            merged.merge(
                {
                    "counters": [
                        (name, {**labels, "shard": label}, value)
                        for name, labels, value in snapshot["counters"]
                    ],
                    "gauges": [
                        (name, {**labels, "shard": label}, value)
                        for name, labels, value in snapshot["gauges"]
                    ],
                    "histograms": [
                        (name, {**labels, "shard": label}, payload)
                        for name, labels, payload in snapshot["histograms"]
                    ],
                    "spans": snapshot["spans"],
                },
                prefix=(f"shard-{state.shard_id}",),
            )
        return merged.snapshot()
