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
  stops answering, but its ingest log keeps every bucket from then on, so a
  later heal recovers every window it missed, and no other shard is
  affected.

Acknowledged-ingest durability: a bucket is appended to the shard's log
*before* the engine sees it, so a crash mid-apply can never lose accepted
records — the rebuild replays the log including the in-flight bucket.

Bounded memory: a window's graph is its own bucket's, so after each
close a HEALTHY shard keeps only its last two buckets — the sketch tier's
two windows, which also cover a rebuild of the last two (every earlier
window is already checkpointed, by the apply or by the rebuild that
re-persisted it).  A checkpoint that is damaged on disk afterwards, in a
window the log no longer holds (at or before :attr:`IngestLog.base`), is
never recomputed: it stays a reported issue.  A DEGRADED or DOWN shard
keeps its whole log until a rebuild or :meth:`ShardSupervisor.heal`
succeeds.

Restart: a restarted process resumes every shard's log and engine at the
fleet's restored window, the highest any shard's store holds.  A shard
whose store lags (it was DEGRADED or DOWN when the process died) lost the
windows in between: its store skips them, and its next window is stored
under the fleet's number.

Buckets are :class:`~repro.graph.batch.RecordBatch` columns interned into
the supervisor's :class:`~repro.graph.batch.LabelTable`, so the log holds
24 bytes per record and routing is one array lookup per bucket.  The
table has generations: once it has grown past twice what was live after
the last one, the pump re-interns every retained bucket into a fresh
table (:meth:`~repro.graph.batch.RecordBatch.interned_into`) and swaps it
in with the trim.  Node order, canonical order and routing depend on
labels, never on id values, so stores stay byte-identical across a swap.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.execution import make_engine
from repro.exceptions import ServiceError, ShardDown
from repro.graph.batch import LabelTable, RecordBatch
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.retry import RetryPolicy, call_with_retry
from repro.service.breaker import STATE_CLOSED, CircuitBreaker
from repro.service.config import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    ServiceConfig,
)
from repro.service.shard import ShardEngine, SketchTier
from repro.streaming.hashing import stable_hash64


@dataclass(frozen=True)
class IngestLog:
    """One shard's acknowledged ingest log: ``buckets[i]`` is the shard's
    bucket of global window ``base + 1 + i``.

    ``base`` is the window before the first bucket: -1 in a fresh
    process, the fleet's restored window in a restarted one, and moved on
    by every trim.  A trim or a label-table generation replaces the whole
    log, so a reader that reads :attr:`ShardState.log` once sees one base
    with its buckets; the pump only appends to ``buckets``.
    """

    base: int = -1
    buckets: List[RecordBatch] = field(default_factory=list)

    @property
    def end(self) -> int:
        """The window of the last bucket (``base`` when there is none)."""
        return self.base + len(self.buckets)


@dataclass
class ShardState:
    """Everything the supervisor tracks about one shard."""

    shard_id: int
    engine: Optional[ShardEngine]
    breaker: CircuitBreaker
    #: Per-shard checkpoints and signature history (``None`` without a
    #: checkpoint or history directory).
    store: Optional[CheckpointStore] = None
    #: Supervision verdict from the ingest path (the breaker adds the
    #: query-path view on top; see :meth:`ShardSupervisor.shard_health`).
    health: str = HEALTH_HEALTHY
    #: Acknowledged ingest log: the buckets a rebuild and the sketch tier
    #: read, trimmed after each close (see the module docstring).
    log: IngestLog = field(default_factory=IngestLog)
    #: Records routed to this shard since the process started.
    records_ingested: int = 0
    restarts: int = 0
    last_error: str = ""
    #: The sketch tier of the published window, once a read has built it
    #: (see :meth:`ShardSupervisor.sketch_tier`), and the lock that lets
    #: concurrent readers build it once.
    sketch: Optional[SketchTier] = None
    sketch_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Chaos hook; ``None`` in production.
    injector: Optional[object] = None

    @property
    def log_bytes(self) -> int:
        """Column bytes of the buckets the ingest log holds."""
        return sum(bucket.nbytes for bucket in self.log.buckets)


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
        #: The label table the current generation of buckets is interned
        #: into; :attr:`generation` counts the swaps.
        self.labels = LabelTable()
        self.generation = 0
        # Labels live after the last swap: the table swaps again once it
        # holds twice as many, or twice the records the logs retain.
        self._live_labels = 0
        # One compute engine for the whole fleet, rebuilt shards included:
        # shards advance sequentially from the pump thread, so one shm pool
        # serves every shard's window recompute.
        self.compute_engine = make_engine(self.config.jobs)
        #: Global window index; -1 before the first bucket closes.
        self.window = -1
        self.shards: List[ShardState] = [
            self._new_state(shard_id) for shard_id in range(self.config.num_shards)
        ]
        self._restore_from_history()

    def _restore_from_history(self) -> None:
        """Bring a restarted process back to answering from durable history.

        The global window resumes at the highest window any shard's store
        holds, and every shard's log and engine resume there (see the
        module docstring), so windows stay in lockstep and every store
        keeps the fleet's numbering.  Shards start fresh when every store
        is empty.
        """
        stores = [state.store for state in self.shards if state.store is not None]
        restored = max((store.history.max_window() for store in stores), default=-1)
        if restored < 0:
            return
        for state in self.shards:
            state.engine.restore_from_history(restored)
            state.log = IngestLog(base=restored)
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
        # Under the shard's labels: the store publishes its gauges on open,
        # and the breaker's instruments bind to the labels active here.
        with obs.use_labels(shard=str(shard_id)):
            store = None
            if self.store_dir is not None:
                store = CheckpointStore(self.store_dir / f"shard-{shard_id:02d}")
            return ShardState(
                shard_id=shard_id,
                engine=ShardEngine(
                    shard_id,
                    self.config,
                    store=store,
                    compute_engine=self.compute_engine,
                ),
                breaker=CircuitBreaker(
                    self.config.breaker, name=f"shard-{shard_id}", clock=self._clock
                ),
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

        Then the logs are trimmed (see :meth:`_retire`): a HEALTHY shard
        keeps its last two buckets, and the label table may move to its
        next generation.
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
                state.log.buckets.append(sub)
                state.records_ingested += len(sub)
                with obs.use_labels(shard=str(state.shard_id)):
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
        self._retire()

    def _retire(self) -> None:
        """Drop what no reader needs any more, once a window is published
        (see the module docstring): trim every HEALTHY shard's log to its
        last two buckets, and move the retained buckets to the label
        table's next generation when it is due.  Each new log is installed
        with one assignment, after the window it serves was published (see
        :meth:`_published`).
        """
        logs = []
        for state in self.shards:
            log = state.log
            drop = len(log.buckets) - 2
            if drop > 0 and state.health == HEALTH_HEALTHY:
                log = IngestLog(log.base + drop, log.buckets[drop:])
            logs.append(log)
        floor = self.config.window_records * 2
        if len(self.labels) > 2 * max(self._live_labels, floor):
            logs = self._next_generation(logs)
        for state, log in zip(self.shards, logs):
            state.log = log

    def _next_generation(self, logs: Sequence[IngestLog]) -> List[IngestLog]:
        """Intern ``logs`` into a fresh label table, make it
        :attr:`labels`, and return the moved logs.  Batches still interned
        into an older table (parsed before the swap) are interned again
        when the pump takes them."""
        previous = len(self.labels)
        labels = LabelTable()
        logs = [
            replace(log, buckets=[bucket.interned_into(labels) for bucket in log.buckets])
            for log in logs
        ]
        self.labels = labels
        self._live_labels = len(labels)
        self.generation += 1
        obs.emit(
            "service.labels.generation",
            level="debug",
            generation=self.generation,
            labels=len(labels),
            dropped=previous - len(labels),
        )
        return logs

    def published_window(self, state: ShardState) -> int:
        """The shard's last published window, from its ingest log: bucket
        ``i`` is window ``log.base + 1 + i``, and a bucket still being
        applied belongs to no published window."""
        return self._published(state.log)

    def _published(self, log: IngestLog) -> int:
        """The published window a reader of ``log`` may serve.

        ``log`` must be read before :attr:`window`: a log installed after
        window ``w`` was published holds the buckets of ``w`` and the
        window before, and the window read after it is at least ``w``.
        """
        return min(self.window, log.end)

    def sketch_tier(self, state: ShardState) -> SketchTier:
        """The shard's sketch tier at its published window.

        Built from the ingest log on the first read of a window and kept
        until the next window is published; readers of one shard build it
        one at a time, so concurrent reads of a window build it once.  The
        chaos ``on_sketch`` hook fires before each build; a build that
        raises marks the shard DOWN and raises
        :class:`~repro.exceptions.ShardDown`.
        """
        with state.sketch_lock, obs.use_labels(shard=str(state.shard_id)):
            log = state.log
            window = self._published(log)
            tier = state.sketch
            if tier is not None and tier.window == window:
                return tier
            try:
                if state.injector is not None:
                    state.injector.on_sketch(state.shard_id, window)
                tier = SketchTier(self.config, log.buckets[: window - log.base], window)
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
                obs.counter("shard.down_transitions").inc()
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
            obs.counter("shard.crashes").inc()
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
                compute_engine=self.compute_engine,
            )
            log = state.log
            issues = engine.rebuild(log.buckets, base_window=log.base)
            for issue in issues:
                obs.emit(
                    "service.shard.checkpoint_issue",
                    level="warning",
                    shard=state.shard_id,
                    issue=issue,
                )
            return engine

        def count_restart(attempt_no: int, error: BaseException, delay: float) -> None:
            obs.counter("shard.restart_retries").inc()
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
                obs.counter("shard.degradations").inc()
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
        obs.counter("shard.restarts").inc()
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
        afresh from the ingest log.  What a heal recovers is what the log
        still holds: every window a DEGRADED or DOWN shard missed, since
        such a shard keeps its whole log.
        """
        state = self.shards[shard_id]
        state.sketch = None
        if state.health == HEALTH_DOWN:
            state.health = HEALTH_DEGRADED
        with obs.use_labels(shard=str(shard_id)):
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
