"""The fault-tolerant windowed-signature pipeline.

:class:`SignaturePipeline` turns a re-readable record source into one
signature map per time window, surviving the faults the rest of this
package models:

* **Dirty input** — the source's error policy (strict/skip/quarantine)
  plus a configurable *error budget* that trips the run to
  :class:`~repro.exceptions.ErrorBudgetExceeded` when too many rows are
  rejected (a trace that is 30% garbage should fail loudly, not produce
  quietly wrong signatures).
* **Transient IO failures** — source reads and checkpoint writes are
  retried with exponential backoff + jitter under a deadline
  (:mod:`repro.pipeline.retry`).
* **Crashes** — every completed window is checkpointed atomically
  (:mod:`repro.pipeline.checkpoint`); ``run(resume=True)`` replays the
  verified checkpoint prefix and recomputes only the remainder, and the
  deterministic computation makes the resumed output byte-identical to an
  uninterrupted run.
* **Resource pressure** — when a window exceeds the memory budget (graph
  cells), the pipeline *degrades gracefully*
  from the exact scheme to the one-pass streaming sketches of
  :mod:`repro.streaming` (Section VI), recording the degradation in the
  run report instead of failing or silently slowing down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.execution import ComputeEngine, execution_error, make_engine
from repro.core.packed import SignaturePack
from repro.core.scheme import SignatureScheme, create_scheme
from repro.exceptions import CheckpointError, ErrorBudgetExceeded, GraphError, PipelineError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.builders import aggregate_records
from repro.graph.stream import EdgeRecord, ReadReport
from repro.graph.windows import bucket_records
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.report import (
    MODE_CACHED,
    MODE_DEGRADED,
    MODE_EXACT,
    RunReport,
    WindowReport,
)
from repro.pipeline.retry import RetryPolicy, call_with_retry
from repro.pipeline.sources import RecordSource
from repro.streaming.stream_schemes import (
    SKETCHABLE_SCHEMES,
    StreamingTopTalkers,
    sketch_window,
)

#: Hook signature: called after each window is checkpointed.
WindowHook = Callable[[int, WindowReport], None]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of a pipeline run.

    Windowing: give exactly one of ``num_windows`` / ``window_length``, or
    neither — in which case record times must already hold non-negative
    integer window indices (the interchange convention of
    :mod:`repro.datasets.loaders`).  Windows are disjoint, so each is
    aggregated and computed afresh from its own records.  Node labels
    must be strings, as checkpoint segments store them.

    ``error_budget`` bounds rejected rows: a value below 1.0 is a fraction
    of examined rows, a value >= 1 an absolute count; ``None`` disables the
    check.  ``max_memory_cells`` (graph nodes + edges per window) is the
    graceful-degradation trigger: a window over it goes through the
    streaming sketches instead of the exact scheme.  The cells are counted
    from the window's records, so a window over the memory budget never
    builds its graph.

    ``jobs`` is read once, by :func:`~repro.core.execution.make_engine`,
    when a run was not handed an engine.  One worker computes in-process;
    more (``0`` = all available CPUs) advance windows through the
    shared-memory engine (:mod:`repro.parallel.shm`): one persistent pool
    recomputes each window's population over a zero-copy publication of
    the window graph.  Signatures are byte-identical either way.

    Checkpoints are history: every completed window is a segment of the
    checkpoint directory's :class:`~repro.store.history.HistoryStore`, so
    a finished run supports time-travel queries — "who looked like X in
    window t", node trajectories — without re-running anything.  A
    ``history_dir`` other than the ``store`` argument's directory replaces
    it: the pipeline checkpoints into ``CheckpointStore(history_dir)`` and
    the argument's directory stays empty.
    """

    scheme: str = "tt"
    k: int = 10
    scheme_params: Dict = field(default_factory=dict)
    num_windows: Optional[int] = None
    window_length: Optional[float] = None
    bipartite: bool = False
    error_budget: Optional[float] = None
    max_memory_cells: Optional[int] = None
    streaming_epsilon: float = 0.005
    streaming_delta: float = 0.01
    seed: int = 0
    jobs: int = 1
    history_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PipelineError(f"signature length k must be >= 1, got {self.k}")
        error = execution_error(self.jobs)
        if error is not None:
            raise PipelineError(error)
        if self.num_windows is not None and self.window_length is not None:
            raise PipelineError("give at most one of num_windows / window_length")
        if self.num_windows is not None and self.num_windows < 1:
            raise PipelineError(f"num_windows must be >= 1, got {self.num_windows}")
        if self.window_length is not None and self.window_length <= 0:
            raise PipelineError(
                f"window_length must be positive, got {self.window_length}"
            )
        if self.error_budget is not None and self.error_budget < 0:
            raise PipelineError(
                f"error_budget must be non-negative, got {self.error_budget}"
            )
        if self.max_memory_cells is not None and self.max_memory_cells < 1:
            raise PipelineError(
                f"max_memory_cells must be >= 1, got {self.max_memory_cells}"
            )


@dataclass
class PipelineResult:
    """Final signatures per window plus the full provenance report.

    Every window's signatures are a
    :class:`~repro.core.packed.SignaturePack`: an exact window's as
    ``compute_all`` emits it, a degraded window's packed from its sketch
    signatures, and a replayed window's loaded from its checkpoint.
    """

    report: RunReport
    signatures: List[SignaturePack] = field(default_factory=list)


def _check_labels(window: int, labels: LabelTable) -> None:
    """Refuse a window whose records carry a non-string node label, before
    it is computed: checkpoint segments store string labels only."""
    for label in labels:
        if not isinstance(label, str):
            raise PipelineError(
                f"window {window}: node label {label!r} is a "
                f"{type(label).__name__}; checkpoints store string labels only"
            )


def _window_counts(batch: RecordBatch, bipartite: bool) -> Optional[Tuple[int, int]]:
    """The node and edge counts of the graph :func:`aggregate_records`
    builds from ``batch`` (interned into a fresh label table), without
    building it: every label is a node, and every distinct ``(src, dst)``
    pair of a positive-weight record is an edge.  ``None`` when only the
    per-record loop decides the graph (a negative or NaN weight, or on a
    bipartite graph a node on both sides), which may raise."""
    weight = batch.weight
    if not np.all(weight >= 0) or (
        bipartite and np.intersect1d(batch.src, batch.dst).size
    ):
        return None
    positive = weight > 0
    pairs = (batch.src[positive].astype(np.int64) << 32) | batch.dst[positive]
    return len(batch.labels), len(np.unique(pairs))


class SignaturePipeline:
    """Fault-tolerant source -> windows -> signatures -> checkpoints runner.

    ``hooks`` are called as ``hook(window_index, window_report)`` after each
    window is durably checkpointed — the natural place for progress
    callbacks, and where the fault harness's crash injector detonates.
    ``clock`` and ``sleep`` are injectable for deterministic tests.
    ``engine`` is a caller-owned compute engine that every run uses in
    place of the one the config names, and never closes.
    """

    def __init__(
        self,
        source: RecordSource,
        store: CheckpointStore,
        config: PipelineConfig | None = None,
        *,
        retry: RetryPolicy | None = None,
        hooks: Iterable[WindowHook] = (),
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        engine: Optional[ComputeEngine] = None,
    ) -> None:
        self.source = source
        self.config = config or PipelineConfig()
        history_dir = self.config.history_dir
        if history_dir is not None and (
            Path(history_dir).resolve() != store.directory.resolve()
        ):
            store = CheckpointStore(history_dir)
        self.store = store
        self.retry = retry or RetryPolicy()
        self.hooks: Tuple[WindowHook, ...] = tuple(hooks)
        self._clock = clock
        self._sleep = sleep
        self._given_engine = engine
        #: The engine of the run in progress (``None``: in-process serial).
        self._engine: Optional[ComputeEngine] = engine

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> PipelineResult:
        """Execute the pipeline; with ``resume=True`` replay good checkpoints.

        A fresh run (``resume=False``) clears any prior checkpoint state so
        the directory always reflects exactly one run.

        The run records its metrics and spans into the caller's active
        registry as it goes, under the caller's active span; with none
        active it records into a fresh one.  ``result.report.metrics``
        holds the counters the run added either way.

        Faults worth grepping for — retries, quarantined rows,
        degradations, a tripped error budget — are additionally emitted as
        structured JSON-lines events on the active event log
        (:mod:`repro.obs.logs`); a no-op unless the caller installed one
        with ``obs.use_event_log``.
        """
        owned = None
        if self._given_engine is None:
            owned = self._engine = make_engine(self.config.jobs)
        try:
            if obs.enabled():
                return self._run_observed(resume)
            with obs.use_registry(obs.MetricsRegistry()):
                return self._run_observed(resume)
        finally:
            if owned is not None:
                owned.close()
            self._engine = self._given_engine

    def _run_observed(self, resume: bool) -> PipelineResult:
        """The body of :meth:`run`, once the compute engine and a collecting
        registry are in place."""
        registry = obs.get_registry()
        before = registry.counters_flat()
        obs.emit(
            "pipeline.run.start",
            level="info",
            scheme=self.config.scheme,
            source=self.source.describe(),
            resume=resume,
        )
        with obs.span("pipeline.run", scheme=self.config.scheme):
            result = self._run(resume)
        result.report.metrics = {
            key: value - before.get(key, 0.0)
            for key, value in registry.counters_flat().items()
            if before.get(key) != value
        }
        obs.emit(
            "pipeline.run.finish",
            level="info",
            scheme=self.config.scheme,
            windows=len(result.report.windows),
            degraded=len(result.report.degraded_windows),
            retries=result.report.retries,
        )
        return result

    def _run(self, resume: bool) -> PipelineResult:
        report = RunReport(
            source=self.source.describe(),
            scheme=self.config.scheme,
            error_policy=getattr(self.source, "errors", "strict"),
        )
        result = PipelineResult(report=report)

        read_report = self._read_source(report)
        report.records_accepted = read_report.num_accepted
        report.records_rejected = read_report.num_rejected
        obs.counter("pipeline.records_accepted").inc(read_report.num_accepted)
        if read_report.num_rejected:
            obs.counter("pipeline.records_rejected").inc(read_report.num_rejected)
            if report.error_policy == "quarantine":
                obs.counter("pipeline.quarantined").inc(read_report.num_rejected)
            obs.emit(
                "pipeline.records_rejected",
                level="warning",
                policy=report.error_policy,
                rejected=read_report.num_rejected,
                seen=read_report.num_seen,
                rows=[
                    {"line": row.line_number, "reason": row.reason}
                    for row in read_report.rejected[:20]
                ],
            )
        self._enforce_error_budget(read_report)
        try:
            buckets = bucket_records(
                read_report, self.config.num_windows, self.config.window_length
            )
        except GraphError as exc:
            # The config is validated, so this is the window-index check.
            raise PipelineError(f"without num_windows/window_length, {exc}") from exc

        start_window = 0
        if resume:
            self._check_run_state()
            start_window = self._replay_checkpoints(len(buckets), report, result)
        else:
            self.store.clear()
        self.store.set_run_state(self._run_state())

        scheme = create_scheme(
            self.config.scheme, k=self.config.k, **self.config.scheme_params
        )
        for window in range(start_window, len(buckets)):
            with obs.span("pipeline.window"):
                window_report, signatures = self._process_window(
                    window, buckets[window], scheme, report
                )
            obs.counter("pipeline.windows", mode=window_report.mode).inc()
            report.windows.append(window_report)
            result.signatures.append(signatures)
            obs.emit(
                "pipeline.window",
                level="debug",
                window=window,
                mode=window_report.mode,
                signatures=window_report.num_signatures,
                records=window_report.num_records,
            )
            for hook in self.hooks:
                hook(window, window_report)
        return result

    def resume(self) -> PipelineResult:
        """Shorthand for ``run(resume=True)``."""
        return self.run(resume=True)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _read_source(self, report: RunReport) -> ReadReport:
        def count_retry(attempt: int, error: BaseException, delay: float) -> None:
            report.retries += 1
            obs.counter("pipeline.retries", op="read").inc()
            obs.emit(
                "pipeline.retry",
                level="warning",
                op="read",
                attempt=attempt,
                error=str(error),
                delay_s=round(delay, 6),
            )
            report.issues.append(
                f"source read attempt {attempt} failed ({error}); retrying"
            )

        return call_with_retry(
            self.source.read,
            self.retry,
            sleep=self._sleep,
            clock=self._clock,
            rng=self.config.seed,
            on_retry=count_retry,
        )

    def _enforce_error_budget(self, read_report: ReadReport) -> None:
        budget = self.config.error_budget
        if budget is None or not read_report.rejected:
            return
        if budget < 1.0:
            over = read_report.rejected_fraction() > budget
        else:
            over = read_report.num_rejected > budget
        if over:
            obs.emit(
                "pipeline.error_budget_exceeded",
                level="error",
                rejected=read_report.num_rejected,
                seen=read_report.num_seen,
                budget=budget,
            )
            raise ErrorBudgetExceeded(
                read_report.num_rejected, read_report.num_seen, budget
            )

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _run_state(self) -> Dict:
        """The run identity stamped into the checkpoint run state.

        Every engine is byte-identical to serial, so ``contract`` is always
        ``"exact"``; it still refuses a resume onto the ``"sketch"``
        checkpoints of runs made when a sketch strategy existed.
        """
        return {
            "scheme": self.config.scheme,
            "k": self.config.k,
            "bipartite": self.config.bipartite,
            "contract": "exact",
        }

    def _check_run_state(self) -> None:
        """Refuse to resume onto checkpoints from an incompatible engine.

        Appending windows to a prefix computed under a different scheme,
        ``k``, graph kind or contract would silently mix two runs' outputs
        in one directory.  Stores without run state (pre-existing
        checkpoints) are accepted for backwards compatibility, and so are
        stamp keys this run does not write (the ``engine`` key of older
        runs).
        """
        prior = self.store.run_state()
        if not prior:
            return
        expected = self._run_state()
        conflicts = {
            key: (prior[key], expected[key])
            for key in expected
            if key in prior and prior[key] != expected[key]
        }
        if conflicts:
            detail = ", ".join(
                f"{key}: checkpoint has {old!r}, run wants {new!r}"
                for key, (old, new) in sorted(conflicts.items())
            )
            raise CheckpointError(
                f"cannot resume: checkpoint run state is incompatible ({detail})"
            )

    def _replay_checkpoints(
        self, num_windows: int, report: RunReport, result: PipelineResult
    ) -> int:
        """Replay the verified checkpoint prefix; returns its length."""
        scan = self.store.scan()
        report.issues.extend(scan.issues)
        good = scan.good[:num_windows]
        for entry in good:
            signatures, meta = self.store.load_window(entry.window)
            report.windows.append(
                WindowReport(
                    window=entry.window,
                    mode=MODE_CACHED,
                    num_records=int(meta.get("num_records", 0)),
                    num_nodes=int(meta.get("num_nodes", 0)),
                    num_edges=int(meta.get("num_edges", 0)),
                    num_signatures=len(signatures),
                    reason=f"replayed from checkpoint ({entry.mode})",
                    checkpoint_file=entry.file,
                    sha256=entry.sha256,
                )
            )
            result.signatures.append(signatures)
            obs.counter("pipeline.windows", mode=MODE_CACHED).inc()
        if good:
            report.resumed_from = len(good)
            obs.emit(
                "pipeline.resumed",
                level="info",
                windows=len(good),
                issues=list(scan.issues),
            )
        return len(good)

    # ------------------------------------------------------------------
    # Per-window computation
    # ------------------------------------------------------------------
    def _process_window(
        self,
        window: int,
        records: List[EdgeRecord],
        scheme: SignatureScheme,
        report: RunReport,
    ) -> Tuple[WindowReport, SignaturePack]:
        started = self._clock()
        # The window's one conversion: its records as canonical columns.
        batch = RecordBatch.from_records(records, LabelTable())
        _check_labels(window, batch.labels)
        batch = batch.canonical()
        budget = self.config.max_memory_cells
        # Under a memory budget the window's cells are counted from its
        # records, so a window over budget never builds its graph.  The
        # windows only the per-record loop decides are built (or raise)
        # as without a budget.
        counts = None if budget is None else _window_counts(batch, self.config.bipartite)
        graph = None
        if counts is None or sum(counts) <= budget:
            graph = aggregate_records(batch, bipartite=self.config.bipartite)
            counts = graph.num_nodes, graph.num_edges
        num_nodes, num_edges = counts
        cells = num_nodes + num_edges
        if budget is None or cells <= budget:
            # The population is one batch: ``compute_all`` through the
            # run's engine.
            mode, reason = MODE_EXACT, ""
            signatures = scheme.compute_all(graph, graph.senders(), engine=self._engine)
        else:
            mode = MODE_DEGRADED
            reason = f"memory budget: {cells} graph cells > {budget}"
            obs.counter("pipeline.degradations").inc()
            builder = self._sketch(batch)
            signatures = SignaturePack.from_signatures(
                map(builder.signature, builder.sources)
            )
            if self.config.scheme not in SKETCHABLE_SCHEMES:
                reason += (
                    f"; streaming fallback approximates 'tt', not "
                    f"{self.config.scheme!r}"
                )
            obs.emit(
                "pipeline.degraded",
                level="warning",
                window=window,
                reason=reason,
                scheme=self.config.scheme,
                sketch_cells=builder.memory_cells(),
                budget=budget,
            )

        meta = {
            "num_records": len(batch),
            "num_nodes": num_nodes,
            "num_edges": num_edges,
            "reason": reason,
        }
        entry = self._save_window(window, signatures, meta, mode, report)
        return (
            WindowReport(
                window=window,
                mode=mode,
                num_records=len(batch),
                num_nodes=num_nodes,
                num_edges=num_edges,
                num_signatures=len(signatures),
                reason=reason,
                checkpoint_file=entry.file,
                sha256=entry.sha256,
                elapsed=self._clock() - started,
            ),
            signatures,
        )

    def _sketch(self, batch: RecordBatch) -> StreamingTopTalkers:
        """The window's one-pass sketches (Section VI path):
        :func:`sketch_window` over its one canonical bucket, as the
        service's sketch tier sketches a window."""
        return sketch_window(
            self.config.scheme,
            [batch],
            k=self.config.k,
            epsilon=self.config.streaming_epsilon,
            delta=self.config.streaming_delta,
            seed=self.config.seed,
        )

    def _save_window(
        self,
        window: int,
        signatures: SignaturePack,
        meta: Dict,
        mode: str,
        report: RunReport,
    ):
        def count_retry(attempt: int, error: BaseException, delay: float) -> None:
            report.retries += 1
            obs.counter("pipeline.retries", op="checkpoint").inc()
            obs.emit(
                "pipeline.retry",
                level="warning",
                op="checkpoint",
                window=window,
                attempt=attempt,
                error=str(error),
                delay_s=round(delay, 6),
            )
            report.issues.append(
                f"checkpoint write for window {window} attempt {attempt} "
                f"failed ({error}); retrying"
            )

        entry = call_with_retry(
            lambda: self.store.save_window(window, signatures, meta, mode=mode),
            self.retry,
            sleep=self._sleep,
            clock=self._clock,
            rng=self.config.seed + window + 1,
            on_retry=count_retry,
        )
        obs.counter("pipeline.checkpoint_writes").inc()
        return entry
