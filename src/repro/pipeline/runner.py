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
  cells) or the per-window deadline, the pipeline *degrades gracefully*
  from the exact scheme to the one-pass streaming sketches of
  :mod:`repro.streaming` (Section VI), recording the degradation in the
  run report instead of failing or silently slowing down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.core.execution import (
    DEFAULT_BUDGET_BYTES,
    ComputeEngine,
    execution_error,
    make_engine,
)
from repro.core.scheme import SignatureScheme, create_scheme
from repro.core.signature import Signature
from repro.exceptions import CheckpointError, ErrorBudgetExceeded, GraphError, PipelineError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.builders import aggregate_records
from repro.graph.comm_graph import CommGraph
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
from repro.streaming.stream_schemes import SKETCHABLE_SCHEMES, sketch_window

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
    check.  ``max_memory_cells`` (graph nodes + edges per window) and
    ``window_deadline`` (seconds per window) are the graceful-degradation
    triggers; exceeding either routes the window through the streaming
    sketches instead of the exact scheme.

    ``strategy``, ``jobs`` and ``sketch_budget_bytes`` are read once, by
    :func:`~repro.core.execution.make_engine`, when a run was not handed
    an engine.  ``"shm"`` advances windows through the shared-memory
    engine (:mod:`repro.parallel.shm`): one persistent pool of ``jobs``
    workers (``0`` = all available CPUs) recomputes each window's
    population over a zero-copy publication of the window graph.
    Signatures are byte-identical to the serial run.

    ``"sketch"`` answers each window from a memory-budgeted
    :class:`~repro.streaming.tier.SketchTierEngine` instead: exact
    signatures for the hottest sources, budget-sized sketches for the
    tail (``sketch_budget_bytes`` caps total tier state).  This is an
    *accuracy* contract, not byte-identity — checkpoints record the
    contract of the engine a run used, so a resume under a different
    contract is refused rather than silently mixing exact and sketched
    windows.

    Checkpoints are history: every completed window is a segment of the
    checkpoint directory's :class:`~repro.store.history.HistoryStore`, so
    a finished run supports time-travel queries — "who looked like X in
    window t", node trajectories — without re-running anything.  A
    ``history_dir`` other than the ``store`` argument's directory replaces
    it: the pipeline checkpoints into ``CheckpointStore(history_dir)`` and
    the argument's directory stays empty.

    Live observability opt-ins: ``obs_port`` serves the run's *own*
    metrics registry over HTTP (``/metrics``, ``/healthz``,
    ``/snapshot.json``, ``/series.json``; 0 binds an ephemeral port) for
    the duration of the run, and ``sample_interval`` adds a background
    sampler recording wall-clock metric trajectories at that period.  The
    per-window trajectory samples in ``result.timeseries`` are always
    recorded — they cost one registry snapshot per window.
    """

    scheme: str = "tt"
    k: int = 10
    scheme_params: Dict = field(default_factory=dict)
    num_windows: Optional[int] = None
    window_length: Optional[float] = None
    bipartite: bool = False
    error_budget: Optional[float] = None
    max_memory_cells: Optional[int] = None
    window_deadline: Optional[float] = None
    streaming_epsilon: float = 0.005
    streaming_delta: float = 0.01
    seed: int = 0
    obs_port: Optional[int] = None
    sample_interval: Optional[float] = None
    strategy: str = "serial"
    jobs: int = 0
    sketch_budget_bytes: int = DEFAULT_BUDGET_BYTES
    history_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PipelineError(f"signature length k must be >= 1, got {self.k}")
        error = execution_error(self.strategy, self.jobs, self.sketch_budget_bytes)
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
        if self.window_deadline is not None and self.window_deadline <= 0:
            raise PipelineError(
                f"window_deadline must be positive, got {self.window_deadline}"
            )
        if self.obs_port is not None and not 0 <= self.obs_port <= 65535:
            raise PipelineError(
                f"obs_port must be a TCP port (0..65535), got {self.obs_port}"
            )
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise PipelineError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )


@dataclass
class PipelineResult:
    """Final signatures per window plus the full provenance report.

    ``timeseries`` holds the run's metric trajectories (``{series key:
    [[t, value], ...]}``): one sample per completed window always, plus
    periodic wall-clock samples when ``config.sample_interval`` is set.
    """

    report: RunReport
    signatures: List[Dict[str, Signature]] = field(default_factory=list)
    timeseries: Dict[str, List[List[float]]] = field(default_factory=dict)


def _check_labels(window: int, labels: LabelTable) -> None:
    """Refuse a window whose records carry a non-string node label, before
    it is computed: checkpoint segments store string labels only."""
    for label in labels:
        if not isinstance(label, str):
            raise PipelineError(
                f"window {window}: node label {label!r} is a "
                f"{type(label).__name__}; checkpoints store string labels only"
            )


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

        The run always collects its own ``pipeline.*``/``retry.*`` counters
        into ``result.report.metrics`` (even with observability off
        globally); when a collecting registry is active in the caller, the
        run's full metrics and span tree are merged into it as well.

        Faults worth grepping for — retries, quarantined rows,
        degradations, a tripped error budget — are additionally emitted as
        structured JSON-lines events on the active event log
        (:mod:`repro.obs.logs`); a no-op unless the caller installed one
        with ``obs.use_event_log``.
        """
        owned = None
        if self._given_engine is None:
            owned = self._engine = make_engine(
                self.config.strategy,
                jobs=self.config.jobs,
                sketch_budget_bytes=self.config.sketch_budget_bytes,
                seed=self.config.seed,
            )
        try:
            return self._run_observed(resume)
        finally:
            if owned is not None:
                owned.close()
            self._engine = self._given_engine

    def _run_observed(self, resume: bool) -> PipelineResult:
        """The body of :meth:`run`, once the compute engine is in place."""
        parent = obs.get_registry()
        local = obs.MetricsRegistry(profile=getattr(parent, "profile", False))
        store = obs.TimeSeriesStore()
        server = sampler = None
        obs.emit(
            "pipeline.run.start",
            level="info",
            scheme=self.config.scheme,
            source=self.source.describe(),
            resume=resume,
        )
        # Detach the ambient span path while collecting locally: the local
        # registry must record paths relative to its own root, because the
        # merge below grafts them under the caller's current span path —
        # without the reset that prefix would be applied twice.
        with obs.detached_span_path(), obs.use_registry(local):
            if self.config.obs_port is not None:
                server = obs.ObsServer(
                    local, store=store, port=self.config.obs_port,
                    meta={"pipeline": self.source.describe()},
                ).start()
            if self.config.sample_interval is not None:
                sampler = obs.Sampler(
                    local, store=store, interval=self.config.sample_interval
                ).start()
            try:
                with obs.span("pipeline.run", scheme=self.config.scheme):
                    result = self._run(resume, store)
            finally:
                if sampler is not None:
                    sampler.stop()
                if server is not None:
                    server.stop()
        result.report.metrics = local.counters_flat()
        result.timeseries = store.to_dict()
        obs.emit(
            "pipeline.run.finish",
            level="info",
            scheme=self.config.scheme,
            windows=len(result.report.windows),
            degraded=len(result.report.degraded_windows),
            retries=result.report.retries,
        )
        if parent.enabled:
            parent.merge(local.snapshot(), prefix=obs.current_span_path())
        return result

    def _run(self, resume: bool, series: "obs.TimeSeriesStore") -> PipelineResult:
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
            # One trajectory point per completed window, so even a run
            # without a background sampler records how its counters moved.
            series.sample(obs.get_registry())
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

        ``contract`` separates byte-identical engines (serial/shm,
        freely interchangeable across resumes) from the sketch tier's
        accuracy contract — resuming one onto the other would silently
        mix exact and approximate windows in a single run directory.  It
        comes from the engine the run uses, not from the config.
        """
        engine = self._engine
        return {
            "scheme": self.config.scheme,
            "k": self.config.k,
            "bipartite": self.config.bipartite,
            "contract": "exact" if engine is None or engine.exact else "sketch",
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
    ) -> Tuple[WindowReport, Dict[str, Signature]]:
        started = self._clock()
        # The window's one conversion: its records as canonical columns.
        batch = RecordBatch.from_records(records, LabelTable())
        _check_labels(window, batch.labels)
        batch = batch.canonical()
        graph = aggregate_records(batch, bipartite=self.config.bipartite)
        mode, reason = MODE_EXACT, ""

        cells = graph.num_nodes + graph.num_edges
        if (
            self.config.max_memory_cells is not None
            and cells > self.config.max_memory_cells
        ):
            mode = MODE_DEGRADED
            reason = (
                f"memory budget: {cells} graph cells > "
                f"{self.config.max_memory_cells}"
            )

        signatures: Dict[str, Signature] = {}
        if mode == MODE_EXACT:
            exact = self._compute_exact(graph, scheme, started)
            if exact is None:
                mode = MODE_DEGRADED
                reason = (
                    f"deadline: window exceeded {self.config.window_deadline}s "
                    f"during exact computation"
                )
            else:
                signatures = exact
        if mode == MODE_DEGRADED:
            obs.counter("pipeline.degradations").inc()
            signatures = self._compute_degraded(batch)
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
            )

        meta = {
            "num_records": len(batch),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "reason": reason,
        }
        entry = self._save_window(window, signatures, meta, mode, report)
        return (
            WindowReport(
                window=window,
                mode=mode,
                num_records=len(batch),
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                num_signatures=len(signatures),
                reason=reason,
                checkpoint_file=entry.file,
                sha256=entry.sha256,
                elapsed=self._clock() - started,
            ),
            signatures,
        )

    def _compute_exact(
        self, graph: CommGraph, scheme: SignatureScheme, started: float
    ) -> Optional[Dict[str, Signature]]:
        """Exact signatures, or ``None`` if the deadline tripped.

        The population is one batch, ``compute_all`` through the run's
        engine, and the deadline is checked after the batch.
        """
        signatures = scheme.compute_all(graph, graph.senders(), engine=self._engine)
        deadline = self.config.window_deadline
        if deadline is not None and self._clock() - started > deadline:
            return None
        return signatures

    def _compute_degraded(self, batch: RecordBatch) -> Dict[str, Signature]:
        """One-pass sketched signatures for the window (Section VI path):
        :func:`sketch_window` over its one canonical bucket, as the
        service's sketch tier sketches a window."""
        builder = sketch_window(
            self.config.scheme,
            [batch],
            k=self.config.k,
            epsilon=self.config.streaming_epsilon,
            delta=self.config.streaming_delta,
            seed=self.config.seed,
        )
        return {source: builder.signature(source) for source in builder.sources}

    def _save_window(
        self,
        window: int,
        signatures: Dict[str, Signature],
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
