"""Multi-core fan-out for the experiment grid, with deterministic ordering.

The paper's evaluation sweeps a (scheme x distance x window) grid whose
cells are independent; :func:`parallel_map` fans such grids across worker
processes while guaranteeing that results come back in input order, so a
parallel run is bit-for-bit assembled like the serial one.  An arbitrary
executor can be injected for tests (anything with the
:meth:`concurrent.futures.Executor.map` contract), which keeps the
parallel code paths testable without spawning processes.

Worker functions and task payloads must be picklable for the process
path: experiment modules define module-level task functions that rebuild
their (deterministic, per-process-cached) datasets from the experiment
config rather than shipping graphs over pipes.

``jobs`` semantics (also exposed as ``--jobs`` on the CLI):

* ``1`` (default) — run serially in-process, no pool;
* ``N > 1`` — use up to ``N`` worker processes;
* ``0`` — use one worker per available CPU;
* negative — rejected with :class:`ValueError` (a negative ``--jobs`` is
  almost always a typo for ``0``; silently meaning "all CPUs" hid that).

Observability: when a collecting :class:`repro.obs.MetricsRegistry` is
active in the caller, each worker process runs its task under a fresh
registry and ships the snapshot back with the result; snapshots are
merged into the caller's registry **in input order** (commutative metric
merges + fixed order = deterministic, regardless of worker scheduling),
with worker span trees grafted under the caller's active span.  If a
worker raises mid-map, snapshots of the tasks that completed before the
failure are still merged and the original exception propagates.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Protocol, Sequence, Tuple, TypeVar

from repro import obs

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


class MapExecutor(Protocol):
    """The slice of the Executor API :func:`parallel_map` relies on."""

    def map(self, fn: Callable[[TaskT], ResultT], *iterables) -> Iterable[ResultT]:
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """In-process executor with the ``Executor.map`` contract.

    Useful as an injectable stand-in for a process pool in tests, and as
    the building block for recording/fault-injecting executors.
    """

    def map(self, fn: Callable[[TaskT], ResultT], *iterables) -> Iterable[ResultT]:
        return [fn(*args) for args in zip(*iterables)]

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002 - API parity
        return None


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: in a
    container pinned to 2 of 64 cores it says 64, and ``jobs=0`` would
    spawn 64 workers fighting over 2 cores.  Prefer the scheduling
    affinity mask where the platform exposes it (Linux), falling back to
    ``os.cpu_count()`` elsewhere (macOS, Windows).
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def effective_jobs(jobs: int) -> int:
    """Resolve the ``jobs`` knob: ``0`` means one per *available* CPU
    (CPU-affinity aware, see :func:`available_cpus`), negative is an error."""
    if jobs < 0:
        raise ValueError(
            f"jobs must be >= 0 (0 means one per CPU); got {jobs}"
        )
    if jobs == 0:
        return available_cpus()
    return jobs


class _InstrumentedTask:
    """Picklable wrapper: run the task under a fresh worker registry and
    return ``(result, registry snapshot)`` so the parent can merge it."""

    __slots__ = ("function",)

    def __init__(self, function: Callable[[TaskT], ResultT]) -> None:
        self.function = function

    def __call__(self, task: TaskT) -> Tuple[ResultT, dict]:
        registry = obs.MetricsRegistry()
        with obs.detached_span_path(), obs.use_registry(registry):
            result = self.function(task)
        return result, registry.snapshot()


def _consume_merging(iterator: Iterable[Tuple[ResultT, dict]]) -> List[ResultT]:
    """Unpack ``(result, snapshot)`` pairs, merging each snapshot into the
    active registry as it arrives — so a mid-map failure still keeps the
    metrics of every task that completed before it."""
    results: List[ResultT] = []
    for result, snapshot in iterator:
        obs.merge_into_active(snapshot)
        results.append(result)
    return results


def parallel_map(
    function: Callable[[TaskT], ResultT],
    tasks: Sequence[TaskT],
    jobs: int = 1,
    executor: MapExecutor | None = None,
) -> List[ResultT]:
    """Apply ``function`` to every task, results in input order.

    With ``executor`` given, it is used as-is (injectable for tests).
    Otherwise ``jobs`` picks between a plain in-process loop and a
    :class:`~concurrent.futures.ProcessPoolExecutor`; ``Executor.map``
    preserves input order, so results are deterministic either way.  A
    failing task's exception propagates unchanged and the map is
    abandoned.

    An empty ``tasks`` returns ``[]`` without touching the executor or
    resolving ``jobs``.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    registry = obs.get_registry()
    collect = registry.enabled
    if collect:
        registry.counter("parallel.maps").inc()
        registry.counter("parallel.tasks").inc(len(tasks))
    if executor is not None:
        if collect:
            return _consume_merging(executor.map(_InstrumentedTask(function), tasks))
        return list(executor.map(function, tasks))
    workers = effective_jobs(jobs)
    if workers <= 1 or len(tasks) <= 1:
        # Serial path: run under the caller's registry directly — spans
        # nest into the active span naturally, matching what the parallel
        # path reconstructs via prefix grafting.
        return [function(task) for task in tasks]
    if collect:
        registry.gauge("parallel.workers").set(min(workers, len(tasks)))
    # Imported here, not at module level: every pipeline run reads
    # effective_jobs from this module, and a one-worker run must not load
    # multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        if collect:
            return _consume_merging(pool.map(_InstrumentedTask(function), tasks))
        return list(pool.map(function, tasks))
