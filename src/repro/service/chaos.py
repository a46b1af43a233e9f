"""Service-level chaos: scripted shard faults and query storms.

This extends :mod:`repro.pipeline.faults` (single-run crash/corruption
injection) to the running service.  A :class:`ShardFaultInjector` is
installed on one shard via
:meth:`~repro.service.supervisor.ShardSupervisor.install_injector` and gets
called from four choke points:

* ``on_apply``    — before the exact engine applies a window bucket
  (:class:`KillShard` raises here: crash-mid-ingest);
* ``on_rebuild``  — before each supervised rebuild attempt
  (:class:`KillShard` can fail the first N, exhausting the restart budget);
* ``on_sketch``   — before each build of the sketch tier, which happens on
  the first approximate read of a window
  (:class:`BreakSketch` raises here: the DOWN escalation path);
* ``on_query``    — before an exact-tier query call
  (:class:`WedgeShard` raises or stalls here: the breaker-trip path).

Injectors are deterministic — they fire at configured windows, not random
ones — so every chaos test is reproducible.  :func:`corrupt_checkpoint`
flips a byte in a shard's persisted window segment (the recovery path must
*detect* this via the SHA-256 manifest, never serve it), and
:func:`query_storm` hammers a frontend from worker threads and tallies
status codes.
"""

from __future__ import annotations

import threading
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ShardWedged
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.faults import SimulatedCrash, corrupt_checkpoint_file
from repro.service.frontend import ServiceFrontend


class ShardFaultInjector:
    """Base injector: every hook is a no-op; subclasses arm specific ones."""

    def on_apply(self, shard_id: int, window: int) -> None:
        """Called before the shard engine applies the bucket for ``window``."""

    def on_rebuild(self, shard_id: int) -> None:
        """Called before each rebuild attempt of the shard engine."""

    def on_sketch(self, shard_id: int, window: int) -> None:
        """Called before the sketch tier of ``window`` is built from the
        shard's ingest log (on the first approximate read of it)."""

    def on_query(self, shard_id: int, node: str) -> None:
        """Called before an exact-tier query call for ``node``."""


class KillShard(ShardFaultInjector):
    """Crash the exact engine at one window; optionally sabotage rebuilds.

    ``at_window`` is the global window index whose apply raises
    :class:`~repro.pipeline.faults.SimulatedCrash`.  With
    ``rebuild_failures=n`` the first ``n`` rebuild attempts fail too — set
    it past the restart budget to force DEGRADED escalation, or leave 0 to
    exercise clean supervised recovery.
    """

    def __init__(self, at_window: int, rebuild_failures: int = 0) -> None:
        self.at_window = at_window
        self.rebuild_failures = rebuild_failures
        self.kills = 0
        self.rebuild_attempts = 0

    def on_apply(self, shard_id: int, window: int) -> None:
        if window == self.at_window:
            self.kills += 1
            raise SimulatedCrash(
                f"chaos: killed shard {shard_id} at window {window}"
            )

    def on_rebuild(self, shard_id: int) -> None:
        self.rebuild_attempts += 1
        if self.rebuild_attempts <= self.rebuild_failures:
            raise SimulatedCrash(
                f"chaos: failed rebuild #{self.rebuild_attempts} of shard {shard_id}"
            )


class WedgeShard(ShardFaultInjector):
    """Wedge the exact query path from ``from_window`` onwards.

    Every exact-tier query raises :class:`~repro.exceptions.ShardWedged`
    (or, when ``stall`` is given, calls it first — e.g. advancing a fake
    clock past the breaker's latency threshold).  The ingest path is left
    alone: a wedged shard is alive, just useless to query — exactly the
    failure a circuit breaker exists for.  Call :meth:`release` to clear
    the fault and let half-open probes succeed.
    """

    def __init__(
        self,
        from_window: int = 0,
        *,
        stall: Optional[Callable[[], None]] = None,
    ) -> None:
        self.from_window = from_window
        self.stall = stall
        self.window = -1
        self.wedged_queries = 0
        self._released = False

    def on_apply(self, shard_id: int, window: int) -> None:
        self.window = window

    def release(self) -> None:
        self._released = True

    def on_query(self, shard_id: int, node: str) -> None:
        if self._released or self.window < self.from_window:
            return
        self.wedged_queries += 1
        if self.stall is not None:
            self.stall()
            return
        raise ShardWedged(
            f"chaos: shard {shard_id} wedged (query for {node!r})"
        )


class BreakSketch(ShardFaultInjector):
    """Fail the sketch tier's build for one window — the DOWN escalation
    path (the build happens only when an approximate read needs it)."""

    def __init__(self, at_window: int) -> None:
        self.at_window = at_window

    def on_sketch(self, shard_id: int, window: int) -> None:
        if window == self.at_window:
            raise SimulatedCrash(
                f"chaos: broke sketch tier of shard {shard_id} at window {window}"
            )


def corrupt_checkpoint(
    directory: str | Path, window: int, *, flip_at: int = 16
) -> Path:
    """Flip one byte inside a persisted window checkpoint.

    Targets the live segment of ``window`` in a
    :class:`~repro.pipeline.checkpoint.CheckpointStore` directory.  The
    manifest is left alone, so the SHA-256 verification — not luck — must
    catch the mismatch.  Returns the corrupted path.
    """
    store = CheckpointStore(directory)
    return corrupt_checkpoint_file(store.window_path(window), flip_at=flip_at)


def query_storm(
    frontend: ServiceFrontend,
    requests: Sequence[Tuple[str, str, Optional[str]]],
    *,
    threads: int = 8,
) -> Tuple[Counter, List[Tuple[int, Dict, str]]]:
    """Fire ``requests`` (method, path, body) at the frontend concurrently.

    Requests are dealt round-robin to ``threads`` workers; returns the
    status-code tally plus every response, in request order.  The point of
    the storm is the *absence* of surprises: any unhandled exception in a
    worker propagates, and the tally lets tests assert the exact mix of
    200/202/404/429/503 the failure envelope promises.
    """
    results: List[Optional[Tuple[int, Dict, str]]] = [None] * len(requests)
    errors: List[BaseException] = []

    def worker(offset: int) -> None:
        for index in range(offset, len(requests), threads):
            method, path, body = requests[index]
            try:
                results[index] = frontend.respond(method, path, body)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)
                return

    pool = [
        threading.Thread(target=worker, args=(offset,), daemon=True)
        for offset in range(min(threads, len(requests)))
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    completed = [result for result in results if result is not None]
    return Counter(status for status, _headers, _body in completed), completed
