"""Per-shard circuit breakers: closed / open / half-open.

A breaker sits in front of each shard's *exact* query path.  While CLOSED
it lets calls through and records their outcomes; when the rolling failure
rate (slow successes count as failures) crosses the policy threshold it
OPENs and refuses calls, letting the data plane fall back to the sketch
tier instantly instead of queueing requests behind a wedged engine.  After
``open_for_s`` it HALF_OPENs and admits a limited number of probes; probe
success closes it, probe failure re-opens it and restarts the clock.

The clock is injectable, so chaos tests can march a breaker through its
whole schedule without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, TypeVar

from repro import obs
from repro.exceptions import BreakerOpen
from repro.service.config import BreakerPolicy

T = TypeVar("T")

#: Breaker states (also exported via ``/status``).
STATE_CLOSED = "CLOSED"
STATE_OPEN = "OPEN"
STATE_HALF_OPEN = "HALF_OPEN"

#: Numeric encoding for the ``service.breaker.state`` gauge.
STATE_CODES: Dict[str, int] = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


class CircuitBreaker:
    """Thread-safe three-state breaker with a rolling outcome window."""

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        *,
        name: str = "breaker",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        #: Rolling (ok, latency) outcomes, newest last.
        self._outcomes: Deque[Tuple[bool, float]] = deque(maxlen=self.policy.window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.opened_count = 0
        # Observability exports: guarded-call latencies by outcome, the
        # state as a gauge, refusals as a counter.  They bind to the registry
        # and label scope active here (the service creates each shard's
        # breaker under its install and the shard's labels).
        self._success_latency = obs.histogram("breaker.latency_s", outcome="success")
        self._failure_latency = obs.histogram("breaker.latency_s", outcome="failure")
        self._state_gauge = obs.gauge("breaker.state")
        self._refusals = obs.counter("breaker.refusals")
        self._state_gauge.set(STATE_CODES[STATE_CLOSED])

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, promoting OPEN to HALF_OPEN once the timer expires."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def failure_rate(self) -> float:
        """Effective failure fraction over the rolling window (0 when empty)."""
        with self._lock:
            if not self._outcomes:
                return 0.0
            failures = sum(1 for ok, _latency in self._outcomes if not ok)
            return failures / len(self._outcomes)

    def allow(self) -> bool:
        """Whether a guarded call may proceed right now.

        In HALF_OPEN this *admits a probe* (and counts it in flight), so a
        caller that receives ``True`` must follow up with exactly one
        :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_OPEN:
                self._refusals.inc()
                return False
            if self._probes_in_flight < self.policy.half_open_probes:
                self._probes_in_flight += 1
                return True
            self._refusals.inc()
            return False

    # ------------------------------------------------------------------
    def record_success(self, latency_s: float = 0.0) -> None:
        """Record a completed call; a slow success is treated as a failure."""
        slow = (
            self.policy.latency_threshold_s is not None
            and latency_s > self.policy.latency_threshold_s
        )
        if slow:
            self.record_failure(latency_s)
            return
        self._success_latency.observe(latency_s)
        with self._lock:
            self._maybe_half_open()
            if self._state == STATE_HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.policy.half_open_probes:
                    self._transition(STATE_CLOSED)
                    self._outcomes.clear()
                return
            self._outcomes.append((True, latency_s))

    def record_failure(self, latency_s: float = 0.0) -> None:
        """Record a failed (or over-deadline) call; may trip the breaker."""
        self._failure_latency.observe(latency_s)
        with self._lock:
            self._maybe_half_open()
            if self._state == STATE_HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._reopen()
                return
            self._outcomes.append((False, latency_s))
            if self._state == STATE_CLOSED and self._should_open():
                self._reopen()

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the breaker, timing it and recording the outcome.

        Raises :class:`~repro.exceptions.BreakerOpen` without calling ``fn``
        when the breaker refuses the call.
        """
        if not self.allow():
            raise BreakerOpen(self.name)
        started = self._clock()
        try:
            result = fn()
        except Exception:
            self.record_failure(self._clock() - started)
            raise
        self.record_success(self._clock() - started)
        return result

    # ------------------------------------------------------------------
    # Internals (all called with the lock held)
    # ------------------------------------------------------------------
    def _should_open(self) -> bool:
        if len(self._outcomes) < self.policy.min_calls:
            return False
        failures = sum(1 for ok, _latency in self._outcomes if not ok)
        return failures / len(self._outcomes) >= self.policy.failure_threshold

    def _maybe_half_open(self) -> None:
        if (
            self._state == STATE_OPEN
            and self._clock() - self._opened_at >= self.policy.open_for_s
        ):
            self._transition(STATE_HALF_OPEN)
            self._probes_in_flight = 0
            self._probe_successes = 0

    def _reopen(self) -> None:
        self._opened_at = self._clock()
        self.opened_count += 1
        self._transition(STATE_OPEN)

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        previous, self._state = self._state, state
        self._state_gauge.set(STATE_CODES[state])
        obs.emit(
            "service.breaker",
            level="warning" if state == STATE_OPEN else "info",
            breaker=self.name,
            state=state,
            previous=previous,
        )
