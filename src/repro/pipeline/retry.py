"""Retry with exponential backoff, jitter and deadlines.

Transient faults — a flaky NFS mount, a filesystem briefly out of handles,
an object store returning 503 — should not kill a multi-hour signature run.
:func:`call_with_retry` wraps any callable with capped exponential backoff
plus decorrelating jitter, bounded both by attempt count and by a wall-clock
deadline.  The sleep and clock functions are injectable so tests (and the
fault harness) can exercise every path without real waiting.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro import obs
from repro.exceptions import PipelineError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient-failure retries.

    ``max_attempts`` counts the initial call, so ``max_attempts=1`` means
    "no retries".  Delay before attempt ``n`` (n >= 2) is
    ``min(max_delay, base_delay * multiplier**(n-2))``, then scaled by a
    uniform jitter factor in ``[1 - jitter, 1 + jitter]``.  ``deadline``
    bounds the total elapsed time across all attempts (seconds); a retry
    that would start after the deadline is abandoned instead.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PipelineError(f"max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("base_delay", "max_delay", "multiplier", "deadline"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise PipelineError(f"{name} must be finite, got {value}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise PipelineError("delays must be non-negative")
        if self.multiplier < 1:
            raise PipelineError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter <= 1:
            raise PipelineError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise PipelineError(f"deadline must be positive, got {self.deadline}")

    def delay_before(self, attempt: int, rng: random.Random) -> float:
        """Jittered backoff delay preceding ``attempt`` (2-based)."""
        if attempt <= 1:
            return 0.0
        try:
            raw = self.base_delay * self.multiplier ** (attempt - 2)
        except OverflowError:
            # The power is past every float, so the delay is past the cap
            # (a zero base stays zero).
            raw = math.inf if self.base_delay else 0.0
        raw = min(self.max_delay, raw)
        if self.jitter == 0:
            return raw
        # Re-apply the cap after jitter: the upward jitter factor used to be
        # applied to an already-capped delay, letting sleeps exceed max_delay
        # by up to (1 + jitter)x.  max_delay is a hard ceiling.
        return min(self.max_delay, raw * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))


#: Exception types treated as transient by default.
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (OSError,)


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy | None = None,
    *,
    retry_on: Tuple[Type[BaseException], ...] = TRANSIENT_ERRORS,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    rng: random.Random | int | None = None,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
) -> T:
    """Call ``fn`` until it succeeds, a non-transient error escapes, or the
    policy is exhausted.

    Only exceptions matching ``retry_on`` are retried; anything else
    propagates immediately.  When attempts or the deadline run out, the
    last transient exception is re-raised unchanged (so callers still see
    the real failure).  ``on_retry(attempt, error, delay)`` is invoked
    before each backoff sleep — the pipeline uses it to count retries in
    its run report.
    """
    policy = policy or RetryPolicy()
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    start = clock()
    attempt = 0
    while True:
        attempt += 1
        obs.counter("retry.attempts").inc()
        try:
            return fn()
        except retry_on as exc:
            obs.counter("retry.transient_failures").inc()
            if attempt >= policy.max_attempts:
                obs.counter("retry.exhausted").inc()
                raise
            delay = policy.delay_before(attempt + 1, rng)
            if policy.deadline is not None and (clock() - start) + delay > policy.deadline:
                obs.counter("retry.deadline_abandoned").inc()
                raise
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            obs.counter("retry.sleeps").inc()
            obs.histogram("retry.delay_s").observe(delay)
            if delay > 0:
                sleep(delay)
