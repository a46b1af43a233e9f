"""Unit tests for the retry/backoff policy."""

import random

import pytest

from repro import obs
from repro.exceptions import PipelineError
from repro.pipeline.retry import RetryPolicy, call_with_retry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class Flaky:
    """Callable failing ``failures`` times before returning ``value``."""

    def __init__(self, failures, value="ok", error=OSError("boom")):
        self.failures = failures
        self.value = value
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return self.value


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(PipelineError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PipelineError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(PipelineError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(PipelineError):
            RetryPolicy(deadline=0.0)

    @pytest.mark.parametrize("field", ["base_delay", "max_delay", "multiplier", "deadline"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_delays(self, field, value):
        with pytest.raises(PipelineError, match=f"{field} must be finite"):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize("attempt", [1100, 2000, 10**6])
    def test_late_attempts_cap_without_overflow(self, attempt):
        rng = random.Random(0)
        assert RetryPolicy().delay_before(attempt, rng) <= 2.0
        assert RetryPolicy(jitter=0.0).delay_before(attempt, rng) == 2.0
        assert RetryPolicy(multiplier=10.0, jitter=0.0).delay_before(attempt, rng) == 2.0

    def test_zero_base_stays_zero_past_overflow(self):
        policy = RetryPolicy(base_delay=0.0, jitter=0.0)
        assert policy.delay_before(2000, random.Random(0)) == 0.0

    def test_thousands_of_attempts_observe_capped_delays(self):
        clock = FakeClock()
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = call_with_retry(
                Flaky(failures=1999), RetryPolicy(max_attempts=2000),
                sleep=clock.sleep, clock=clock, rng=0,
            )
        assert result == "ok"
        [[name, _labels, state]] = registry.snapshot()["histograms"]
        assert (name, state["count"]) == ("retry.delay_s", 1999)
        assert state["max"] <= 2.0

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=3.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay_before(n, rng) for n in (2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 3.0, 3.0]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.25)
        rng = random.Random(42)
        for _ in range(100):
            delay = policy.delay_before(2, rng)
            assert 0.75 <= delay <= 1.25

    def test_jitter_never_exceeds_max_delay(self):
        """Regression: jitter used to scale the already-capped delay, so a
        saturated backoff could sleep up to (1 + jitter) * max_delay."""
        policy = RetryPolicy(
            base_delay=1.0, multiplier=2.0, max_delay=2.0, jitter=0.5
        )
        rng = random.Random(7)
        saturated = [policy.delay_before(attempt, rng) for attempt in (4, 5, 6)] * 50
        assert max(saturated) <= policy.max_delay
        # The cap must not flatten jitter entirely below saturation.
        varied = {round(policy.delay_before(2, rng), 6) for _ in range(50)}
        assert len(varied) > 1

    def test_first_attempt_has_no_delay(self):
        policy = RetryPolicy(base_delay=5.0, jitter=0.5)
        assert policy.delay_before(1, random.Random(0)) == 0.0


class TestCallWithRetry:
    def test_success_first_try(self):
        assert call_with_retry(lambda: 7, RetryPolicy()) == 7

    def test_recovers_after_transient_failures(self):
        clock = FakeClock()
        flaky = Flaky(failures=2)
        result = call_with_retry(
            flaky,
            RetryPolicy(max_attempts=4, jitter=0.0),
            sleep=clock.sleep,
            clock=clock,
        )
        assert result == "ok"
        assert flaky.calls == 3

    def test_exhaustion_reraises_original(self):
        clock = FakeClock()
        flaky = Flaky(failures=10)
        with pytest.raises(OSError):
            call_with_retry(
                flaky,
                RetryPolicy(max_attempts=3, jitter=0.0),
                sleep=clock.sleep,
                clock=clock,
            )
        assert flaky.calls == 3

    def test_non_transient_error_propagates_immediately(self):
        flaky = Flaky(failures=5, error=ValueError("not transient"))
        with pytest.raises(ValueError):
            call_with_retry(flaky, RetryPolicy(max_attempts=5))
        assert flaky.calls == 1

    def test_deadline_abandons_retry(self):
        clock = FakeClock()
        flaky = Flaky(failures=10)
        with pytest.raises(OSError):
            call_with_retry(
                flaky,
                RetryPolicy(
                    max_attempts=100, base_delay=1.0, multiplier=1.0,
                    jitter=0.0, deadline=2.5,
                ),
                sleep=clock.sleep,
                clock=clock,
            )
        # attempts at t=0, 1, 2; the retry that would start at t=3 > 2.5 is dropped
        assert flaky.calls == 3

    def test_on_retry_callback_counts(self):
        clock = FakeClock()
        seen = []
        call_with_retry(
            Flaky(failures=2),
            RetryPolicy(max_attempts=4, jitter=0.0),
            sleep=clock.sleep,
            clock=clock,
            on_retry=lambda attempt, exc, delay: seen.append((attempt, delay)),
        )
        assert [attempt for attempt, _delay in seen] == [1, 2]

    def test_never_sleeps_past_deadline(self):
        """A sleep that would *end* after the deadline is abandoned, not
        started: total fake-clock time stays within the deadline."""
        clock = FakeClock()
        policy = RetryPolicy(
            max_attempts=100, base_delay=1.0, multiplier=2.0,
            max_delay=10.0, jitter=0.0, deadline=5.0,
        )
        with pytest.raises(OSError):
            call_with_retry(
                Flaky(failures=100), policy, sleep=clock.sleep, clock=clock
            )
        assert clock.now <= policy.deadline

    def test_deadline_exactly_reached_still_retries(self):
        # (elapsed + delay) == deadline is within budget; only > abandons.
        clock = FakeClock()
        flaky = Flaky(failures=2)
        result = call_with_retry(
            flaky,
            RetryPolicy(
                max_attempts=5, base_delay=1.0, multiplier=1.0,
                jitter=0.0, deadline=2.0,
            ),
            sleep=clock.sleep,
            clock=clock,
        )
        assert result == "ok"
        assert flaky.calls == 3
        assert clock.now == 2.0

    def test_zero_base_delay_never_sleeps(self):
        sleeps = []
        call_with_retry(
            Flaky(failures=3),
            RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0),
            sleep=sleeps.append,
            clock=FakeClock(),
        )
        assert sleeps == []


class TestRetryObservability:
    def run_under_registry(self, fn, policy, **kwargs):
        clock = FakeClock()
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            try:
                fn_result = call_with_retry(
                    fn, policy, sleep=clock.sleep, clock=clock, **kwargs
                )
            except OSError:
                fn_result = None
        return registry, fn_result

    def test_counts_attempts_and_sleeps_on_recovery(self):
        registry, result = self.run_under_registry(
            Flaky(failures=2), RetryPolicy(max_attempts=4, jitter=0.0)
        )
        assert result == "ok"
        assert registry.counter_value("retry.attempts") == 3
        assert registry.counter_value("retry.transient_failures") == 2
        assert registry.counter_value("retry.sleeps") == 2
        assert registry.counter_value("retry.exhausted") == 0
        [[name, _labels, state]] = registry.snapshot()["histograms"]
        assert name == "retry.delay_s"
        assert state["count"] == 2

    def test_counts_exhaustion(self):
        registry, result = self.run_under_registry(
            Flaky(failures=10), RetryPolicy(max_attempts=3, jitter=0.0)
        )
        assert result is None
        assert registry.counter_value("retry.attempts") == 3
        assert registry.counter_value("retry.exhausted") == 1
        assert registry.counter_value("retry.deadline_abandoned") == 0

    def test_counts_deadline_abandonment(self):
        registry, result = self.run_under_registry(
            Flaky(failures=10),
            RetryPolicy(
                max_attempts=100, base_delay=1.0, multiplier=1.0,
                jitter=0.0, deadline=2.5,
            ),
        )
        assert result is None
        assert registry.counter_value("retry.deadline_abandoned") == 1
        assert registry.counter_value("retry.exhausted") == 0

    def test_no_metrics_without_registry(self):
        clock = FakeClock()
        call_with_retry(
            Flaky(failures=1),
            RetryPolicy(max_attempts=2, jitter=0.0),
            sleep=clock.sleep,
            clock=clock,
        )
        assert obs.NULL_REGISTRY.counter_total("retry.attempts") == 0
