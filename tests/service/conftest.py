"""Shared fixtures for the sharded-service tests: tiny deterministic
traffic, small configs, and a manual clock."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro import obs
from repro.graph.stream import EdgeRecord
from repro.service import BreakerPolicy, ServiceConfig


class ManualClock:
    """A monotonic clock tests advance by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_records(
    count: int, *, nodes: int = 12, seed: int = 0, start: float = 0.0
) -> List[EdgeRecord]:
    """Deterministic pseudo-random traffic among ``nodes`` hosts."""
    rng = random.Random(seed)
    records = []
    for index in range(count):
        src = f"h{rng.randrange(nodes)}"
        dst = f"h{rng.randrange(nodes)}"
        while dst == src:
            dst = f"h{rng.randrange(nodes)}"
        records.append(
            EdgeRecord(
                time=start + float(index),
                src=src,
                dst=dst,
                weight=float(1 + rng.randrange(5)),
            )
        )
    return records


@pytest.fixture
def registry() -> obs.MetricsRegistry:
    """A collecting registry installed for the whole test: a bare
    supervisor or frontend records into it (breakers bind to it when they
    are built), and a ``SignatureService`` adopts it."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        yield registry


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock()


@pytest.fixture
def records_factory():
    """The :func:`make_records` helper, injectable into tests."""
    return make_records


@pytest.fixture
def small_config() -> ServiceConfig:
    """3 shards, 30-record windows, an eager breaker — fast and twitchy."""
    return ServiceConfig(
        num_shards=3,
        window_records=30,
        window_buckets=1,
        queue_capacity=120,
        k=5,
        breaker=BreakerPolicy(
            window=8,
            min_calls=2,
            failure_threshold=0.5,
            open_for_s=5.0,
            half_open_probes=1,
        ),
    )
