"""Configuration and health vocabulary for the sharded signature service.

The service's failure envelope is driven entirely from here: how many
shards, when windows roll, how large the ingest queue may grow before the
data plane pushes back, how eagerly circuit breakers trip, and how many
restarts a crashing shard is granted before it is demoted to the sketch
tier.  Everything is a plain value so a config can be logged, diffed and
reconstructed from JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.distances import available_distances
from repro.core.execution import execution_error
from repro.exceptions import ServiceError

#: Shard health states reported by ``/status``.
HEALTH_HEALTHY = "HEALTHY"
#: Exact engine unavailable (crashed past its restart budget, or breaker
#: open); queries are answered from the sketch tier, flagged approximate.
HEALTH_DEGRADED = "DEGRADED"
#: Neither the exact engine nor the sketch tier can answer.
HEALTH_DOWN = "DOWN"

HEALTH_STATES = (HEALTH_HEALTHY, HEALTH_DEGRADED, HEALTH_DOWN)


@dataclass(frozen=True)
class BreakerPolicy:
    """When a per-shard circuit breaker trips and how it recovers.

    The breaker watches a rolling window of the last ``window`` guarded
    calls.  Once at least ``min_calls`` outcomes are in the window and the
    failure rate reaches ``failure_threshold``, it opens.  A success slower
    than ``latency_threshold_s`` counts as a failure (a wedged-but-alive
    shard must trip the breaker too).  After ``open_for_s`` seconds the
    breaker half-opens and admits ``half_open_probes`` probe calls: one
    probe failure re-opens it, ``half_open_probes`` successes close it.
    """

    window: int = 16
    min_calls: int = 4
    failure_threshold: float = 0.5
    latency_threshold_s: Optional[float] = None
    open_for_s: float = 5.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ServiceError(f"breaker window must be >= 1, got {self.window}")
        if not 1 <= self.min_calls <= self.window:
            raise ServiceError(
                f"min_calls must be in [1, window={self.window}], got {self.min_calls}"
            )
        if not 0 < self.failure_threshold <= 1:
            raise ServiceError(
                f"failure_threshold must be in (0, 1], got {self.failure_threshold}"
            )
        if self.latency_threshold_s is not None and self.latency_threshold_s <= 0:
            raise ServiceError(
                f"latency_threshold_s must be positive, got {self.latency_threshold_s}"
            )
        if self.open_for_s <= 0:
            raise ServiceError(f"open_for_s must be positive, got {self.open_for_s}")
        if self.half_open_probes < 1:
            raise ServiceError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of a running :class:`~repro.service.http.SignatureService`.

    Sharding & windows
        ``num_shards`` shard engines, records routed by a stable hash of
        the record's source node.  Every ``window_records`` accepted
        records close one global window: all shards advance in lockstep
        (some with empty sub-buckets), so window indices are comparable
        across shards.  A window's graph is built from its own records.

    Backpressure
        The ingest queue holds at most ``queue_capacity`` accepted-but-not-
        yet-applied records.  A ``POST /ingest`` that does not fit is
        rejected whole with 429 and ``Retry-After: retry_after_s``; once
        occupancy crosses ``shed_fraction`` the service sheds *query*
        traffic (503) first, keeping ingest capacity for the data that
        backs those queries.

    Resilience
        ``max_restarts`` bounds how many times a crashing shard engine is
        rebuilt (per crash incident) before the shard is demoted to
        DEGRADED; ``restart_base_delay_s`` seeds the exponential backoff
        between rebuild attempts.  ``breaker`` governs the per-shard
        circuit breakers on the query path.  ``request_deadline_s`` bounds
        one request's service time; a request that overruns answers 504.

    Queries
        ``distance`` (registry name) and ``anomaly_threshold`` define the
        ``/anomaly`` contract: a node is anomalous when its persistence
        ``1 - dist(sig_prev, sig_now)`` falls below the threshold.
        ``streaming_*`` parameterise the Section VI sketch tier that
        answers for unhealthy shards.
    """

    scheme: str = "tt"
    k: int = 10
    scheme_params: Dict = field(default_factory=dict)
    num_shards: int = 4
    window_records: int = 256
    queue_capacity: int = 4096
    shed_fraction: float = 0.8
    retry_after_s: float = 1.0
    request_deadline_s: Optional[float] = 5.0
    max_restarts: int = 2
    restart_base_delay_s: float = 0.0
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    distance: str = "sdice"
    anomaly_threshold: float = 0.3
    streaming_epsilon: float = 0.005
    streaming_delta: float = 0.01
    seed: int = 0
    #: Workers of the compute engine the supervisor builds once, with
    #: :func:`repro.core.execution.make_engine`, and shares with every
    #: shard.  One computes in-process; more (0 = all CPUs) run a
    #: :class:`repro.parallel.shm.ShmEngine` pool, and signatures are
    #: byte-identical either way.  The approximate tier is not an engine:
    #: a shard builds it from its ingest log only when a read needs it.
    jobs: int = 1
    #: How many finished request traces ``GET /trace/<id>`` can look up.
    trace_store_size: int = 256
    #: Rolling windows (seconds) for SLO burn-rate evaluation.
    slo_windows_s: Tuple[float, ...] = (60.0, 300.0, 1800.0)
    #: Availability objective over all endpoints (fraction of requests
    #: that must not 5xx); ``None`` disables it.
    slo_availability: Optional[float] = 0.999
    #: Latency objective on ``/similar`` (the scatter-gather path): at
    #: least 99% of requests must finish within this many seconds (and
    #: succeed); ``None`` disables it.
    slo_similar_p99_s: Optional[float] = 0.25

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ServiceError(f"signature length k must be >= 1, got {self.k}")
        error = execution_error(self.jobs)
        if error is not None:
            raise ServiceError(error)
        if self.num_shards < 1:
            raise ServiceError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.window_records < 1:
            raise ServiceError(
                f"window_records must be >= 1, got {self.window_records}"
            )
        if self.queue_capacity < self.window_records:
            raise ServiceError(
                f"queue_capacity ({self.queue_capacity}) must hold at least one "
                f"window ({self.window_records} records)"
            )
        if not 0 < self.shed_fraction <= 1:
            raise ServiceError(
                f"shed_fraction must be in (0, 1], got {self.shed_fraction}"
            )
        if self.retry_after_s <= 0:
            raise ServiceError(
                f"retry_after_s must be positive, got {self.retry_after_s}"
            )
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ServiceError(
                f"request_deadline_s must be positive, got {self.request_deadline_s}"
            )
        if self.max_restarts < 0:
            raise ServiceError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.restart_base_delay_s < 0:
            raise ServiceError(
                f"restart_base_delay_s must be >= 0, got {self.restart_base_delay_s}"
            )
        if self.distance not in available_distances():
            raise ServiceError(
                f"unknown distance {self.distance!r}; "
                f"known: {', '.join(available_distances())}"
            )
        if not 0 <= self.anomaly_threshold <= 1:
            raise ServiceError(
                f"anomaly_threshold must be in [0, 1], got {self.anomaly_threshold}"
            )
        if self.trace_store_size < 1:
            raise ServiceError(
                f"trace_store_size must be >= 1, got {self.trace_store_size}"
            )
        if not self.slo_windows_s or any(w <= 0 for w in self.slo_windows_s):
            raise ServiceError(
                f"slo_windows_s must be non-empty and positive, "
                f"got {self.slo_windows_s}"
            )
        if self.slo_availability is not None and not 0 < self.slo_availability < 1:
            raise ServiceError(
                f"slo_availability must be in (0, 1), got {self.slo_availability}"
            )
        if self.slo_similar_p99_s is not None and self.slo_similar_p99_s <= 0:
            raise ServiceError(
                f"slo_similar_p99_s must be positive, got {self.slo_similar_p99_s}"
            )
