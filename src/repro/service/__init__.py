"""Resilient sharded online signature service.

A long-lived signature service: records are hashed to one of N
supervised shard engines, every ``window_records`` accepted records
close one global window, and queries
(``/signature``, ``/similar``, ``/anomaly``) are answered from the exact
tier when a shard is healthy — and from its Section VI sketch tier,
flagged ``"approximate": true``, when it is not.

The headline feature is the failure envelope, not the happy path:

* :class:`ShardSupervisor` restarts crashed shard engines from their
  acknowledged ingest log + verified checkpoints (byte-identical to never
  having crashed) under a bounded retry budget, then escalates
  HEALTHY → DEGRADED → DOWN per shard;
* :class:`CircuitBreaker` (CLOSED/OPEN/HALF_OPEN, per shard) fails queries
  over to the sketch tier instead of queueing behind a wedged engine;
* :class:`BoundedIngestQueue` turns overload into explicit backpressure —
  429 + ``Retry-After`` — and sheds query traffic before ingest traffic;
* :mod:`repro.service.chaos` is the proof: scripted shard kills, wedges,
  checkpoint corruption and query storms that the test suite runs.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".breaker": (
            "STATE_CLOSED", "STATE_CODES", "STATE_HALF_OPEN", "STATE_OPEN", "CircuitBreaker",
        ),
        ".chaos": (
            "BreakSketch", "KillShard", "ShardFaultInjector", "WedgeShard", "corrupt_checkpoint",
            "query_storm",
        ),
        ".config": (
            "HEALTH_DEGRADED", "HEALTH_DOWN", "HEALTH_HEALTHY", "HEALTH_STATES", "BreakerPolicy",
            "ServiceConfig",
        ),
        ".frontend": (
            "BoundedIngestQueue", "ServiceFrontend", "parse_ingest_body", "service_objectives",
        ),
        ".http": ("ServiceServer", "SignatureService"),
        ".shard": ("ShardEngine", "SketchTier"),
        ".supervisor": ("ShardState", "ShardSupervisor"),
    },
)
