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

from repro.service.breaker import (
    STATE_CLOSED,
    STATE_CODES,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.service.chaos import (
    BreakSketch,
    KillShard,
    ShardFaultInjector,
    WedgeShard,
    corrupt_checkpoint,
    query_storm,
)
from repro.service.config import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    HEALTH_STATES,
    BreakerPolicy,
    ServiceConfig,
)
from repro.service.frontend import (
    BoundedIngestQueue,
    ServiceFrontend,
    parse_ingest_body,
    service_objectives,
)
from repro.service.http import ServiceServer, SignatureService
from repro.service.loadgen import (
    LoadGenerator,
    LoadProfile,
    LoadReport,
    PlannedRequest,
    build_schedule,
    exact_quantile,
    synthetic_records,
)
from repro.service.shard import ShardEngine, SketchTier
from repro.service.supervisor import ShardState, ShardSupervisor

__all__ = [
    "BoundedIngestQueue",
    "BreakSketch",
    "BreakerPolicy",
    "CircuitBreaker",
    "HEALTH_DEGRADED",
    "HEALTH_DOWN",
    "HEALTH_HEALTHY",
    "HEALTH_STATES",
    "KillShard",
    "LoadGenerator",
    "LoadProfile",
    "LoadReport",
    "PlannedRequest",
    "STATE_CLOSED",
    "STATE_CODES",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "ServiceConfig",
    "ServiceFrontend",
    "ServiceServer",
    "ShardEngine",
    "ShardFaultInjector",
    "ShardState",
    "ShardSupervisor",
    "SignatureService",
    "SketchTier",
    "WedgeShard",
    "build_schedule",
    "corrupt_checkpoint",
    "exact_quantile",
    "parse_ingest_body",
    "query_storm",
    "service_objectives",
    "synthetic_records",
]
