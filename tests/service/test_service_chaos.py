"""Service chaos suite (``-m chaos``): the failure-envelope acceptance tests.

Every test here injects a scripted fault into a running service and
asserts the promised envelope:

* **no lost acknowledged ingests** — every record admitted by the queue is
  applied to its shard, crash or no crash;
* **byte-identical recovery** — a shard killed mid-ingest rebuilds to
  exactly the signatures of a never-crashed run;
* **breakers on schedule** — a wedged shard's breaker opens within the
  configured window, half-opens after ``open_for_s``, closes on a good
  probe;
* **degraded, not down** — under every injected fault the service answers
  (approximately where it must), and ``/status`` says so honestly.
"""

import json

import pytest

from repro import obs
from repro.graph.batch import RecordBatch
from repro.service import (
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    STATE_CLOSED,
    STATE_OPEN,
    BreakerPolicy,
    KillShard,
    ServiceConfig,
    ServiceFrontend,
    ShardSupervisor,
    SignatureService,
    WedgeShard,
    corrupt_checkpoint,
    query_storm,
)

pytestmark = pytest.mark.chaos


def build_service(config, clock=None, checkpoint_dir=None):
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    return SignatureService(config, checkpoint_dir=checkpoint_dir, **kwargs)


def run_windows(service, records_factory, count=120, seed=5):
    assert service.ingest(records_factory(count, nodes=12, seed=seed))
    service.pump()


def status_of(service):
    return json.loads(service.respond("GET", "/status")[2])


def shard_node(supervisor, shard_id):
    return next(
        f"h{i}" for i in range(12) if supervisor.shard_for(f"h{i}") == shard_id
    )


class TestKillAShard:
    def test_byte_identical_recovery_mid_ingest(
        self, small_config, records_factory, tmp_path
    ):
        reference = build_service(small_config, checkpoint_dir=tmp_path / "ref")
        run_windows(reference, records_factory)
        chaotic = build_service(small_config, checkpoint_dir=tmp_path / "chaos")
        chaotic.supervisor.install_injector(1, KillShard(at_window=2))
        run_windows(chaotic, records_factory)
        for ref_state, chaos_state in zip(
            reference.supervisor.shards, chaotic.supervisor.shards
        ):
            assert chaos_state.engine.signatures == ref_state.engine.signatures
        assert status_of(chaotic)["service"] == "HEALTHY"
        assert chaotic.supervisor.shards[1].restarts == 1

    def test_no_acknowledged_ingest_lost(self, small_config, records_factory):
        service = build_service(small_config)
        service.supervisor.install_injector(0, KillShard(at_window=1))
        accepted = 0
        for seed in range(4):
            batch = records_factory(30, nodes=12, seed=seed)
            document = json.dumps(
                {"records": [[r.time, r.src, r.dst, r.weight] for r in batch]}
            )
            status, _headers, body = service.respond("POST", "/ingest", document)
            assert status == 202
            accepted += json.loads(body)["accepted"]
        service.pump(force=True)
        applied = sum(
            state.records_ingested for state in service.supervisor.shards
        )
        assert applied == accepted == 120

    def test_exhausted_restarts_degrade_not_down(
        self, small_config, records_factory
    ):
        service = build_service(small_config)
        service.supervisor.install_injector(
            0, KillShard(at_window=1, rebuild_failures=1000)
        )
        run_windows(service, records_factory)
        report = status_of(service)
        assert report["service"] == "DEGRADED"
        healths = [shard["health"] for shard in report["shards"]]
        assert healths.count("DEGRADED") == 1
        assert healths.count("HEALTHY") == 2
        # The degraded shard still answers (approximately).
        node = shard_node(service.supervisor, 0)
        status, _headers, body = service.respond("GET", f"/signature/{node}")
        assert status == 200
        assert json.loads(body)["approximate"] is True


class TestWedgeAShard:
    def test_breaker_opens_then_half_opens_on_schedule(
        self, records_factory, clock
    ):
        config = ServiceConfig(
            num_shards=3,
            window_records=30,
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
        service = build_service(config, clock=clock)
        wedge = WedgeShard(from_window=0)
        service.supervisor.install_injector(1, wedge)
        run_windows(service, records_factory)
        node = shard_node(service.supervisor, 1)
        breaker = service.supervisor.shards[1].breaker

        # Wedged queries answer from the sketch tier and trip the breaker
        # within min_calls guarded calls.
        for _ in range(2):
            status, _headers, body = service.respond("GET", f"/signature/{node}")
            assert status == 200
            assert json.loads(body)["approximate"] is True
        assert breaker.state == STATE_OPEN
        assert wedge.wedged_queries == 2

        # While open, queries skip the engine entirely: still approximate,
        # no new wedged calls.
        status, _headers, body = service.respond("GET", f"/signature/{node}")
        assert json.loads(body)["approximate"] is True
        assert wedge.wedged_queries == 2

        report = status_of(service)
        assert report["shards"][1]["health"] == HEALTH_DEGRADED
        assert report["shards"][1]["breaker"] == STATE_OPEN
        assert report["shards"][0]["health"] == HEALTH_HEALTHY

        # On schedule: still OPEN before open_for_s, HALF_OPEN after; a
        # successful probe (fault released) closes it and exact answers
        # resume.
        clock.advance(4.0)
        assert breaker.state == STATE_OPEN
        clock.advance(1.5)
        wedge.release()
        status, _headers, body = service.respond("GET", f"/signature/{node}")
        assert json.loads(body)["approximate"] is False
        assert breaker.state == STATE_CLOSED
        assert status_of(service)["service"] == "HEALTHY"

    def test_failed_probe_reopens(self, records_factory, clock):
        config = ServiceConfig(
            num_shards=3,
            window_records=30,
            queue_capacity=120,
            k=5,
            breaker=BreakerPolicy(
                window=8, min_calls=2, failure_threshold=0.5, open_for_s=5.0
            ),
        )
        service = build_service(config, clock=clock)
        wedge = WedgeShard(from_window=0)
        service.supervisor.install_injector(1, wedge)
        run_windows(service, records_factory)
        node = shard_node(service.supervisor, 1)
        breaker = service.supervisor.shards[1].breaker
        for _ in range(2):
            service.respond("GET", f"/signature/{node}")
        assert breaker.state == STATE_OPEN
        clock.advance(6.0)
        # Probe admitted, wedge still active: the probe fails, re-opens.
        status, _headers, body = service.respond("GET", f"/signature/{node}")
        assert json.loads(body)["approximate"] is True
        assert breaker.state == STATE_OPEN
        assert breaker.opened_count == 2


class TestCorruptCheckpoint:
    def test_corruption_detected_and_recovery_exact(
        self, small_config, records_factory, tmp_path
    ):
        # The service records into the event log active at its construction.
        events = []
        with obs.use_event_log(_ListLog(events)):
            chaotic = build_service(small_config, checkpoint_dir=tmp_path / "chaos")
        run_windows(chaotic, records_factory, count=60)
        # Corrupt shard 1's window-1 checkpoint on disk, then crash the
        # shard: the rebuild must detect the damage (hash verification),
        # recompute that window, and still converge byte-identically.
        corrupt_checkpoint(tmp_path / "chaos" / "shard-01", window=1)
        chaotic.supervisor.install_injector(1, KillShard(at_window=2))
        assert chaotic.ingest(records_factory(60, nodes=12, seed=5, start=60.0))
        chaotic.pump()
        issue_events = [
            event for event in events
            if event["event"] == "service.shard.checkpoint_issue"
        ]
        assert issue_events
        assert any("hash verification" in event["issue"] for event in issue_events)
        state = chaotic.supervisor.shards[1]
        assert state.health == HEALTH_HEALTHY
        # Recovery must still converge byte-identically to a clean run fed
        # the exact same two batches.
        clean = build_service(small_config)
        run_windows(clean, records_factory, count=60)
        assert clean.ingest(records_factory(60, nodes=12, seed=5, start=60.0))
        clean.pump()
        for clean_state, chaos_state in zip(
            clean.supervisor.shards, chaotic.supervisor.shards
        ):
            assert chaos_state.engine.signatures == clean_state.engine.signatures


class _ListLog:
    enabled = True
    run_id = "test"
    level = "debug"

    def __init__(self, records):
        self._records = records

    def emit(self, event, level="info", **fields):
        record = {"event": event, "level": level, **fields}
        self._records.append(record)
        return record

    def close(self):
        return None


class TestQueryStorm:
    def test_full_queue_burst_429_and_zero_loss(
        self, small_config, records_factory
    ):
        supervisor = ShardSupervisor(small_config)
        frontend = ServiceFrontend(supervisor, small_config)
        warmup = records_factory(120, nodes=12, seed=5)
        frontend.queue.offer(RecordBatch.from_records(warmup, supervisor.labels))
        frontend.pump()

        def ingest_request(seed):
            batch = records_factory(30, nodes=12, seed=seed, start=1000.0 * seed)
            return (
                "POST",
                "/ingest",
                json.dumps(
                    {"records": [[r.time, r.src, r.dst, r.weight] for r in batch]}
                ),
            )

        # 8 concurrent 30-record bursts against a 120-record queue: at most
        # 4 can be admitted, the rest must bounce with 429 — never a crash,
        # never a partial admit.
        tally, responses = query_storm(
            frontend, [ingest_request(seed) for seed in range(8)], threads=8
        )
        assert tally[202] + tally[429] == 8
        assert tally[202] == 4
        accepted = sum(
            json.loads(body)["accepted"]
            for status, _headers, body in responses
            if status == 202
        )
        assert len(frontend.queue) == accepted == 120
        for status, headers, _body in responses:
            if status == 429:
                assert headers["Retry-After"] == "1"
        # Drain: every acknowledged record is applied, none lost.
        frontend.pump(force=True)
        applied = sum(state.records_ingested for state in supervisor.shards)
        assert applied == 120 + 120

    def test_storm_during_degradation_never_500s(
        self, small_config, records_factory
    ):
        service = build_service(small_config)
        service.supervisor.install_injector(
            0, KillShard(at_window=1, rebuild_failures=1000)
        )
        run_windows(service, records_factory)
        nodes = [f"h{i}" for i in range(12)]
        requests = [
            ("GET", f"/signature/{node}", None) for node in nodes
        ] + [
            ("GET", f"/similar/{node}?k=3", None) for node in nodes
        ] + [
            ("GET", f"/anomaly/{node}", None) for node in nodes
        ] + [("GET", "/status", None)] * 4
        tally, _responses = query_storm(service.frontend, requests, threads=8)
        assert set(tally) <= {200, 404}
        assert tally[200] >= 4
