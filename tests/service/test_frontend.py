"""Data-plane contract: queue, backpressure, shedding, deadlines, fallbacks."""

import io
import json

import pytest

from repro import obs
from repro.exceptions import DatasetError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.stream import EdgeRecord
from repro.service import (
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    STATE_CLOSED,
    BoundedIngestQueue,
    BreakSketch,
    KillShard,
    ServiceConfig,
    ServiceFrontend,
    ShardSupervisor,
    SignatureService,
    WedgeShard,
    parse_ingest_body,
)
from repro.service.chaos import ShardFaultInjector


def build(config, clock=None):
    supervisor = ShardSupervisor(config)
    kwargs = {"clock": clock} if clock is not None else {}
    return supervisor, ServiceFrontend(supervisor, config, **kwargs)


def get_json(frontend, path):
    status, headers, body = frontend.respond("GET", path)
    return status, headers, json.loads(body)


def offer(frontend, records):
    batch = RecordBatch.from_records(records, frontend.supervisor.labels)
    return frontend.queue.offer(batch)


def fill(frontend, records_factory, count=120, seed=5):
    offer(frontend, records_factory(count, nodes=12, seed=seed))
    frontend.pump()


def open_breaker(breaker):
    """Make a shard's exact tier unavailable to queries."""
    while breaker.state == STATE_CLOSED:
        breaker.record_failure()


def numbered(start, stop, labels):
    """Records ``start..stop-1`` as a batch whose times are their numbers."""
    return RecordBatch.from_records(
        [EdgeRecord(float(t), "a", "b") for t in range(start, stop)], labels
    )


class TestQueue:
    def test_all_or_nothing_offer(self):
        queue, labels = BoundedIngestQueue(10), LabelTable()
        assert queue.offer(numbered(0, 6, labels))
        assert not queue.offer(numbered(6, 11, labels))
        assert len(queue) == 6
        assert queue.accepted == 6
        assert queue.rejected == 5

    def test_take_respects_window_size(self):
        queue, labels = BoundedIngestQueue(10), LabelTable()
        # Two batches: the first window takes one whole and splits the other.
        queue.offer(numbered(0, 3, labels))
        queue.offer(numbered(3, 7, labels))
        assert queue.take(5, labels).time.tolist() == [0, 1, 2, 3, 4]
        assert queue.take(5, labels) is None
        assert queue.take(5, labels, force=True).time.tolist() == [5, 6]
        assert queue.take(5, labels, force=True) is None
        assert len(queue) == 0

    def test_take_interns_parts_of_older_tables_into_the_given_one(self):
        queue, old, new = BoundedIngestQueue(10), LabelTable(), LabelTable()
        new.intern(["b", "x"])
        queue.offer(numbered(0, 3, old))
        queue.offer(numbered(3, 5, new))
        batch = queue.take(5, new)
        assert batch.labels is new and len(new) == 3
        assert batch.records() == numbered(0, 5, LabelTable()).records()

    def test_occupancy(self):
        queue = BoundedIngestQueue(10)
        queue.offer(numbered(0, 8, LabelTable()))
        assert queue.occupancy() == pytest.approx(0.8)


class TestIngest:
    def test_accepts_and_pumps(self, small_config, records_factory):
        _supervisor, frontend = build(small_config)
        records = records_factory(60, nodes=10, seed=3)
        payload = json.dumps(
            {"records": [[r.time, r.src, r.dst, r.weight] for r in records]}
        )
        status, _headers, body = frontend.respond("POST", "/ingest", payload)
        assert status == 202
        assert json.loads(body)["accepted"] == 60
        assert frontend.pump() == 2

    def test_object_records_and_default_weight(self, small_config):
        _supervisor, frontend = build(small_config)
        payload = json.dumps(
            {"records": [{"time": 1.0, "src": "a", "dst": "b"}]}
        )
        status, _headers, _body = frontend.respond("POST", "/ingest", payload)
        assert status == 202

    def test_backpressure_429_with_retry_after(self, small_config, records_factory):
        _supervisor, frontend = build(small_config)
        offer(frontend, records_factory(100, seed=1))
        burst = records_factory(30, seed=2)
        payload = json.dumps(
            {"records": [[r.time, r.src, r.dst, r.weight] for r in burst]}
        )
        status, headers, body = frontend.respond("POST", "/ingest", payload)
        assert status == 429
        assert headers["Retry-After"] == "1"
        document = json.loads(body)
        assert document["queued"] == 100
        assert document["capacity"] == 120
        # Nothing was partially admitted.
        assert len(frontend.queue) == 100

    @pytest.mark.parametrize(
        "body",
        [None, "", "not json", '{"records": "nope"}', '{"records": [[1.0]]}', '{"nope": []}'],
    )
    def test_malformed_bodies_are_400(self, small_config, body):
        _supervisor, frontend = build(small_config)
        status, _headers, _body = frontend.respond("POST", "/ingest", body)
        assert status == 400

    @pytest.mark.parametrize(
        "row",
        [
            [2.0, "a", "b", -1.0],
            [2.0, "a", "b", float("nan")],
            [2.0, "a", "b", float("-inf")],
            [float("inf"), "a", "b", 1.0],
            [float("nan"), "a", "b", 1.0],
            [10**400, "a", "b", 1.0],
            [2.0, "a", "b", "heavy"],
            {"time": 2.0, "src": "a", "dst": "b", "weight": float("nan")},
            {"time": 2.0, "src": "a", "dst": "b", "weight": -0.5},
        ],
        ids=[
            "negative", "nan-weight", "inf-weight", "inf-time", "nan-time",
            "overflow-time", "text-weight", "object-nan", "object-negative",
        ],
    )
    def test_invalid_values_are_400_naming_the_row(self, small_config, registry, row):
        """Regression: a negative weight answered 500 (counted against the
        availability SLO) and NaN or infinite values were admitted, which
        made the sketch tier's Count-Min sums infinite."""
        _supervisor, frontend = build(small_config)
        payload = json.dumps({"records": [[0.0, "a", "b", 1.0], [1.0, "a", "c", 2.0], row]})
        status, _headers, body = frontend.respond("POST", "/ingest", payload)
        assert status == 400
        assert "record 2" in json.loads(body)["error"]
        assert len(frontend.queue) == 0
        assert registry.counter_total("service.errors") == 0

    def test_service_ingest_refuses_invalid_records(self, small_config):
        service = SignatureService(small_config)
        records = [EdgeRecord(0.0, "a", "b", 1.0), EdgeRecord(1.0, "a", "c", float("inf"))]
        with pytest.raises(DatasetError, match="record 1"):
            service.ingest(records)
        assert len(service.frontend.queue) == 0

    def test_body_parsed_before_a_label_generation_is_interned_again(self, small_config):
        """A body parsed into a table that a window close then retires (a
        slow HTTP thread) is interned into the new generation when the
        pump takes it: its window equals one parsed after the swap."""
        late = [[float(i), f"h{i % 3}", f"late-{i % 4}", 2.0] for i in range(30)]
        body = json.dumps({"records": late})
        supervisors = []
        for early in (True, False):
            supervisor, frontend = build(small_config)
            if early:
                assert frontend.respond("POST", "/ingest", body)[0] == 202
                parsed_into = supervisor.labels
            for window in range(6):
                churn = [
                    EdgeRecord(float(i), f"h{i % 3}", f"ext-{window}-{i}", 1.0) for i in range(30)
                ]
                supervisor.ingest(RecordBatch.from_records(churn, supervisor.labels))
            if not early:
                assert frontend.respond("POST", "/ingest", body)[0] == 202
            assert frontend.pump() == 1
            supervisors.append(supervisor)
        early_run, late_run = supervisors
        assert early_run.generation > 0 and parsed_into is not early_run.labels
        assert early_run.window == late_run.window == 6
        for early_state, late_state in zip(early_run.shards, late_run.shards):
            assert early_state.engine.signatures == late_state.engine.signatures
            assert early_state.engine.prev_signatures == late_state.engine.prev_signatures

    def test_rejected_body_adds_no_label(self):
        """Regression: the ends were interned before the weights were
        parsed and checked, so every rejected body grew the table."""
        labels = LabelTable()
        parse_ingest_body('{"records": [[0.0, "a", "b", 1.0]]}', labels)
        for number, weight in enumerate([-1.0, "x", float("nan")]):
            body = json.dumps({"records": [[1.0, f"src-{number}", f"dst-{number}", weight]]})
            with pytest.raises((ValueError, DatasetError), match="record 0"):
                parse_ingest_body(body, labels)
        assert list(labels) == ["a", "b"]

    def test_parse_ingest_body_coerces_node_ids(self):
        batch = parse_ingest_body('{"records": [[1.0, 7, 8, 2.0]]}', LabelTable())
        assert batch.records() == [EdgeRecord(time=1.0, src="7", dst="8", weight=2.0)]


class TestShedding:
    def test_queries_shed_under_pressure_but_status_and_ingest_serve(
        self, small_config, records_factory
    ):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        # 100/120 > 0.8 occupancy: query traffic sheds.
        offer(frontend, records_factory(100, seed=9))
        status, headers, document = get_json(frontend, "/signature/h1")
        assert status == 503
        assert "Retry-After" in headers
        status, _headers, document = get_json(frontend, "/status")
        assert status == 200
        assert document["queue"]["shedding"] is True
        payload = json.dumps({"records": [[1.0, "a", "b", 1.0]]})
        status, _headers, _body = frontend.respond("POST", "/ingest", payload)
        assert status == 202  # ingest keeps landing until truly full


class TestQueries:
    def test_signature_roundtrip(self, small_config, records_factory):
        supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        node = next(iter(supervisor.shards[0].engine.signatures))
        status, _headers, document = get_json(frontend, f"/signature/{node}")
        assert status == 200
        assert document["node"] == node
        assert document["approximate"] is False
        assert document["signature"]
        expected = dict(
            supervisor.shards[0].engine.signatures[node].entries
        )
        assert document["signature"] == {
            str(dst): weight for dst, weight in expected.items()
        }

    def test_unknown_node_404(self, small_config, records_factory):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        status, _headers, document = get_json(frontend, "/signature/never-spoke")
        assert status == 404

    def test_similar_scatter_gather(self, small_config, records_factory):
        supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        node = next(iter(supervisor.shards[0].engine.signatures))
        status, _headers, document = get_json(frontend, f"/similar/{node}?k=4")
        assert status == 200
        assert document["partial"] is False
        assert 1 <= len(document["similar"]) <= 4
        distances = [entry["distance"] for entry in document["similar"]]
        assert distances == sorted(distances)
        assert all(entry["node"] != node for entry in document["similar"])

    def test_similar_marks_partial_when_shard_degraded(
        self, small_config, records_factory
    ):
        supervisor, frontend = build(small_config)
        supervisor.install_injector(
            1, KillShard(at_window=0, rebuild_failures=100)
        )
        fill(frontend, records_factory)
        node = next(iter(supervisor.shards[0].engine.signatures))
        status, _headers, document = get_json(frontend, f"/similar/{node}?k=4")
        assert status == 200
        assert document["partial"] is True
        assert document["shards_skipped"] == [1]

    def test_similar_validates_k(self, small_config, records_factory):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        assert get_json(frontend, "/similar/h1?k=zero")[0] == 400
        assert get_json(frontend, "/similar/h1?k=0")[0] == 400

    def test_anomaly_contract(self, small_config, records_factory):
        supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        persistent = next(
            node
            for node, _sig in supervisor.shards[0].engine.signatures.items()
            if node in supervisor.shards[0].engine.prev_signatures
        )
        status, _headers, document = get_json(frontend, f"/anomaly/{persistent}")
        assert status == 200
        assert document["status"] == "ok"
        assert 0.0 <= document["persistence"] <= 1.0
        assert document["anomalous"] == (
            document["persistence"] < small_config.anomaly_threshold
        )

    def test_anomaly_insufficient_history(self, small_config, records_factory):
        supervisor, frontend = build(small_config)
        offer(frontend, records_factory(30, nodes=6, seed=4))
        frontend.pump()
        node = next(iter(supervisor.shards[0].engine.signatures))
        status, _headers, document = get_json(frontend, f"/anomaly/{node}")
        assert status == 200
        assert document["status"] == "insufficient-history"
        assert document["persistence"] is None
        assert document["anomalous"] is None


class MidCloseProbe(ShardFaultInjector):
    """Queries the frontend while the last shard is about to apply a window:
    shard 0 already serves the new window, the last shard the previous one."""

    def __init__(self, frontend):
        self.frontend = frontend
        self.seen = []

    def on_apply(self, shard_id, window):
        shards = self.frontend.supervisor.shards
        if window == 0:
            return
        fresh = next(iter(shards[0].engine.signatures))
        stale = next(iter(shards[-1].engine.signatures))
        paths = {
            "signature fresh": f"/signature/{fresh}",
            "anomaly fresh": f"/anomaly/{fresh}",
            "signature stale": f"/signature/{stale}",
            "similar": f"/similar/{fresh}",
            "status": "/status",
        }
        self.seen.append(
            {name: get_json(self.frontend, path)[2]["window"] for name, path in paths.items()}
        )


class TestWindowLabels:
    def test_answers_name_the_window_of_the_shard_that_answered(
        self, small_config, records_factory
    ):
        supervisor, frontend = build(small_config)
        probe = MidCloseProbe(frontend)
        supervisor.install_injector(small_config.num_shards - 1, probe)
        fill(frontend, records_factory)
        # Single-shard answers carry their shard's window; cross-shard
        # answers and /status carry the window every shard has applied.
        assert probe.seen == [
            {
                "signature fresh": w,
                "anomaly fresh": w,
                "signature stale": w - 1,
                "similar": w - 1,
                "status": w - 1,
            }
            for w in range(1, 4)
        ]


class TestDegradedAnswers:
    def test_wedged_shard_answers_approximately(self, small_config, records_factory):
        supervisor, frontend = build(small_config)
        supervisor.install_injector(0, WedgeShard(from_window=0))
        fill(frontend, records_factory)
        node = next(
            f"h{i}" for i in range(12) if supervisor.shard_for(f"h{i}") == 0
        )
        status, _headers, document = get_json(frontend, f"/signature/{node}")
        assert status == 200
        assert document["approximate"] is True

    @pytest.mark.parametrize("endpoint", ["signature", "anomaly"])
    def test_failed_exact_query_is_accounted_alike(
        self, small_config, records_factory, registry, endpoint
    ):
        supervisor, frontend = build(small_config)
        supervisor.install_injector(0, WedgeShard(from_window=0))
        fill(frontend, records_factory)
        node = next(
            f"h{i}" for i in range(12) if supervisor.shard_for(f"h{i}") == 0
        )
        state = supervisor.shards[0]
        buffer = io.StringIO()
        with obs.use_event_log(obs.EventLog(buffer, run_id="r")):
            status, headers, body = frontend.respond("GET", f"/{endpoint}/{node}")
        assert status == 200
        assert json.loads(body)["approximate"] is True
        assert registry.counter_value("shard.query_failures", shard="0") == 1
        assert registry.counter_total("shard.query_failures") == 1
        assert registry.counter_value("service.approximate_answers") == 1
        failed = [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
            if json.loads(line)["event"] == "service.query_failed"
        ]
        assert [(event["shard"], event["node"]) for event in failed] == [(0, node)]
        _status, _headers, trace = get_json(frontend, f"/trace/{headers['X-Trace-Id']}")
        children = {child["name"]: child for child in trace["spans"]["children"]}
        assert "wedged" in children["shard.query"]["error"]
        assert children["sketch.fallback"]["attrs"]["tier"] == "sketch"

    def test_degraded_shard_answers_approximately(self, small_config, records_factory):
        supervisor, frontend = build(small_config)
        supervisor.install_injector(
            2, KillShard(at_window=0, rebuild_failures=100)
        )
        fill(frontend, records_factory)
        node = next(
            f"h{i}" for i in range(12) if supervisor.shard_for(f"h{i}") == 2
        )
        status, _headers, document = get_json(frontend, f"/signature/{node}")
        assert status == 200
        assert document["approximate"] is True


    def test_failed_sketch_build_answers_down(self, small_config, records_factory, registry):
        supervisor, frontend = build(small_config)
        supervisor.install_injector(2, BreakSketch(at_window=3))
        fill(frontend, records_factory)
        node = next(
            f"h{i}" for i in range(12) if supervisor.shard_for(f"h{i}") == 2
        )
        state = supervisor.shards[2]
        # The exact tier serves, so no window closed so far built a sketch.
        assert state.health == HEALTH_HEALTHY and state.sketch is None
        open_breaker(state.breaker)
        buffer = io.StringIO()
        with obs.use_event_log(obs.EventLog(buffer, run_id="r")):
            status, _headers, document = get_json(frontend, f"/signature/{node}")
        assert status == 503
        assert document["health"] == HEALTH_DOWN
        assert state.health == HEALTH_DOWN
        assert registry.counter_value("shard.down_transitions", shard="2") == 1
        down = [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
            if json.loads(line)["event"] == "service.shard.down"
        ]
        assert [(event["shard"], event["window"]) for event in down] == [(2, 3)]
        assert registry.counter_value("service.approximate_answers") == 0

    def test_sketch_persistence_excursion_reaches_metrics(
        self, small_config, records_factory, registry, monkeypatch
    ):
        """Regression: the sketch tier counted an out-of-range distance on
        the request thread's (null) registry, so /metrics never showed it."""
        import repro.service.shard as shard_module

        monkeypatch.setattr(shard_module, "get_distance", lambda name: lambda a, b: 1.5)
        supervisor, frontend = build(small_config)
        records = records_factory(120, nodes=12, seed=5)
        offer(frontend, records)
        frontend.pump()
        # A source of shard 1 in both of the last two 30-record windows.
        node = next(
            record.src
            for record in records[90:]
            if supervisor.shard_for(record.src) == 1
            and record.src in {earlier.src for earlier in records[60:90]}
        )
        open_breaker(supervisor.shards[1].breaker)
        status, _headers, document = get_json(frontend, f"/anomaly/{node}")
        assert status == 200
        assert document["approximate"] is True
        assert document["persistence"] == 0.0
        _status, _headers, body = frontend.respond("GET", "/metrics")
        assert (
            'repro_distance_out_of_range_total{path="sketch.persistence",shard="1"} 1'
            in body
        )


class TestProtocol:
    def test_unknown_route_404(self, small_config):
        _supervisor, frontend = build(small_config)
        status, _headers, document = get_json(frontend, "/nope")
        assert status == 404
        assert "/status" in document["routes"]

    def test_method_not_allowed(self, small_config):
        _supervisor, frontend = build(small_config)
        status, _headers, _body = frontend.respond("POST", "/status")
        assert status == 404 or status == 405

    def test_get_ingest_rejected(self, small_config):
        _supervisor, frontend = build(small_config)
        status, _headers, _body = frontend.respond("GET", "/ingest")
        assert status in (404, 405)

    def test_deadline_504(self, small_config, records_factory, clock):
        config = small_config
        supervisor = ShardSupervisor(config)
        frontend = ServiceFrontend(supervisor, config, clock=clock)
        offer(frontend, records_factory(120, nodes=12, seed=5))
        frontend.pump()
        # from_window=-1: arm immediately (the injector is installed after
        # the last window closed, so it never sees an on_apply).
        slow = WedgeShard(from_window=-1, stall=lambda: clock.advance(10.0))
        supervisor.install_injector(0, slow)
        node = next(
            f"h{i}" for i in range(12) if supervisor.shard_for(f"h{i}") == 0
        )
        status, _headers, body = frontend.respond("GET", f"/signature/{node}")
        assert status == 504
        assert "deadline" in json.loads(body)["error"]

    def test_metrics_endpoint(self, small_config, records_factory, registry):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        get_json(frontend, "/status")
        status, headers, body = frontend.respond("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "service_requests" in body
        assert "shard_windows" in body

    def test_metrics_export_label_table_and_ingest_log_gauges(
        self, small_config, records_factory, registry
    ):
        supervisor, frontend = build(small_config)
        records = records_factory(120, nodes=12, seed=5)
        offer(frontend, records)
        frontend.pump()
        labels = {record.src for record in records} | {record.dst for record in records}
        frontend.respond("GET", "/metrics")
        gauges = {name: value for name, _labels, value in registry.snapshot()["gauges"]}
        # Distinct labels, not records; 24 column bytes per retained
        # record: the last window_buckets + 1 = 2 windows of 30.
        assert gauges["service.labels"] == len(labels) == len(supervisor.labels)
        assert gauges["service.ingest_log_bytes"] == 24 * 60
        offer(frontend, records_factory(120, nodes=12, seed=6, start=500.0))
        frontend.pump()
        _status, _headers, body = frontend.respond("GET", "/metrics")
        assert f"repro_service_labels {len(supervisor.labels)}" in body
        assert f"repro_service_ingest_log_bytes {24 * 60}" in body

    def test_status_service_rollup(self, small_config, records_factory):
        supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        assert get_json(frontend, "/status")[2]["service"] == "HEALTHY"
        supervisor.shards[1].health = "DEGRADED"
        supervisor.shards[1].engine = None
        assert get_json(frontend, "/status")[2]["service"] == "DEGRADED"
