"""End-to-end tracing and SLO behavior at the service edge: trace ids in
and out, span trees for scatter-gather, /trace and /slo endpoints, breaker
and latency histograms in /metrics."""

import json
import math
import random
import re

import pytest

from repro import obs
from repro.obs.digest import DEFAULT_RELATIVE_ACCURACY, EXPORT_QUANTILES
from repro.graph.batch import RecordBatch
from repro.service import (
    ServiceConfig,
    ServiceFrontend,
    ShardSupervisor,
    SignatureService,
    WedgeShard,
    service_objectives,
)


def build(config, clock=None):
    supervisor = ShardSupervisor(config)
    kwargs = {"clock": clock} if clock is not None else {}
    return supervisor, ServiceFrontend(supervisor, config, **kwargs)


def fill(frontend, records_factory, count=120, seed=5):
    records = records_factory(count, nodes=12, seed=seed)
    frontend.queue.offer(RecordBatch.from_records(records, frontend.supervisor.labels))
    frontend.pump()


def get_trace(frontend, trace_id):
    status, _headers, body = frontend.respond("GET", f"/trace/{trace_id}")
    return status, json.loads(body)


class TestTraceHeaders:
    def test_every_response_carries_trace_and_request_ids(self, small_config):
        _supervisor, frontend = build(small_config)
        _status, headers, _body = frontend.respond("GET", "/status")
        assert len(headers["X-Trace-Id"]) == 32
        assert len(headers["X-Request-Id"]) == 16

    def test_incoming_trace_id_is_honored(self, small_config):
        _supervisor, frontend = build(small_config)
        _s, headers, _b = frontend.respond(
            "GET", "/status", headers={"X-Trace-Id": "cafe" * 8}
        )
        assert headers["X-Trace-Id"] == "cafe" * 8
        # ... case-insensitively, as HTTP headers arrive.
        _s, headers, _b = frontend.respond(
            "GET", "/status", headers={"x-trace-id": "beef" * 8}
        )
        assert headers["X-Trace-Id"] == "beef" * 8

    def test_distinct_requests_get_distinct_ids(self, small_config):
        _supervisor, frontend = build(small_config)
        first = frontend.respond("GET", "/status")[1]["X-Trace-Id"]
        second = frontend.respond("GET", "/status")[1]["X-Trace-Id"]
        assert first != second


class TestTraceEndpoint:
    def test_similar_scatter_gather_span_tree(
        self, small_config, records_factory
    ):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        status, headers, _body = frontend.respond("GET", "/similar/h1?k=3")
        assert status == 200
        t_status, trace = get_trace(frontend, headers["X-Trace-Id"])
        assert t_status == 200
        assert trace["request_id"] == headers["X-Request-Id"]
        root = trace["spans"]
        assert root["name"] == "service.request"
        assert root["attrs"]["endpoint"] == "/similar"
        names = [child["name"] for child in root["children"]]
        assert "shard.query" in names  # the target node's own signature
        gathers = [c for c in root["children"] if c["name"] == "similar.gather"]
        assert len(gathers) == small_config.num_shards
        assert {g["attrs"]["shard"] for g in gathers} == {"0", "1", "2"}

    def test_similar_gather_traces_its_kernel_call(self, small_config, records_factory):
        # A span opened below the frontend (here the distance kernel the
        # shard index runs) joins the request's tree under its caller.
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        _status, headers, _body = frontend.respond("GET", "/similar/h1?k=3")
        _t, trace = get_trace(frontend, headers["X-Trace-Id"])
        gathers = [c for c in trace["spans"]["children"] if c["name"] == "similar.gather"]
        assert gathers
        for gather in gathers:
            [kernel] = gather["children"]
            assert kernel["name"] == "kernel.signature"
            assert kernel["attrs"]["path"] == "batch"

    def test_sketch_fallback_span_when_shard_degraded(
        self, small_config, records_factory
    ):
        supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        shard = supervisor.shard_for("h1")
        supervisor.shards[shard].health = "DEGRADED"
        supervisor.shards[shard].engine = None
        status, headers, body = frontend.respond("GET", "/signature/h1")
        assert status == 200
        assert json.loads(body)["approximate"] is True
        _t, trace = get_trace(frontend, headers["X-Trace-Id"])
        names = [child["name"] for child in trace["spans"]["children"]]
        assert "sketch.fallback" in names

    def test_missing_and_unknown_trace_404(self, small_config):
        _supervisor, frontend = build(small_config)
        status, record = get_trace(frontend, "doesnotexist")
        assert status == 404
        assert "capacity" in record
        status, _headers, _body = frontend.respond("GET", "/trace/")
        assert status == 404

    def test_store_respects_configured_capacity(self, small_config):
        config = ServiceConfig(
            num_shards=small_config.num_shards,
            window_records=small_config.window_records,
            trace_store_size=2,
        )
        _supervisor, frontend = build(config)
        ids = [
            frontend.respond("GET", "/status")[1]["X-Trace-Id"]
            for _ in range(5)
        ]
        assert len(frontend.traces) == 2
        assert get_trace(frontend, ids[0])[0] == 404
        assert get_trace(frontend, ids[-1])[0] == 200

    def test_deadline_expiry_skips_remaining_gather(
        self, small_config, records_factory, clock
    ):
        """Once the edge deadline passes, the gather loop stops fanning out
        — the trace shows zero gather spans even though the handler ran."""
        supervisor = ShardSupervisor(small_config)
        frontend = ServiceFrontend(supervisor, small_config, clock=clock)
        fill(frontend, records_factory)
        # Wedge h1's home shard: fetching h1's own signature burns the
        # whole request budget before the fan-out starts.
        home = supervisor.shard_for("h1")
        supervisor.install_injector(
            home, WedgeShard(from_window=-1, stall=lambda: clock.advance(10.0))
        )
        status, headers, _body = frontend.respond("GET", "/similar/h1?k=3")
        assert status == 504
        _t, trace = get_trace(frontend, headers["X-Trace-Id"])
        children = trace["spans"]["children"]
        assert any(c["name"] == "shard.query" for c in children)
        assert not any(c["name"] == "similar.gather" for c in children)


class TestSLOEndpoint:
    def test_slo_reports_objectives_and_verdicts(
        self, small_config, records_factory
    ):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        for _ in range(10):
            frontend.respond("GET", "/similar/h1?k=3")
        status, _headers, body = frontend.respond("GET", "/slo")
        assert status == 200
        report = json.loads(body)
        entries = {e["name"]: e for e in report["objectives"]}
        assert entries["availability"]["verdict"] == "pass"
        similar = entries["similar-p99"]
        assert similar["endpoint"] == "/similar"
        assert similar["windows"][0]["total"] == 10
        for entry in report["objectives"]:
            assert entry["verdict"] in ("pass", "fail"), entry["name"]
            assert "burn_rate" in entry, entry["name"]
        assert report["alerts_firing"] == []

    def test_five_hundreds_burn_availability_budget(
        self, small_config, records_factory, clock
    ):
        supervisor = ShardSupervisor(small_config)
        frontend = ServiceFrontend(supervisor, small_config, clock=clock)
        fill(frontend, records_factory)
        slow = WedgeShard(from_window=-1, stall=lambda: clock.advance(10.0))
        supervisor.install_injector(0, slow)
        node = next(
            f"h{i}" for i in range(12) if supervisor.shard_for(f"h{i}") == 0
        )
        assert frontend.respond("GET", f"/signature/{node}")[0] == 504
        report = json.loads(frontend.respond("GET", "/slo")[2])
        entries = {e["name"]: e for e in report["objectives"]}
        assert entries["availability"]["worst_burn_rate"] > 1.0
        assert entries["availability"]["verdict"] == "fail"

    def test_service_objectives_respect_config(self):
        config = ServiceConfig(slo_similar_p99_s=None, slo_availability=0.99)
        objectives = service_objectives(config)
        assert [o.name for o in objectives] == ["availability"]
        assert objectives[0].target == 0.99
        none_config = ServiceConfig(
            slo_similar_p99_s=None, slo_availability=None
        )
        assert service_objectives(none_config) == []
        status, _h, body = ServiceFrontend(
            ShardSupervisor(none_config), none_config
        ).respond("GET", "/slo")
        assert status == 200
        assert json.loads(body)["objectives"] == []


class TestBreakerDigests:
    def test_metrics_export_per_shard_breaker_digests(
        self, small_config, records_factory, registry
    ):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        for _ in range(5):
            frontend.respond("GET", "/signature/h1")
        snapshot = registry.snapshot()
        breaker = [
            (labels, state)
            for name, labels, state in snapshot["histograms"]
            if name == "breaker.latency_s" and labels["outcome"] == "success"
        ]
        shards = {labels["shard"] for labels, _state in breaker}
        assert shards == {"0", "1", "2"}
        # The cross-shard view folds the per-shard digests losslessly.
        merged = obs.LatencyDigest()
        for _labels, state in breaker:
            merged.merge(obs.LatencyDigest.from_dict(state))
        assert merged.count == sum(state["count"] for _labels, state in breaker)
        assert merged.count > 0
        gauges = {
            (name, labels.get("shard")): value
            for name, labels, value in snapshot["gauges"]
        }
        assert gauges[("breaker.state", "0")] == 0.0  # CLOSED

    def test_breaker_state_gauge_tracks_transitions(self, small_config, clock, registry):
        from repro.service import STATE_CODES, CircuitBreaker

        breaker = CircuitBreaker(small_config.breaker, clock=clock)
        for _ in range(4):
            breaker.record_failure(0.01)
        gauges = {name: value for name, _l, value in registry.snapshot()["gauges"]}
        assert gauges["breaker.state"] == STATE_CODES["OPEN"]
        (state,) = [
            state
            for name, labels, state in registry.snapshot()["histograms"]
            if name == "breaker.latency_s" and labels["outcome"] == "failure"
        ]
        assert state["count"] == 4

    def test_prometheus_scrape_includes_service_digests(
        self, small_config, records_factory, registry
    ):
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        frontend.respond("GET", "/similar/h1?k=3")
        _status, _headers, text = frontend.respond("GET", "/metrics")
        assert obs.validate_prometheus(text) == []
        assert 'repro_service_latency_s{endpoint="/similar",quantile="0.99"}' in text


class TestMetricsExposition:
    def test_every_distribution_is_a_summary(self, small_config, records_factory, registry):
        """``/metrics`` after N requests over several endpoints: summaries
        only, per-endpoint latency counts that add up to N (unrouted paths
        included), and one breaker summary per shard."""
        assert small_config.num_shards >= 2
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        paths = [
            "/status", "/signature/h1", "/similar/h1?k=3", "/anomaly/h2",
            "/slo", "/no-such-route",
        ]
        requests = 0
        for _ in range(4):
            for path in paths:
                frontend.respond("GET", path)
                requests += 1
        _status, _headers, text = frontend.respond("GET", "/metrics")

        assert obs.validate_prometheus(text) == []
        assert "_bucket" not in text
        assert not re.search(r"^# TYPE \S+ histogram$", text, re.MULTILINE)
        counts = {
            match.group(1): float(match.group(2))
            for match in re.finditer(
                r'^repro_service_latency_s_count\{endpoint="([^"]*)"\} (\S+)$',
                text, re.MULTILINE,
            )
        }
        assert {"/status", "/signature", "/similar", "/anomaly", "/slo", "unknown"} <= set(counts)
        assert sum(counts.values()) == requests
        assert "repro_service_request_s" not in text

        assert "# TYPE repro_breaker_latency_s summary" in text
        shards = set(re.findall(
            r'^repro_breaker_latency_s\{outcome="success",quantile="0\.99",shard="(\d+)"\} ',
            text, re.MULTILINE,
        ))
        assert shards == {str(shard) for shard in range(small_config.num_shards)}


class TestLatencyDigests:
    def test_signature_quantiles_within_relative_accuracy(
        self, small_config, records_factory, clock, registry
    ):
        """Each exported ``/signature`` quantile lies within the digest's
        relative accuracy of the exact order statistic it targets.

        Every exact query stalls the manual clock by a seeded lognormal
        delay and nothing else moves it, so each request's latency is
        known exactly."""
        supervisor, frontend = build(small_config, clock)
        fill(frontend, records_factory)
        rng = random.Random(23)
        latencies = []

        def stall():
            started = clock()
            clock.advance(rng.lognormvariate(math.log(0.005), 1.0))
            latencies.append(clock() - started)

        for shard in range(small_config.num_shards):
            supervisor.install_injector(
                shard, WedgeShard(from_window=-1, stall=stall)
            )
        for _ in range(400):
            frontend.respond("GET", f"/signature/h{rng.randrange(12)}")
        (state,) = [
            state
            for name, labels, state in registry.snapshot()["histograms"]
            if name == "service.latency_s" and labels["endpoint"] == "/signature"
        ]
        digest = obs.LatencyDigest.from_dict(state)
        exact = sorted(latencies)
        assert digest.count == len(exact) == 400
        assert (digest.min, digest.max) == (exact[0], exact[-1])
        for q in EXPORT_QUANTILES:
            truth = exact[math.ceil(q * (len(exact) - 1))]
            error = abs(digest.quantile(q) - truth) / truth
            assert error <= DEFAULT_RELATIVE_ACCURACY, (q, error)


class TestEventLogCorrelation:
    def test_service_events_carry_trace_ids(
        self, small_config, records_factory, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        _supervisor, frontend = build(small_config)
        fill(frontend, records_factory)
        log = obs.EventLog(path, run_id="svc", level="debug")
        with log, obs.use_event_log(log):
            frontend.respond(
                "GET", "/similar/h1?k=3", headers={"X-Trace-Id": "f00d" * 8}
            )
            frontend.respond("GET", "/status")
        tagged = list(obs.read_events(path, trace_id="f00d" * 8))
        assert tagged, "request-path events should be stamped with the trace"
        assert all(e["trace_id"] == "f00d" * 8 for e in tagged)
        assert any(
            e["event"] == "service.request.done" and e["status"] == 200
            for e in tagged
        )
        # The /status request got its own trace id, not f00d's.
        others = [
            e
            for e in obs.read_events(path)
            if e.get("trace_id") not in (None, "f00d" * 8)
        ]
        assert others


class TestServiceWiring:
    def test_signature_service_headers_passthrough(
        self, small_config, records_factory
    ):
        service = SignatureService(small_config)
        service.ingest(records_factory(120, nodes=12, seed=5))
        service.pump()
        status, headers, _body = service.respond(
            "GET", "/signature/h1", headers={"X-Trace-Id": "abcd" * 8}
        )
        assert headers["X-Trace-Id"] == "abcd" * 8
        t_status, _h, _b = service.respond("GET", "/trace/" + "abcd" * 8)
        assert t_status == 200
