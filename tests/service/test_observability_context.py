"""One observability context per service: every thread that runs service
code — the constructor, the pump thread, HTTP handler threads and any
caller of ``respond`` — records into the service's one registry and one
event log, and per-shard series keep their ``shard`` label."""

import json
import re
import sys
import threading
import time
import urllib.request

from repro import obs
from repro.service import KillShard, ServiceConfig, ServiceServer, SignatureService

#: Two shards, 30-record windows: 120 records close four windows.
CONFIG = ServiceConfig(num_shards=2, window_records=30, queue_capacity=240, k=5)


def session(service, records):
    """Four windows, then every query endpoint from a worker thread, whose
    context holds no registry or event log of its own.  Returns the
    ``/metrics`` text the worker scraped last."""
    assert service.ingest(records)
    service.pump()
    node = records[-1].src
    scraped = []

    def worker():
        for path in (
            f"/history/{node}", f"/similar/{node}?k=3", f"/signature/{node}",
            f"/trajectory/{node}", f"/anomaly/{node}", "/slo", "/status",
        ):
            status, _headers, _body = service.respond("GET", path)
            assert status == 200, path
        scraped.append(service.respond("GET", "/metrics")[2])

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    (text,) = scraped
    assert obs.validate_prometheus(text) == []
    return text


def series(text):
    """``{(name, label keys)}`` of the samples in a Prometheus text."""
    found = set()
    for match in re.finditer(r"^(\w+)(?:\{([^}]*)\})? ", text, re.MULTILINE):
        keys = tuple(sorted(re.findall(r'(\w+)="', match.group(2) or "")))
        found.add((match.group(1), keys))
    return found


def span_paths(text):
    return re.findall(r'^repro_span_seconds_count\{path="([^"]*)"\} \d+$', text, re.MULTILINE)


class TestOneRegistry:
    def test_request_threads_reach_metrics(self, tmp_path, records_factory):
        """Store and kernel counters and request spans recorded on a
        worker thread reach ``/metrics``, store counters under the
        answering shard's label."""
        service = SignatureService(CONFIG, history_dir=tmp_path)
        text = session(service, records_factory(120, nodes=12, seed=5))
        for name in ("repro_store_index_probes_total", "repro_store_rows_considered_total"):
            shards = re.findall(rf'^{name}\{{shard="(\d+)"\}} ', text, re.MULTILINE)
            assert shards, name
        assert "repro_kernel_calls_total{" in text
        paths = span_paths(text)
        assert any(path.startswith("service.request{endpoint=/similar}") for path in paths)
        assert any(
            re.search(r"/similar\.gather\{shard=\d\}/kernel\.signature", path) for path in paths
        ), paths
        service.close()

    def test_metrics_keep_the_series_and_label_keys(self, tmp_path, records_factory):
        """Every series the per-shard registries exported is still there,
        with the same label keys (``shard.breaker_state`` is gone: it
        copied ``breaker.state``)."""
        service = SignatureService(CONFIG, history_dir=tmp_path)
        text = session(service, records_factory(120, nodes=12, seed=5))
        expected = {
            ("repro_incremental_dirty_nodes_total", ("scheme", "shard")),
            ("repro_incremental_reused_signatures_total", ("scheme", "shard")),
            ("repro_service_requests_total", ("route",)),
            ("repro_service_windows_total", ()),
            ("repro_shard_checkpoint_writes_total", ("shard",)),
            ("repro_shard_records_total", ("shard",)),
            ("repro_shard_windows_total", ("shard",)),
            ("repro_store_appends_total", ("shard",)),
            ("repro_store_rows_appended_total", ("shard",)),
            ("repro_breaker_state", ("shard",)),
            ("repro_service_ingest_log_bytes", ()),
            ("repro_service_labels", ()),
            ("repro_shard_edges", ("shard",)),
            ("repro_shard_nodes", ("shard",)),
            ("repro_store_bytes", ("shard",)),
            ("repro_store_segments", ("shard",)),
            ("repro_breaker_latency_s_count", ("outcome", "shard")),
            ("repro_service_latency_s_count", ("endpoint",)),
        }
        assert expected <= series(text)
        assert "shard_breaker_state" not in text
        dirty = re.findall(r"^repro_incremental_dirty_nodes_total\{[^}]*\} (\S+)$", text, re.M)
        assert dirty and all(float(value) > 0 for value in dirty)
        service.close()

    def test_adopts_the_callers_collecting_registry(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            service = SignatureService(CONFIG)
        service.respond("GET", "/status")
        assert registry.counter_value("service.requests", route="/status") == 1
        # With no collecting registry active, the service keeps its own.
        other = SignatureService(CONFIG)
        other.respond("GET", "/status")
        assert registry.counter_value("service.requests", route="/status") == 1
        assert "repro_service_requests_total" in other.respond("GET", "/metrics")[2]

    def test_breached_objective_fires_an_alert_counter(self, records_factory):
        """``/slo`` feeds the alert manager on the request thread; its
        ``alerts.fired`` counter lands in the service's registry."""
        config = ServiceConfig(
            num_shards=2, window_records=30, queue_capacity=240, k=5,
            slo_availability=None, slo_similar_p99_s=1e-9,
        )
        service = SignatureService(config)
        records = records_factory(120, nodes=12, seed=5)
        assert service.ingest(records)
        service.pump()
        results = []

        def worker():
            for _ in range(3):
                service.respond("GET", f"/similar/{records[-1].src}?k=3")
            # The burn-rate rule debounces over two evaluations.
            results.extend(json.loads(service.respond("GET", "/slo")[2]) for _ in range(2))
            results.append(service.respond("GET", "/metrics")[2])

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        *reports, text = results
        (objective,) = reports[-1]["objectives"]
        assert (objective["name"], objective["verdict"]) == ("similar-p99", "fail")
        assert 'repro_alerts_fired_total{rule="slo-similar-p99"} 1' in text


class TestConcurrentRecording:
    def test_request_threads_share_one_registry_without_losing_counts(
        self, records_factory
    ):
        """More request threads than cores, switching often, record into the
        one registry: every request is counted once, per route, and no
        shard scope of one thread leaks a label onto another's series."""
        service = SignatureService(CONFIG)
        records = records_factory(120, nodes=12, seed=5)
        assert service.ingest(records)
        service.pump()
        paths = ["/signature/h1", "/similar/h2?k=3", "/anomaly/h3", "/status"]
        threads, rounds = 8, 25

        def load():
            for _ in range(rounds):
                for path in paths:
                    service.respond("GET", path)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=load) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        text = service.respond("GET", "/metrics")[2]
        requests = {
            route: float(value)
            for route, value in re.findall(
                r'^repro_service_requests_total\{route="([^"]*)"\} (\S+)$', text, re.MULTILINE
            )
        }
        assert requests == {
            "/signature": threads * rounds,
            "/similar": threads * rounds,
            "/anomaly": threads * rounds,
            "/status": threads * rounds,
            "/metrics": 1,
        }
        latency = re.findall(
            r'^repro_service_latency_s_count\{endpoint="([^"]*)"\} (\S+)$', text, re.MULTILINE
        )
        assert sum(float(count) for _endpoint, count in latency) == threads * rounds * len(paths)


class TestOneEventLog:
    def test_pump_thread_crash_and_restart_reach_the_log(
        self, tmp_path, records_factory
    ):
        """A shard crash on the pump thread, and its supervised restart,
        land in the event log that was active when the service was built."""
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path, run_id="svc", level="debug")
        with log, obs.use_event_log(log):
            service = SignatureService(CONFIG)
            assert service.ingest(records_factory(60, nodes=12, seed=5))
            service.pump()
            service.supervisor.install_injector(1, KillShard(at_window=2))
            with ServiceServer(service, port=0) as server:
                rows = [
                    [record.time, record.src, record.dst, record.weight]
                    for record in records_factory(30, nodes=12, seed=6, start=60.0)
                ]
                request = urllib.request.Request(
                    f"{server.url}/ingest",
                    data=json.dumps({"records": rows}).encode("utf-8"),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    assert response.status == 202
                deadline = time.monotonic() + 10.0
                while service.supervisor.window < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert service.supervisor.shards[1].restarts == 1
        events = [event["event"] for event in obs.read_events(path)]
        assert "service.shard.crashed" in events
        assert "service.shard.restarted" in events
        assert events.index("service.shard.crashed") < events.index("service.shard.restarted")


class TestPerShardLabels:
    def test_store_segments_gauge_per_shard(self, tmp_path, records_factory):
        """Shard 1 stays DEGRADED from window 2, so its store holds fewer
        segments than shard 0's; each ``store.segments{shard}`` gauge is
        its own store's count — after the windows close, and as soon as a
        restarted process opens the stores."""

        def gauges(service):
            text = service.respond("GET", "/metrics")[2]
            return {
                int(shard): float(value)
                for shard, value in re.findall(
                    r'^repro_store_segments\{shard="(\d+)"\} (\S+)$', text, re.MULTILINE
                )
            }

        def live_segments(service):
            return {
                state.shard_id: float(len(state.store.history.segment_records()))
                for state in service.supervisor.shards
            }

        service = SignatureService(CONFIG, history_dir=tmp_path)
        service.supervisor.install_injector(1, KillShard(at_window=2, rebuild_failures=100))
        assert service.ingest(records_factory(120, nodes=12, seed=5))
        service.pump()
        counts = live_segments(service)
        assert counts[0] > counts[1] > 0
        assert gauges(service) == counts
        service.close()

        restarted = SignatureService(CONFIG, history_dir=tmp_path)
        assert live_segments(restarted) == counts
        assert gauges(restarted) == counts
