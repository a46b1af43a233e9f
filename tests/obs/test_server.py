"""Tests for the live /metrics endpoint, including scrape-during-update.

The concurrency test is the acceptance check for the live layer: a thread
hammering ``/metrics`` while a fig1 run mutates the registry must always
receive parseable exposition text with internally consistent histogram
summaries (snapshots are taken under the registry lock, so a scrape can
never see a half-updated digest).
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, ObsServer


def get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers, response.read().decode("utf-8")


@pytest.fixture
def registry():
    registry = obs.MetricsRegistry()
    registry.counter("pipeline.windows", mode="exact").inc(2)
    registry.gauge("parallel.workers").set(3)
    registry.histogram("latency").observe(0.5)
    return registry


@pytest.fixture
def server(registry):
    store = obs.TimeSeriesStore()
    store.sample(registry, t=1.0)
    with ObsServer(registry, store=store, meta={"command": "test"}) as server:
        yield server


class TestRoutes:
    def test_metrics_is_valid_prometheus(self, server):
        status, headers, body = get(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert obs.validate_prometheus(body) == []
        assert "repro_pipeline_windows_total" in body

    def test_healthz(self, server):
        status, _headers, body = get(f"{server.url}/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["requests"] >= 1
        assert health["series"] > 0

    def test_snapshot_json_is_schema_valid(self, server):
        _status, _headers, body = get(f"{server.url}/snapshot.json")
        payload = json.loads(body)
        assert payload["meta"] == {"command": "test"}
        assert obs.validate_payload(payload) == []

    def test_series_json(self, server):
        _status, _headers, body = get(f"{server.url}/series.json")
        series = json.loads(body)["series"]
        assert series["parallel.workers"] == [[1.0, 3.0]]

    def test_series_json_without_store(self, registry):
        with ObsServer(registry) as server:
            _status, _headers, body = get(f"{server.url}/series.json")
            assert json.loads(body) == {"series": {}}

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{server.url}/nope")
        assert excinfo.value.code == 404
        assert "/metrics" in excinfo.value.read().decode()

    def test_scrapes_are_counted_on_the_registry(self, registry, server):
        get(f"{server.url}/metrics")
        assert registry.counter_value("obs.server.requests", route="/metrics") >= 1


class TestLifecycle:
    def test_ephemeral_port_bound_and_reported(self, registry):
        server = ObsServer(registry, port=0)
        server.start()
        try:
            assert server.port != 0
            assert server.running
        finally:
            server.stop()
        assert not server.running

    def test_double_start_rejected(self, registry):
        with ObsServer(registry) as server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_stop_is_idempotent(self, registry):
        server = ObsServer(registry).start()
        server.stop()
        server.stop()

    def test_lifecycle_logged(self, registry):
        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="r", clock=lambda: 0.0)
        with obs.use_event_log(log):
            with ObsServer(registry):
                pass
        events = [json.loads(line)["event"] for line in buffer.getvalue().splitlines()]
        assert events == ["obs.server.started", "obs.server.stopped"]

    def test_internal_error_answers_500(self, registry):
        class ExplodingRegistry:
            def counter(self, name, **labels):
                return registry.counter(name, **labels)

            def snapshot(self):
                raise RuntimeError("kaboom")

        with ObsServer(ExplodingRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(f"{server.url}/metrics")
            assert excinfo.value.code == 500
            assert "kaboom" in excinfo.value.read().decode()


class TestScrapeDuringUpdate:
    """Satellite: concurrent scrape while a real experiment mutates the
    registry must always yield parseable, internally consistent text."""

    def test_fig1_run_under_scrape_hammer(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig1_properties import run_fig1

        registry = obs.MetricsRegistry()
        scrapes = []
        errors = []
        done = threading.Event()

        with ObsServer(registry) as server:
            def hammer():
                while not done.is_set():
                    try:
                        _status, _headers, body = get(f"{server.url}/metrics")
                    except Exception as error:  # noqa: BLE001 - recorded below
                        errors.append(repr(error))
                        return
                    scrapes.append(body)

            scraper = threading.Thread(target=hammer)
            scraper.start()
            try:
                with obs.use_registry(registry):
                    run_fig1("network", ExperimentConfig(scale="small"))
            finally:
                done.set()
                scraper.join()
            final = get(f"{server.url}/metrics")[2]

        assert not errors, f"scrape failed mid-run: {errors}"
        assert len(scrapes) > 0
        for body in scrapes + [final]:
            problems = obs.validate_prometheus(body)
            assert problems == [], f"inconsistent scrape: {problems}"
        # The run actually produced kernel traffic visible to scrapers.
        assert "repro_kernel_calls_total" in final

    def test_direct_mutation_under_scrape_hammer(self):
        """Cheaper variant hammering a histogram + counters directly."""
        registry = obs.MetricsRegistry()
        done = threading.Event()
        bad = []

        def mutate():
            histogram = registry.histogram("work")
            counter = registry.counter("work.calls")
            step = 0
            while not done.is_set():
                histogram.observe((step % 7) / 5.0)
                counter.inc()
                step += 1

        with ObsServer(registry) as server:
            writer = threading.Thread(target=mutate)
            writer.start()
            try:
                for _ in range(30):
                    body = get(f"{server.url}/metrics")[2]
                    problems = obs.validate_prometheus(body)
                    if problems:
                        bad.append(problems)
            finally:
                done.set()
                writer.join()
        assert bad == []


def test_stopping_an_idle_server_wakes_its_listener(registry):
    # The listener blocks with no timeout; stop wakes it rather than
    # waiting for a poll to come round.
    server = ObsServer(registry).start()
    name = f"repro-obs-server:{server.port}"
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 0.05
    assert name not in {thread.name for thread in threading.enumerate()}
