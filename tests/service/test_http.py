"""The HTTP shell: a real server on an ephemeral port, end to end."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceConfig, ServiceServer, SignatureService


@pytest.fixture
def service(small_config, records_factory):
    service = SignatureService(small_config)
    service.ingest(records_factory(120, nodes=12, seed=5))
    service.pump()
    return service


def fetch(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def post(url, document):
    data = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestServer:
    def test_full_roundtrip(self, service):
        with ServiceServer(service, port=0) as server:
            status, document = fetch(f"{server.url}/status")
            assert status == 200
            assert document["service"] == "HEALTHY"
            assert document["window"] == 3

            node = next(iter(service.supervisor.shards[0].engine.signatures))
            status, document = fetch(f"{server.url}/signature/{node}")
            assert status == 200
            assert document["approximate"] is False

            status, document = fetch(f"{server.url}/similar/{node}?k=3")
            assert status == 200
            assert len(document["similar"]) <= 3

            status, document = post(
                f"{server.url}/ingest",
                {"records": [[500.0 + i, f"h{i % 6}", f"h{(i + 1) % 12}", 1.0]
                             for i in range(30)]},
            )
            assert status == 202
            assert document["accepted"] == 30
        # Exiting the context drains the queue: the window closed.
        assert service.supervisor.window == 4

    def test_rejected_ingest_adds_no_label(self, service):
        labels = service.supervisor.labels
        known = len(labels)
        with ServiceServer(service, port=0) as server:
            for number, weight in enumerate([-1.0, "x", float("nan")]):
                status, document = post(
                    f"{server.url}/ingest",
                    {"records": [[1.0, f"src-{number}", f"dst-{number}", weight]]},
                )
                assert status == 400, document
        assert len(labels) == known

    def test_unknown_route_over_http(self, service):
        with ServiceServer(service, port=0) as server:
            status, document = fetch(f"{server.url}/nope")
            assert status == 404

    def test_pump_thread_closes_windows(self, service, records_factory):
        with ServiceServer(service, port=0, pump_interval_s=0.01) as server:
            before = json.loads(
                urllib.request.urlopen(f"{server.url}/status", timeout=10)
                .read().decode("utf-8")
            )["window"]
            post(
                f"{server.url}/ingest",
                {
                    "records": [
                        [900.0 + i, f"h{i % 5}", f"h{(i + 2) % 12}", 1.0]
                        for i in range(30)
                    ]
                },
            )
            deadline = 100
            window = before
            while window == before and deadline:
                window = fetch(f"{server.url}/status")[1]["window"]
                deadline -= 1
            assert window == before + 1

    def test_handler_threads_inherit_event_log(self, small_config, tmp_path):
        """Handler threads get fresh contextvar contexts; the service
        installs the log active at its construction on them, so
        request-path events (trace-stamped completions) reach it —
        regression for events lost in live serving mode."""
        from repro import obs

        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path, run_id="http", level="debug")
        with log, obs.use_event_log(log):
            service = SignatureService(small_config)
            with ServiceServer(service, port=0) as server:
                request = urllib.request.Request(
                    f"{server.url}/status",
                    headers={"X-Trace-Id": "feed" * 8},
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    assert response.status == 200
        tagged = list(obs.read_events(path, trace_id="feed" * 8))
        assert any(e["event"] == "service.request.done" for e in tagged)

    def test_server_refuses_double_start(self, service):
        server = ServiceServer(service, port=0)
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()
        assert not server.running

    def test_stopping_an_idle_server_wakes_its_listener(self, service):
        # The listener blocks with no timeout; stop wakes it rather than
        # waiting for a poll to come round.
        server = ServiceServer(service, port=0).start()
        name = f"repro-service-server:{server.port}"
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.05
        assert name not in {thread.name for thread in threading.enumerate()}
