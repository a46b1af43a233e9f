"""Concurrent access: readers hammer the service while ingest advances.

The design claim under test (see :mod:`repro.service.http`): all shard
mutation happens on the single pump thread, so any number of reader
threads see *consistent snapshots* — a signature response is always one
complete window's signature (never a half-built dict), and ``/status``
never reports an impossible state.
"""

import json
import sys
import threading
import time

import pytest

from repro.service import KillShard, SignatureService, SketchTier

HEALTHS = {"HEALTHY", "DEGRADED", "DOWN"}


@pytest.fixture
def service(small_config, records_factory):
    service = SignatureService(small_config)
    assert service.ingest(records_factory(60, nodes=12, seed=5))
    service.pump()
    return service


def hammer(service, paths, stop, failures):
    """Loop over ``paths`` until ``stop`` is set, recording any violation."""
    seen_windows = {}
    while not stop.is_set():
        for path in paths:
            try:
                status, _headers, body = service.respond("GET", path)
                check_response(path, status, body, seen_windows)
            except Exception as error:  # noqa: BLE001 - collected for the assert
                failures.append(f"{path}: {error!r}")
                return


def check_response(path, status, body, seen_windows):
    # 503 is the documented shedding answer while the queue is hot — valid
    # under concurrent ingest, as long as it parses and carries the reason.
    if status not in (200, 404, 503):
        raise AssertionError(f"unexpected status {status}")
    document = json.loads(body)
    if status == 503:
        if "error" not in document:
            raise AssertionError("503 without an error field")
        return
    if path == "/status" and status == 200:
        if document["service"] not in HEALTHS:
            raise AssertionError(f"bad service health {document['service']}")
        # Windows only move forward: a later read on this thread must never
        # see a shard go backwards (reads are lock-free, so one snapshot may
        # straddle pump cycles — but time never reverses).
        for shard in document["shards"]:
            if shard["health"] not in HEALTHS:
                raise AssertionError(f"bad shard health {shard['health']}")
            last = seen_windows.get(shard["shard"], -1)
            if shard["window"] < last:
                raise AssertionError(
                    f"shard {shard['shard']} window went backwards: "
                    f"{last} -> {shard['window']}"
                )
            seen_windows[shard["shard"]] = shard["window"]
    elif path.startswith("/signature/") and status == 200:
        if not isinstance(document["signature"], dict):
            raise AssertionError("signature is not a mapping")
        if document["approximate"] is False and not document["signature"]:
            raise AssertionError("exact answer with empty signature")
        for dst, weight in document["signature"].items():
            if not isinstance(dst, str) or not isinstance(weight, (int, float)):
                raise AssertionError(f"malformed entry {dst!r}: {weight!r}")


class RecordingKill(KillShard):
    """An exact engine that never comes back, recording sketch builds."""

    def __init__(self):
        super().__init__(at_window=0, rebuild_failures=10**9)
        self.builds = []

    def on_sketch(self, shard_id, window):
        self.builds.append(window)


class TestConcurrentReads:
    def test_concurrent_degraded_reads_build_each_window_once(
        self, small_config, records_factory
    ):
        """Readers that race for a shard's sketch tier build each window's
        tier once, and every answer is the sketch of the window it names."""
        service = SignatureService(small_config)
        injector = RecordingKill()
        service.supervisor.install_injector(0, injector)
        nodes = [f"h{i}" for i in range(12) if service.supervisor.shard_for(f"h{i}") == 0]
        stop, answers = threading.Event(), []

        def read():
            while not stop.is_set():
                for node in nodes:
                    status, _headers, body = service.respond("GET", f"/signature/{node}")
                    if status == 200:
                        answers.append((node, json.loads(body)))

        readers = [threading.Thread(target=read, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for step in range(20):
                assert service.ingest(
                    records_factory(30, nodes=12, seed=step, start=100.0 * step)
                )
                assert service.pump() == 1
                time.sleep(0.005)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert answers and injector.builds
        assert len(injector.builds) == len(set(injector.builds))
        state = service.supervisor.shards[0]
        tiers = {}
        for node, document in answers:
            window = document["window"]
            if window not in tiers:
                tiers[window] = SketchTier(small_config, state.buckets[:window + 1], window)
            want = tiers[window].current.signature(node)
            assert document["approximate"] is True
            assert document["signature"] == {str(dst): w for dst, w in want.entries}

    def test_readers_see_consistent_snapshots_during_ingest(
        self, service, records_factory
    ):
        stop = threading.Event()
        failures = []
        nodes = [f"h{i}" for i in range(12)]
        readers = [
            threading.Thread(
                target=hammer,
                args=(
                    service,
                    [f"/signature/{node}" for node in nodes[offset::4]]
                    + ["/status"],
                    stop,
                    failures,
                ),
                daemon=True,
            )
            for offset in range(4)
        ]
        for reader in readers:
            reader.start()
        try:
            # Advance 20 windows under the readers' feet.
            for step in range(20):
                batch = records_factory(
                    30, nodes=12, seed=step, start=100.0 * step
                )
                assert service.ingest(batch)
                assert service.pump() == 1
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
        assert not failures, failures
        assert service.supervisor.window == 21

    def test_concurrent_status_and_ingest_over_http_pump_thread(
        self, service, records_factory
    ):
        """Same race, but with the real background pump thread mutating."""
        stop = threading.Event()
        failures = []
        reader = threading.Thread(
            target=hammer,
            args=(service, ["/status", "/signature/h0"], stop, failures),
            daemon=True,
        )
        service.start_pump(interval_s=0.001)
        reader.start()
        try:
            for step in range(10):
                batch = records_factory(
                    30, nodes=12, seed=100 + step, start=5000.0 + 100.0 * step
                )
                # Honour backpressure like a real client: retry until the
                # pump frees queue space.
                for _ in range(1000):
                    if service.ingest(batch):
                        break
                    time.sleep(0.001)
                else:
                    pytest.fail("queue never drained")
        finally:
            stop.set()
            reader.join(timeout=10)
            service.stop_pump(drain=True)
        assert not failures, failures
        assert service.supervisor.window == 11


class TestPumpThread:
    def test_idle_pump_closes_a_window_as_soon_as_it_fills(
        self, service, records_factory
    ):
        # A poll interval far longer than the deadline below: only the
        # wake-up on arrival can close the window in time.
        service.start_pump(interval_s=60.0)
        try:
            time.sleep(0.05)  # let the pump go idle
            assert service.ingest(records_factory(30, nodes=12, seed=9, start=1000.0))
            deadline = time.monotonic() + 5.0
            while service.supervisor.window < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.supervisor.window == 2
        finally:
            stopping = time.monotonic()
            service.stop_pump(drain=False)
        assert time.monotonic() - stopping < 5.0
