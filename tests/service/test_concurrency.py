"""Concurrent access: readers hammer the service while ingest advances.

The design claim under test (see :mod:`repro.service.http`): all shard
mutation happens on the single pump thread, so any number of reader
threads see *consistent snapshots* — a signature response is always one
complete window's signature (never a half-built dict), and ``/status``
never reports an impossible state.  A seeded mixed load over the four
data-plane endpoints keeps ``/slo`` and ``/metrics`` consistent for a
concurrent scraper, and every request it makes leaves a resolvable trace.
HTTP threads that parse bodies into a label table the pump then retires
give the answers and stores of a single-threaded run.
"""

import hashlib
import json
import random
import sys
import threading
import time

import pytest

from repro.service import KillShard, SignatureService, SketchTier

HEALTHS = {"HEALTHY", "DEGRADED", "DOWN"}
ENDPOINTS = ("signature", "similar", "anomaly", "ingest")


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


def mixed_load(service, requests, seed):
    """``requests`` seeded calls to ``respond`` spread over :data:`ENDPOINTS`,
    pumping after each ingest; returns ``(endpoint, status, headers)`` each."""
    rng = random.Random(seed)
    answers = []
    for index in range(requests):
        endpoint = rng.choice(ENDPOINTS)
        node = f"h{rng.randrange(12)}"
        if endpoint == "ingest":
            rows = [
                [10_000.0 + 8 * index + offset, node,
                 f"h{rng.randrange(12)}", float(1 + rng.randrange(4))]
                for offset in range(8)
            ]
            status, headers, _body = service.respond(
                "POST", "/ingest", json.dumps({"records": rows})
            )
            service.pump()
        elif endpoint == "similar":
            status, headers, _body = service.respond("GET", f"/similar/{node}?k=3")
        else:
            status, headers, _body = service.respond("GET", f"/{endpoint}/{node}")
        answers.append((endpoint, status, headers))
    return answers


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
        # A shard whose engine never comes back keeps its whole log.
        assert state.log.base == -1 and len(state.log.buckets) == 20
        tiers = {}
        for node, document in answers:
            window = document["window"]
            if window not in tiers:
                tiers[window] = SketchTier(small_config, state.log.buckets[:window + 1], window)
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


class TestMixedLoad:
    def test_concurrent_slo_scrapes_during_load(self, service):
        """``/slo`` and ``/metrics`` stay consistent while the mixed load
        runs on another thread."""
        errors = []
        done = threading.Event()

        def scrape():
            while not done.is_set():
                try:
                    status, _headers, body = service.respond("GET", "/slo")
                    assert status == 200
                    for entry in json.loads(body)["objectives"]:
                        assert entry["verdict"] in ("pass", "fail")
                        for window in entry["windows"]:
                            assert window["bad"] <= window["total"]
                    assert service.respond("GET", "/metrics")[0] == 200
                except Exception as error:  # noqa: BLE001 - collected below
                    errors.append(error)
                    return

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            answers = mixed_load(service, 150, seed=11)
        finally:
            done.set()
            scraper.join(timeout=10.0)
            service.close()
        assert not scraper.is_alive()
        assert errors == []
        assert len(answers) == 150

    @pytest.mark.parametrize("endpoint", ENDPOINTS)
    def test_every_request_trace_resolves(self, service, endpoint):
        """The mixed load never 5xxs, and each ``endpoint`` response's
        ``X-Trace-Id`` resolves at ``/trace/<id>`` to its request's tree."""
        try:
            answers = mixed_load(service, 120, seed=2)
            assert [answer for answer in answers if answer[1] >= 500] == []
            traced = [headers for name, _s, headers in answers if name == endpoint]
            assert traced
            for headers in traced:
                status, _headers, body = service.respond(
                    "GET", f"/trace/{headers['X-Trace-Id']}"
                )
                assert status == 200
                trace = json.loads(body)
                assert trace["request_id"] == headers["X-Request-Id"]
                assert trace["spans"]["name"] == "service.request"
                assert trace["spans"]["attrs"]["endpoint"] == f"/{endpoint}"
        finally:
            service.close()


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


def churning_body(window, size=30):
    """Window ``window``'s ``/ingest`` body: five hosts to externals new in
    the window, at times ``100 * window + i``."""
    rows = [
        [100.0 * window + index, f"h{index % 5}", f"ext-{window}-{index % 23}", 1.0 + index % 3]
        for index in range(size)
    ]
    return json.dumps({"records": rows})


def segment_digests(directory):
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*.rseg"))
    }


class TestParsingAcrossGenerations:
    def test_threads_parsing_into_older_generations_answer_as_one_thread(
        self, small_config, tmp_path
    ):
        """Four HTTP threads parse window bodies while the pump thread
        closes windows and swaps label tables.  Offers keep window order
        (a body waits until the pump has closed every earlier window), so
        a body is often parsed into a table retired before its offer; the
        stores and answers equal a single-threaded run's."""
        windows = 40
        single = SignatureService(small_config, history_dir=tmp_path / "single")
        for window in range(windows):
            assert single.respond("POST", "/ingest", churning_body(window))[0] == 202
            single.pump()

        threaded = SignatureService(small_config, history_dir=tmp_path / "threaded")
        supervisor, offer = threaded.supervisor, threaded.frontend.queue.offer
        turn = threading.Condition()
        progress = {"next": 0, "stale": 0}

        def ordered_offer(batch):
            window = int(batch.time[0]) // 100
            deadline = time.monotonic() + 30.0
            with turn:
                while progress["next"] != window or supervisor.window != window - 1:
                    assert time.monotonic() < deadline, "offers stalled"
                    turn.wait(0.001)
                progress["stale"] += batch.labels is not supervisor.labels
                accepted = offer(batch)
                progress["next"] += 1
                turn.notify_all()
            return accepted

        threaded.frontend.queue.offer = ordered_offer
        statuses = []

        def post(first):
            for window in range(first, windows, 4):
                statuses.append(threaded.respond("POST", "/ingest", churning_body(window))[0])

        posters = [threading.Thread(target=post, args=(first,), daemon=True) for first in range(4)]
        threaded.start_pump(interval_s=0.001)
        try:
            for poster in posters:
                poster.start()
            for poster in posters:
                poster.join(timeout=60)
        finally:
            threaded.stop_pump(drain=True)
        assert not any(poster.is_alive() for poster in posters)
        assert statuses == [202] * windows
        assert supervisor.window == single.supervisor.window == windows - 1
        assert supervisor.generation > 0 and progress["stale"] > 0
        assert segment_digests(tmp_path / "threaded") == segment_digests(tmp_path / "single")
        nodes = [f"h{i}" for i in range(5)] + [f"ext-{windows - 1}-{i}" for i in range(3)]
        for path in [f"/{endpoint}/{node}" for node in nodes for endpoint in ("signature", "anomaly")]:
            assert threaded.respond("GET", path)[::2] == single.respond("GET", path)[::2]
        threaded.close()
        single.close()
