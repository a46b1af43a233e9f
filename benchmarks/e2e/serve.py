"""Serve workloads: the ``repro.cli serve`` process, driven over HTTP.

The service runs as a subprocess (``--shards 4 --window-records 8192
--queue-capacity 65536`` with checkpoint and history directories); load
comes from this process through at most two threads, one request at a
time each (the server speaks HTTP/1.0, so one connection per request).

``serve_mixed_1x``
    What an operator sees: reads while windows close.  Four windows are
    preloaded; then, in each round, an open loop: one thread POSTs
    512-record batches at ``MIXED_RATE``, the other sends ``QUERY_RATE``
    Poisson queries over ``QUERY_MIX`` for uniformly drawn hosts.  Every
    request is timed from when it was due.
``serve_ingest_1x``
    Ingest capacity with no reads: in each round one thread POSTs
    1024-record batches back to back, pausing while more than four windows
    are queued.

An untraced run splits ``--seconds`` of load into ``ROUNDS`` rounds, each
admitting whole windows.  After each round the benchmark waits until every
shard has applied them, times a cold start of a spare server on empty
directories (``setup_s``), and restarts the server: SIGINT, then respawn on
the same directories (``restart_s``: from the signal until ``/status``
reports the window the old process ended on).  Spread over the run, these
samples are not all slowed by one burst of contention on the host.  At the
end of the last round, every host's ``/signature`` is compared with TT
computed here from the records of the last closed window (known from the
single ingest thread's FIFO admission order).
"""

from __future__ import annotations

import http.client
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    HERE,
    REPO_ROOT,
    RESULTS_DIR,
    WORK_DIR,
    child_env,
    cpu_seconds,
    dir_bytes,
    history_rows,
    metric,
    percentile,
    peak_rss_mb,
    pin_to_system_cpu,
    signature_mismatches,
    typical_time,
)
from inputs import Population, build_trace, ensure_pool, tiles_for

WORKLOADS = ("serve_mixed_1x", "serve_ingest_1x")
WINDOW_RECORDS = 8192
SERVE_FLAGS = (
    "--shards", "4",
    "--window-records", str(WINDOW_RECORDS),
    "--queue-capacity", "65536",
    # Bounds the life of a server orphaned by a killed benchmark.
    "--serve-for", "900",
)
#: Rounds of load, each followed by a cold start and a restart.
ROUNDS = 6
#: Closed-loop ingest pauses while more records than this are queued.
QUEUE_HIGH_WATER = 4 * WINDOW_RECORDS
INGEST_BATCH = 1024
#: serve_ingest_1x capacity (records/s) measured on a 2-vCPU host when the
#: benchmark was defined.  It scales the closed loop's pause and is the
#: base of serve_mixed's offered rate, which stays frozen across commits
#: so that every commit is measured under the same load.
INGEST_CAPACITY = 36_000.0
#: serve_mixed's ingest rate, a sixth of INGEST_CAPACITY: a window closes
#: every 1.4 s and keeps the pump (and the GIL) busy for about a fifth of
#: the time.  The query median must stay in the pump-idle regime on a host
#: whose speed drifts by a fifth between minutes: at 12K records/s the
#: pump was busy 33-45% of the time and the median swung between regimes
#: (30-40% spread over ten seeds); at 22K (60%) the service saturated.
MIXED_RATE = 6_000.0
MIXED_BATCH = 512
PRELOAD_RECORDS = 4 * WINDOW_RECORDS
QUERY_RATE = 80.0
QUERY_MIX = (
    ("signature", 0.4),
    ("similar", 0.3),
    ("anomaly", 0.1),
    ("history", 0.1),
    ("trajectory", 0.1),
)
#: The service's own /similar p99 objective, reported beside query_p99_ms.
SLO_P99_MS = 250.0
#: Status polling interval: rare enough not to slow the server down.
POLL_S = 0.01
#: An open loop whose achieved rate falls further below target is invalid.
MIN_OFFERED_FRACTION = 0.98
TIMEOUT_S = 60.0


def call(port: int, method: str, path: str, body: bytes | None = None,
         trace_id: str | None = None) -> Tuple[int, bytes]:
    """One request; status 0 means the connection failed."""
    headers = {"X-Trace-Id": trace_id} if trace_id else {}
    if body is not None:
        headers["Content-Type"] = "application/json"
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        connection.close()


def status_of(port: int) -> Dict:
    code, body = call(port, "GET", "/status")
    if code != 200:
        raise RuntimeError(f"/status answered {code}")
    return json.loads(body)


class Server:
    """One ``serve`` process over fixed checkpoint and history directories."""

    def __init__(self, directory: Path, spans_out: Optional[Path] = None) -> None:
        self.checkpoint_dir = directory / "ckpt"
        self.history_dir = directory / "hist"
        self.spans_out = spans_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; returns seconds from spawn to the first 200 on
        ``/status``."""
        args = [
            "serve", "--port", "0", *SERVE_FLAGS,
            "--checkpoint-dir", str(self.checkpoint_dir),
            "--history-dir", str(self.history_dir),
        ]
        if self.spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(self.spans_out), *args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT, env=child_env()
        )
        pin_to_system_cpu(self.proc.pid)
        for line in self.proc.stdout:
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        else:
            self.stop()
            raise RuntimeError("serve exited before listening")
        while call(self.port, "GET", "/status")[0] != 200:
            if time.perf_counter() - started > TIMEOUT_S:
                raise RuntimeError("serve never answered /status")
            time.sleep(0.001)
        return time.perf_counter() - started

    def stop(self) -> None:
        """SIGINT (the server drains its queue and exits), then wait."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def restart(self, window: int) -> Tuple[float, bool]:
        """SIGINT, then respawn on the same directories until ``/status``
        shows ``window``.  Returns the seconds from the signal and whether
        ``window`` was restored."""
        signalled = time.perf_counter()
        self.stop()
        self.start()
        deadline = time.perf_counter() + TIMEOUT_S
        while (shown := status_of(self.port)["window"]) < window:
            if time.perf_counter() > deadline:
                break
            time.sleep(0.001)
        return time.perf_counter() - signalled, shown == window


class Stream:
    """The cyclic record stream; one thread admits it in FIFO order."""

    def __init__(self, trace) -> None:
        self.trace = trace
        self.cursor = 0
        self.admitted: List[Tuple[int, int]] = []
        self.admitted_records = 0

    def take(self, count: int) -> Tuple[int, int, bytes]:
        lo, hi = self.cursor, self.cursor + count
        self.cursor = hi
        rows = self.trace.rows(np.arange(lo, hi))
        return lo, hi, json.dumps({"records": rows}).encode()

    def admit(self, lo: int, hi: int) -> None:
        self.admitted.append((lo, hi))
        self.admitted_records += hi - lo

    def window_positions(self, window: int) -> np.ndarray:
        """Stream positions of the records that formed ``window`` of a
        server that started empty and only ever closed whole windows."""
        admitted = np.concatenate([np.arange(lo, hi) for lo, hi in self.admitted])
        return admitted[window * WINDOW_RECORDS:(window + 1) * WINDOW_RECORDS]


def post(port: int, stream: Stream, batch: Tuple[int, int, bytes]) -> Tuple[int, Tuple]:
    """POST one batch; returns the status and ``(trace_id, records
    admitted so far, records queued after this one)``."""
    lo, hi, body = batch
    trace_id = f"ingest-{lo}"
    code, payload = call(port, "POST", "/ingest", body, trace_id)
    queued = None
    if code == 202:
        stream.admit(lo, hi)
        queued = json.loads(payload)["queued"]
    return code, (trace_id, stream.admitted_records, queued)


def ingest_closed_loop(port: int, stream: Stream, samples: List,
                       until: Callable[[], bool]) -> None:
    """Admit back-to-back batches until ``until()`` holds at a window
    boundary, pausing while the queue holds more than four windows.
    Appends ``(due, sent, done, status, post info)`` per POST to
    ``samples`` (due = sent)."""
    while stream.admitted_records % WINDOW_RECORDS or not until():
        batch = stream.take(INGEST_BATCH)
        sent = time.perf_counter()
        code, info = post(port, stream, batch)
        samples.append((sent, sent, time.perf_counter(), code, info))
        if code != 202:
            time.sleep(0.05)
        elif info[2] > QUEUE_HIGH_WATER:
            time.sleep(min(0.05, (info[2] - QUEUE_HIGH_WATER) / INGEST_CAPACITY))


def window_close_ms(posts: List) -> List[float]:
    """Time per window close while the pump is busy, from the acks alone:
    by an ack, the pump has taken ``(admitted - queued) / WINDOW_RECORDS``
    windows; between two acks that show it taking more, each window took
    the time between them divided by the windows taken."""
    closes: List[float] = []
    last = None
    for _due, _sent, done, code, (_trace_id, admitted, queued) in posts:
        if code != 202:
            continue
        taken = (admitted - queued) // WINDOW_RECORDS
        if last is not None and taken > last[1]:
            closes.append((done - last[0]) * 1000 / (taken - last[1]))
        if last is None or taken > last[1]:
            last = (done, taken)
    return closes


def wait_for_window(port: int, window: int) -> Tuple[float, Dict]:
    """Poll until every shard has applied ``window`` and less than a window
    is queued.  The top-level ``window`` of ``/status`` is not enough: the
    supervisor advances it when a close starts, before the shards apply."""
    deadline = time.perf_counter() + TIMEOUT_S
    while True:
        status = status_of(port)
        applied = min(shard["window"] for shard in status["shards"])
        if applied >= window and status["queue"]["depth"] < WINDOW_RECORDS:
            return time.perf_counter(), status
        if time.perf_counter() > deadline:
            raise RuntimeError(f"window {window} never closed: {status['window']}")
        time.sleep(POLL_S)


def check_signatures(port: int, stream: Stream, window: int) -> Tuple[int, int]:
    """``(mismatches, compared)``: every host's ``/signature`` against TT on
    the last closed window's records, aggregated here."""
    from repro.core.scheme import create_scheme
    from repro.graph.builders import graph_from_edges

    trace = stream.trace
    index = stream.window_positions(window) % trace.num_records
    sessions = Counter(zip(trace.src[index].tolist(), trace.dst[index].tolist()))
    graph = graph_from_edges(
        (trace.labels[s], trace.labels[d], float(n)) for (s, d), n in sessions.items()
    )
    owners = [host for host in trace.hosts if host in graph and graph.out_strength(host) > 0]
    reference = create_scheme("tt", k=10).compute_all(graph, owners)
    observed = {}
    unexpected = 0
    for host in trace.hosts:
        code, body = call(port, "GET", f"/signature/{host}")
        if code == 200:
            answer = json.loads(body)
            observed[host] = answer["signature"]
            unexpected += answer["window"] != window or answer["approximate"]
        elif code != 404:
            unexpected += 1
    return signature_mismatches(observed, reference) + unexpected, len(trace.hosts)


# ----------------------------------------------------------------------
# Open loop (serve_mixed)
# ----------------------------------------------------------------------
def _open_loop(start: float, events: List, send, out: List) -> None:
    for due, item in events:
        wait = start + due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        code, info = send(item)
        out.append((start + due, sent, time.perf_counter(), code, info))


def _query_events(hosts: List[str], seed: int, round_index: int, seconds: float) -> List:
    """Poisson arrivals at ``QUERY_RATE``; the kinds follow ``QUERY_MIX``
    exactly (in seeded order) and hosts are uniform."""
    rng = np.random.default_rng([seed, 2, round_index])
    dues = np.cumsum(rng.exponential(1.0 / QUERY_RATE, size=int(2 * QUERY_RATE * seconds) + 10))
    dues = dues[dues < seconds]
    kinds = [kind for kind, share in QUERY_MIX for _ in range(round(share * dues.size))]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    events = []
    for due, kind in zip(dues.tolist(), kinds):
        host = hosts[rng.integers(len(hosts))]
        path = {
            "signature": f"/signature/{host}",
            "similar": f"/similar/{host}?k=10",
            "anomaly": f"/anomaly/{host}",
            "history": f"/history/{host}?k=5",
            "trajectory": f"/trajectory/{host}",
        }[kind]
        events.append((due, (kind, path, f"query-{round_index}-{len(events)}")))
    return events


def run_open_loop(port: int, stream: Stream, seed: int, round_index: int,
                  seconds: float) -> Dict:
    """Ingest at ``MIXED_RATE`` (the whole windows nearest ``seconds``) and
    query at ``QUERY_RATE`` meanwhile."""
    interval = MIXED_BATCH / MIXED_RATE
    windows = max(1, round(seconds * MIXED_RATE / WINDOW_RECORDS))
    batches = windows * (WINDOW_RECORDS // MIXED_BATCH)
    ingest_events = [(i * interval, stream.take(MIXED_BATCH)) for i in range(batches)]
    scheduled_s = batches * interval
    query_events = _query_events(stream.trace.hosts, seed, round_index, scheduled_s)

    def send_ingest(batch):
        return post(port, stream, batch)

    def send_query(item):
        kind, path, trace_id = item
        code, body = call(port, "GET", path, trace_id=trace_id)
        answer = json.loads(body) if code == 200 else {}
        return code, (trace_id, kind, answer.get("window"), bool(answer.get("matches")))

    ingests: List = []
    queries: List = []
    start = time.perf_counter() + 0.01
    threads = [
        threading.Thread(target=_open_loop, args=(start, ingest_events, send_ingest, ingests)),
        threading.Thread(target=_open_loop, args=(start, query_events, send_query, queries)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    offered = min(
        _offered_fraction(start, ingest_events, ingests),
        _offered_fraction(start, query_events, queries),
    )
    if offered < MIN_OFFERED_FRACTION:
        raise RuntimeError(f"invalid run: offered only {offered:.3f} of the target rate")
    return {
        "ingests": ingests,
        "queries": queries,
        "scheduled_s": scheduled_s,
        "offered_fraction": offered,
    }


def _offered_fraction(start: float, events: List, samples: List) -> float:
    """Achieved over scheduled offered rate, each the least-squares slope of
    request count against (send or due) time, so one stall near the end of
    the run does not read as a generator that fell behind."""
    count = np.arange(len(events))
    scheduled = np.polyfit([due for due, _item in events], count, 1)[0]
    achieved = np.polyfit([sent - start for _due, sent, *_rest in samples], count, 1)[0]
    return float(achieved / scheduled)


def _ok(code: int) -> bool:
    """200/202 answers and 404 for a node absent from the window are
    answers; 429, 5xx and connection errors are failures."""
    return code in (200, 202, 404)


def _latency_ms(samples: List, seconds: float) -> List[float]:
    """Latency from due time; a failed request counts as missing every
    limit, so it is charged the whole measurement window."""
    return [
        (done - due) * 1000 if _ok(code) else seconds * 1000
        for due, _sent, done, code, _info in samples
    ]


def _freshness_ms(load: Dict) -> List[float]:
    """Per window filled during ``load``: from the ack of the POST that
    filled it to the first query answer from that window or a later one."""
    filled = {}
    for _due, _sent, done, code, (_trace_id, admitted, _queued) in load["ingests"]:
        if code == 202:
            for window in range(load["admitted_before"] // WINDOW_RECORDS,
                                admitted // WINDOW_RECORDS):
                filled.setdefault(window, done)
    answered = sorted(
        (done, window) for _d, _s, done, code, (_t, _k, window, _m) in load["queries"]
        if code == 200 and window is not None
    )
    freshness = []
    for window, filled_at in filled.items():
        first = next((done for done, seen in answered if seen >= window and done >= filled_at), None)
        if first is not None:
            freshness.append((first - filled_at) * 1000)
    return freshness


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def preload(port: int, stream: Stream) -> None:
    """serve_mixed's first windows, admitted back to back and applied."""
    target = stream.admitted_records + PRELOAD_RECORDS
    ingest_closed_loop(port, stream, [], lambda: stream.admitted_records >= target)
    wait_for_window(port, target // WINDOW_RECORDS - 1)


def apply_load(name: str, port: int, stream: Stream, seed: int, round_index: int,
               seconds: float) -> Dict:
    """One stretch of the workload's load, then a wait until every shard
    has applied it.  Returns the client samples (``(due, sent, done,
    status, info)`` per request), the final ``/status`` and the rate:
    records admitted ÷ time from the first POST until all are applied."""
    before = stream.admitted_records
    if name == "serve_mixed_1x":
        load = run_open_loop(port, stream, seed, round_index, seconds)
    else:
        deadline = time.perf_counter() + seconds
        load = {"ingests": [], "queries": []}
        ingest_closed_loop(port, stream, load["ingests"], lambda: time.perf_counter() >= deadline)
    applied_at, status = wait_for_window(port, stream.admitted_records // WINDOW_RECORDS - 1)
    load.update(
        admitted_before=before,
        status=status,
        rate=(stream.admitted_records - before) / (applied_at - load["ingests"][0][1]),
    )
    return load


def load_metrics(name: str, loads: List[Dict]) -> Dict:
    """The metrics of a workload's loads.  The gated time (``latency_ms``)
    is the lower quartile of its samples (see ``typical_time``).
    ``records_per_s`` is, for serve_mixed, records applied per second of a
    round (median over rounds; the offered rate bounds it) and, for the
    saturated serve_ingest, the window size over the window-close time."""
    ingests = [sample for load in loads for sample in load["ingests"]]
    queries = [sample for load in loads for sample in load["queries"]]
    rate = median([load["rate"] for load in loads])
    if name == "serve_mixed_1x":
        query_ms = [ms for load in loads for ms in _latency_ms(load["queries"], load["scheduled_s"])]
        ingest_ms = [ms for load in loads for ms in _latency_ms(load["ingests"], load["scheduled_s"])]
        lateness = [(sent - due) * 1000 for due, sent, *_ in ingests + queries]
        metrics = dict(
            records_per_s=metric(rate, "records/s"),
            latency_ms=metric(typical_time(query_ms), "ms"),
            freshness_p50_ms=metric(median([ms for load in loads for ms in _freshness_ms(load)]), "ms"),
            query_p50_ms=metric(percentile(query_ms, 50), "ms"),
            query_p90_ms=metric(percentile(query_ms, 90), "ms"),
            query_p99_ms=metric(percentile(query_ms, 99), "ms"),
            query_slo_p99_ms=metric(SLO_P99_MS, "ms"),
            queries=metric(len(queries), "count"),
            ingest_p50_ms=metric(percentile(ingest_ms, 50), "ms"),
            generator_lateness_p99_ms=metric(percentile(lateness, 99), "ms"),
            offered_fraction=metric(min(load["offered_fraction"] for load in loads), "ratio"),
        )
    else:
        closes = [ms for load in loads for ms in window_close_ms(load["ingests"])]
        post_ms = [(done - sent) * 1000 for _due, sent, done, *_ in ingests]
        metrics = dict(
            records_per_s=metric(WINDOW_RECORDS * 1000 / typical_time(closes), "records/s"),
            latency_ms=metric(typical_time(closes), "ms"),
            ingest_records_per_s=metric(rate, "records/s"),
            window_close_p50_ms=metric(median(closes), "ms"),
            ingest_p50_ms=metric(percentile(post_ms, 50), "ms"),
            ingest_p99_ms=metric(percentile(post_ms, 99), "ms"),
        )
    samples = ingests + queries
    failed = sum(not _ok(code) for _due, _sent, _done, code, _info in samples)
    metrics["failed_frac"] = metric(failed / len(samples), "ratio")
    return metrics


def run(name: str, seed: int, seconds: float, traced: bool, population: Population) -> Dict:
    generation_s = ensure_pool(population, tiles_for(1))
    trace = build_trace(population, 1, seed, population.num_windows)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = WORK_DIR / f"{name}-{seed}-{time.time_ns()}"
    servers: List[Server] = []
    try:
        if traced:
            result = _run_traced(name, trace, seed, seconds, workdir, servers)
        else:
            result = _run_untraced(name, trace, seed, seconds, workdir, servers)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    result["shape"] = trace.shape()
    result["trace_generation_s"] = generation_s
    return result


def _run_untraced(name, trace, seed, seconds, workdir, servers) -> Dict:
    server = Server(workdir / "server")
    servers.append(server)
    setups = [server.start()]
    stream = Stream(trace)
    if name == "serve_mixed_1x":
        preload(server.port, stream)
    loads, restarts, rss = [], [], []
    restored = True
    for index in range(ROUNDS):
        loads.append(apply_load(name, server.port, stream, seed, index, seconds / ROUNDS))
        window = loads[-1]["status"]["window"]
        if index == ROUNDS - 1:
            mismatches, compared = check_signatures(server.port, stream, window)
        rss.append(peak_rss_mb(server.proc.pid))
        spare = Server(workdir / f"spare-{index}")
        servers.append(spare)
        setups.append(spare.start())
        spare.stop()
        elapsed, ok = server.restart(window)
        restarts.append(elapsed)
        restored = restored and ok
    server.stop()
    metrics = load_metrics(name, loads)
    history_dirs = sorted(server.history_dir.glob("shard-*"))
    metrics.update(
        signature_mismatches=metric(mismatches, "count"),
        setup_s=metric(typical_time(setups), "s"),
        restart_s=metric(typical_time(restarts), "s"),
        rss_peak_mb=metric(max(rss), "MB"),
        store_bytes_per_row=metric(
            dir_bytes(server.checkpoint_dir, server.history_dir) / history_rows(history_dirs),
            "B/row",
        ),
    )
    samples = [sample for load in loads for sample in load["ingests"] + load["queries"]]
    return {
        "correct": mismatches == 0 and compared > 0 and restored,
        "attempted": len(samples),
        "failed": sum(not _ok(code) for _due, _sent, _done, code, _info in samples),
        "metrics": metrics,
        "signatures_compared": compared,
    }


def _run_traced(name, trace, seed, seconds, workdir, servers) -> Dict:
    """Half the time untraced, half traced: per-layer metrics come from the
    traced server's spans, ``trace_overhead_frac`` from the server CPU
    seconds per applied record of the two halves."""
    import tracer

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    spans_out = RESULTS_DIR / f"spans-{name}.json"
    phases = []
    for label, spans in (("untraced", None), ("traced", spans_out)):
        server = Server(workdir / label, spans)
        servers.append(server)
        server.start()
        stream = Stream(trace)
        if name == "serve_mixed_1x":
            preload(server.port, stream)
        cpu_before = cpu_seconds(server.proc.pid)
        load = apply_load(name, server.port, stream, seed, 0, seconds / 2)
        cpu = cpu_seconds(server.proc.pid) - cpu_before
        load["mismatches"], load["compared"] = check_signatures(
            server.port, stream, load["status"]["window"]
        )
        load["admitted"] = stream.admitted_records - load["admitted_before"]
        load["cpu_per_record"] = cpu / load["admitted"]
        if spans is not None:
            metrics_text = call(server.port, "GET", "/metrics")[1].decode()
        server.stop()
        phases.append(load)
    untraced, traced_phase = phases
    spans = tracer.load_spans(spans_out)
    table = tracer.layer_table(spans)
    metrics = tracer.layer_metrics(
        table,
        traced_phase["cpu_per_record"] / untraced["cpu_per_record"] - 1.0,
        traced_phase["admitted"],
    )
    metrics.update(_derived(traced_phase, spans, metrics_text))
    samples = [sample for phase in phases for sample in phase["ingests"] + phase["queries"]]
    return {
        "correct": all(p["mismatches"] == 0 and p["compared"] > 0 for p in phases),
        "attempted": len(samples),
        "failed": sum(not _ok(code) for _due, _sent, _done, code, _info in samples),
        "metrics": metrics,
        "layers": table,
        "signatures_compared": sum(p["compared"] for p in phases),
    }


def _derived(phase: Dict, spans: List, metrics_text: str) -> Dict:
    """Queue wait, retries, useful-outcome ratios and HTTP overhead."""
    import tracer

    queued = [info[2] for *_times, code, info in phase["ingests"] if code == 202]
    respond = {
        span[tracer.TRACE_ID]: span[tracer.END] - span[tracer.START]
        for span in spans if span[tracer.NAME] == "service.respond" and span[tracer.TRACE_ID]
    }
    overhead = [
        (done - sent - respond[info[0]]) * 1000
        for _due, sent, done, _code, info in phase["ingests"] + phase["queries"]
        if info[0] in respond
    ]
    counters = Counter()
    for line in metrics_text.splitlines():
        for name in ("incremental_reused_signatures_total", "incremental_dirty_nodes_total"):
            if line.startswith(f"repro_{name}"):
                counters[name] += float(line.rsplit(" ", 1)[1])
    reused = counters["incremental_reused_signatures_total"]
    dirty = counters["incremental_dirty_nodes_total"]
    derived = {
        "service.queue_depth_p50": metric(percentile(queued, 50), "records"),
        "service.queue_depth_max": metric(max(queued), "records"),
        "service.shard_restarts": metric(
            sum(shard["restarts"] for shard in phase["status"]["shards"]), "count"
        ),
        "core.incremental_reuse_frac": metric(reused / (dirty + reused), "ratio"),
        "http.overhead_p50_ms": metric(percentile(overhead, 50), "ms"),
    }
    queries = phase["queries"]
    signatures = [code for *_times, code, info in queries if info[1] == "signature"]
    histories = [info[3] for *_times, code, info in queries if info[1] == "history" and code == 200]
    if signatures:
        derived["service.signature_found_frac"] = metric(
            signatures.count(200) / len(signatures), "ratio"
        )
    if histories:
        derived["store.history_hit_frac"] = metric(sum(histories) / len(histories), "ratio")
    return derived
