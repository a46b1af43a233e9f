"""Tests for request-scoped tracing (repro.obs.tracing) and its EventLog
and registry integrations."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import obs
from repro.obs import (
    RequestContext,
    TraceStore,
    current_trace,
    new_trace_id,
    use_trace,
)


class ManualClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRequestContext:
    def test_trace_and_request_ids(self):
        context = RequestContext()
        assert len(context.trace_id) == 32
        assert len(context.request_id) == 16
        assert RequestContext(trace_id="abc123").trace_id == "abc123"
        assert new_trace_id() != new_trace_id()

    def test_span_tree_nests_by_with_blocks(self):
        clock = ManualClock()
        context = RequestContext(clock=clock, endpoint="/similar")
        with context.span("service.request"):
            clock.advance(0.010)
            with context.span("shard.query", shard="0"):
                clock.advance(0.005)
            with context.span("shard.query", shard="1"):
                clock.advance(0.007)
        context.finish()
        record = context.to_dict()
        assert record["attrs"] == {"endpoint": "/similar"}
        assert record["duration_s"] == pytest.approx(0.022)
        root = record["spans"]
        assert root["name"] == "service.request"
        assert [c["attrs"]["shard"] for c in root["children"]] == ["0", "1"]
        assert root["children"][0]["duration_s"] == pytest.approx(0.005)
        assert root["children"][1]["start_s"] == pytest.approx(0.015)

    def test_span_error_annotation(self):
        context = RequestContext()
        with pytest.raises(RuntimeError):
            with context.span("root"):
                with context.span("child"):
                    raise RuntimeError("shard crashed")
        root = context.to_dict()["spans"]
        assert root["error"] == "RuntimeError: shard crashed"
        assert root["children"][0]["error"] == "RuntimeError: shard crashed"

    def test_deadline_budget(self):
        clock = ManualClock()
        context = RequestContext(deadline_s=0.1, clock=clock)
        assert context.remaining() == pytest.approx(0.1)
        assert not context.expired()
        clock.advance(0.25)
        assert context.expired()
        assert context.remaining() == pytest.approx(-0.15)
        assert RequestContext(clock=clock).remaining() is None

    def test_to_dict_is_json_plain(self):
        context = RequestContext()
        with context.span("a"):
            pass
        context.finish()
        json.dumps(context.to_dict())


class TestContextVar:
    def test_use_trace_scopes_current(self):
        assert current_trace() is None
        context = RequestContext()
        with use_trace(context):
            assert current_trace() is context
            with use_trace(None):
                assert current_trace() is None
            assert current_trace() is context
        assert current_trace() is None

    def test_span_records_to_trace_and_registry(self):
        registry = obs.MetricsRegistry()
        context = RequestContext()
        with obs.use_registry(registry), use_trace(context):
            with obs.span("shard.query", shard="0") as node:
                assert node is not None
        assert context.to_dict()["spans"]["name"] == "shard.query"
        spans = registry.snapshot()["spans"]
        assert any(entry["path"] == ["shard.query{shard=0}"] for entry in spans)

    def test_span_without_trace_records_to_registry_only(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("lonely") as node:
                assert node is None
        assert any(
            e["path"] == ["lonely"] for e in registry.snapshot()["spans"]
        )

    def test_threads_do_not_inherit_sibling_traces(self):
        seen = {}

        def worker():
            seen["trace"] = current_trace()

        with use_trace(RequestContext()):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["trace"] is None


class TestTraceStore:
    def test_round_trip_and_ids(self):
        store = TraceStore(capacity=4)
        context = RequestContext()
        with context.span("root"):
            pass
        context.finish()
        store.put(context)
        assert store.get(context.trace_id)["spans"]["name"] == "root"
        assert store.ids() == (context.trace_id,)
        assert store.get("missing") is None

    def test_capacity_evicts_oldest(self):
        store = TraceStore(capacity=3)
        contexts = [RequestContext() for _ in range(5)]
        for context in contexts:
            store.put(context)
        assert len(store) == 3
        assert store.get(contexts[0].trace_id) is None
        assert store.get(contexts[1].trace_id) is None
        assert store.get(contexts[4].trace_id) is not None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestEventLogStamping:
    def make_log(self):
        buffer = io.StringIO()
        return obs.EventLog(buffer, run_id="r", clock=lambda: 1.0), buffer

    def test_events_carry_trace_and_request_ids(self):
        log, buffer = self.make_log()
        context = RequestContext()
        with use_trace(context):
            log.emit("shard.query", shard=0)
        log.emit("outside")
        inside, outside = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        assert inside["trace_id"] == context.trace_id
        assert inside["request_id"] == context.request_id
        assert "trace_id" not in outside
        assert "request_id" not in outside

    def test_read_events_filters_by_trace(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.EventLog(path, run_id="r") as log:
            first, second = RequestContext(), RequestContext()
            with use_trace(first):
                log.emit("a")
                log.emit("b")
            with use_trace(second):
                log.emit("c")
            log.emit("untagged")
        assert len(list(obs.read_events(path))) == 4
        hits = list(obs.read_events(path, trace_id=first.trace_id))
        assert [event["event"] for event in hits] == ["a", "b"]
        assert list(obs.read_events(path, trace_id="nope")) == []

    def test_trace_fields_are_reserved(self):
        from repro.obs.logs import RESERVED_FIELDS

        assert "trace_id" in RESERVED_FIELDS
        assert "request_id" in RESERVED_FIELDS
        log, _buffer = self.make_log()
        with pytest.raises(ValueError):
            log.emit("bad", trace_id="spoofed")
