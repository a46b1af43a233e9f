"""Tests for the JSON/Prometheus exporters and the payload validator."""

import json

import pytest

from repro import obs
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.obs.export import (
    SCHEMA_ID,
    build_payload,
    to_prometheus,
    validate_payload,
    write_json,
    write_prometheus,
)
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    PipelineConfig,
    SignaturePipeline,
)
from repro.pipeline.faults import FlakySource


def sample_registry() -> obs.MetricsRegistry:
    registry = obs.MetricsRegistry()
    registry.counter("kernel.calls", op="pairwise", path="batch").inc(3)
    registry.gauge("parallel.workers").set(4)
    registry.histogram("retry.delay_s").observe(0.5)
    with obs.use_registry(registry):
        with obs.span("experiment", dataset="network"):
            with obs.span("cell", scheme="TT", pairs=100):
                pass
            with obs.span("cell", scheme="UT", pairs=50):
                pass
    return registry


class TestBuildPayload:
    def test_sections_and_rendered_keys(self):
        payload = build_payload(sample_registry().snapshot(), meta={"command": "fig1"})
        assert payload["schema"] == SCHEMA_ID
        assert payload["meta"] == {"command": "fig1"}
        assert payload["counters"] == {
            "kernel.calls{op=pairwise,path=batch}": 3.0
        }
        assert payload["gauges"] == {"parallel.workers": 4.0}
        assert set(payload["histograms"]) == {"retry.delay_s"}

    def test_span_tree_is_nested(self):
        payload = build_payload(sample_registry().snapshot())
        [root] = payload["spans"]
        assert root["name"] == "experiment{dataset=network}"
        children = {child["name"]: child for child in root["children"]}
        assert set(children) == {"cell{scheme=TT}", "cell{scheme=UT}"}
        assert children["cell{scheme=TT}"]["values"] == {"pairs": 100.0}

    def test_validates_clean(self):
        payload = build_payload(sample_registry().snapshot(), meta={})
        assert validate_payload(payload) == []

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "obs.json"
        written = write_json(path, sample_registry().snapshot(), meta={"n": 1})
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_payload(loaded) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_payload([]) == ["payload must be an object"]

    def test_rejects_wrong_schema_id(self):
        payload = build_payload(obs.MetricsRegistry().snapshot())
        payload["schema"] = "something/else"
        assert any("schema must be" in error for error in validate_payload(payload))

    def test_rejects_non_numeric_counter(self):
        payload = build_payload(obs.MetricsRegistry().snapshot())
        payload["counters"]["bad"] = "three"
        assert any("must be a number" in error for error in validate_payload(payload))

    def test_rejects_histogram_count_mismatch(self):
        registry = obs.MetricsRegistry()
        registry.histogram("h").observe(0.5)
        payload = build_payload(registry.snapshot())
        payload["histograms"]["h"]["count"] = 99
        assert any("sum to count" in error for error in validate_payload(payload))

    def test_rejects_unsorted_histogram_buckets(self):
        registry = obs.MetricsRegistry()
        registry.histogram("h").observe(0.5)
        registry.histogram("h").observe(2.0)
        payload = build_payload(registry.snapshot())
        payload["histograms"]["h"]["buckets"].reverse()
        assert any("sorted" in error for error in validate_payload(payload))

    def test_rejects_fixed_bucket_histogram_state(self):
        payload = build_payload(obs.MetricsRegistry().snapshot())
        payload["histograms"]["h"] = {
            "buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1,
        }
        problems = validate_payload(payload)
        assert any("missing 'relative_accuracy'" in error for error in problems)

    def test_rejects_span_timing_violation(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("root"):
                pass
        payload = build_payload(registry.snapshot())
        payload["spans"][0]["min_s"] = 100.0
        assert any("timing invariant" in error for error in validate_payload(payload))

    def test_rejects_zero_count_span(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("root"):
                pass
        payload = build_payload(registry.snapshot())
        payload["spans"][0]["count"] = 0
        assert any("count must be >= 1" in error for error in validate_payload(payload))


class TestPrometheus:
    def test_counter_gauge_lines(self):
        text = to_prometheus(sample_registry().snapshot())
        assert "# TYPE repro_kernel_calls_total counter" in text
        assert 'repro_kernel_calls_total{op="pairwise",path="batch"} 3' in text
        assert "repro_parallel_workers 4" in text

    def test_histogram_is_a_summary(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("delay")
        for value in (0.5, 5.0, 100.0):
            histogram.observe(value)
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_delay summary" in text
        assert 'repro_delay{quantile="0.5"} 5' in text
        assert "repro_delay_count 3" in text
        assert "_bucket" not in text and " histogram" not in text
        assert obs.validate_prometheus(text) == []

    def test_spans_exported_as_summaries(self):
        text = to_prometheus(sample_registry().snapshot())
        assert (
            'repro_span_seconds_count{path="experiment{dataset=network}/'
            'cell{scheme=TT}"} 1' in text
        )

    def test_write_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        text = write_prometheus(path, sample_registry().snapshot())
        assert path.read_text() == text
        assert text.endswith("\n")


class TestPrometheusLabelEscaping:
    """Regression tests for raw label-value interpolation: `\\`, `"` and
    newlines must be escaped per the exposition format (they used to pass
    through raw, producing unparseable scrape output)."""

    def test_double_quote_escaped(self):
        registry = obs.MetricsRegistry()
        registry.counter("evil", label='say "hi"').inc()
        text = to_prometheus(registry.snapshot())
        assert 'label="say \\"hi\\""' in text
        assert obs.validate_prometheus(text) == []

    def test_backslash_escaped(self):
        registry = obs.MetricsRegistry()
        registry.counter("evil", path="C:\\temp\\x").inc()
        text = to_prometheus(registry.snapshot())
        assert 'path="C:\\\\temp\\\\x"' in text
        assert obs.validate_prometheus(text) == []

    def test_newline_escaped(self):
        registry = obs.MetricsRegistry()
        registry.counter("evil", note="line1\nline2").inc()
        text = to_prometheus(registry.snapshot())
        # One sample line, with a literal backslash-n escape sequence.
        [sample] = [line for line in text.splitlines() if line.startswith("repro_evil")]
        assert 'note="line1\\nline2"' in sample
        assert obs.validate_prometheus(text) == []

    def test_escaping_applies_to_span_paths_and_histograms(self):
        registry = obs.MetricsRegistry()
        registry.histogram("lat", label='q="x"').observe(0.01)
        with obs.use_registry(registry):
            with obs.span("cell", scheme='S"1"'):
                pass
        text = to_prometheus(registry.snapshot())
        assert obs.validate_prometheus(text) == []
        assert '\\"x\\"' in text
        assert '\\"1\\"' in text


class TestValidatePrometheus:
    def test_accepts_exporter_output(self):
        text = to_prometheus(sample_registry().snapshot())
        assert obs.validate_prometheus(text) == []

    def test_rejects_raw_quote_in_label(self):
        bad = 'metric{label="say "hi""} 1\n'
        assert obs.validate_prometheus(bad)

    def test_rejects_garbage_line(self):
        assert obs.validate_prometheus("not a metric line at all!\n")

    def test_rejects_unparseable_value(self):
        assert obs.validate_prometheus("metric twelve\n")

    def test_rejects_non_cumulative_histogram(self):
        bad = (
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
        )
        problems = obs.validate_prometheus(bad)
        assert sum("bucket sample" in problem for problem in problems) == 3

    def test_rejects_missing_inf_bucket(self):
        bad = 'h_bucket{le="0.1"} 5\n'
        problems = obs.validate_prometheus(bad)
        assert any("bucket sample" in problem for problem in problems)

    def test_rejects_inf_bucket_count_mismatch(self):
        bad = (
            'h_bucket{le="0.1"} 2\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 4\n"
        )
        problems = obs.validate_prometheus(bad)
        assert any("bucket sample" in problem for problem in problems)

    def test_rejects_bucket_samples(self):
        """A well-formed cumulative histogram is still an error: every
        distribution is exported as a summary."""
        bad = (
            'h_bucket{le="0.1"} 2\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        problems = obs.validate_prometheus(bad)
        assert len(problems) == 2
        assert all("bucket sample 'h_bucket'" in problem for problem in problems)

    def test_rejects_histogram_type_line(self):
        problems = obs.validate_prometheus("# TYPE h histogram\nh_count 3\n")
        assert len(problems) == 1
        assert "exported as summaries" in problems[0]

    def test_rejects_malformed_type_comment(self):
        assert obs.validate_prometheus("# TYPE weird kind-of-thing\n")

    def test_accepts_special_values(self):
        assert obs.validate_prometheus("m 1.5e-3\nn +Inf\no NaN\n") == []


def digest_registry() -> obs.MetricsRegistry:
    registry = obs.MetricsRegistry()
    digest = registry.histogram("service.latency_s", endpoint="/similar")
    for value in (0.010, 0.020, 0.040, 0.080, 0.500):
        digest.observe(value)
    return registry


class TestDigestExport:
    def test_payload_carries_states_and_quantiles(self):
        payload = build_payload(digest_registry().snapshot())
        assert validate_payload(payload) == []
        entries = payload["histograms"]
        assert list(entries) == ["service.latency_s{endpoint=/similar}"]
        entry = entries["service.latency_s{endpoint=/similar}"]
        assert entry["count"] == 5
        quantiles = entry["quantiles"]
        assert quantiles["p50"] == pytest.approx(0.040, rel=0.011)
        assert quantiles["p99"] == pytest.approx(0.500, rel=0.011)

    def test_payload_omits_digests_when_absent(self):
        """One ``histograms`` section; the v1 ``digests`` section is gone."""
        payload = build_payload(digest_registry().snapshot())
        assert "digests" not in payload
        assert payload["schema"] == "repro.obs/v2"
        assert validate_payload(payload) == []

    def test_payload_round_trips_through_json(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json(path, digest_registry().snapshot())
        restored = json.loads(path.read_text())
        assert validate_payload(restored) == []
        (state,) = restored["histograms"].values()
        merged = obs.MetricsRegistry()
        snapshot = {"histograms": [["service.latency_s", {}, state]]}
        merged.merge(snapshot)
        merged.merge(snapshot)
        [[_name, _labels, merged_state]] = merged.snapshot()["histograms"]
        assert merged_state["count"] == 10

    def test_prometheus_summary_lines(self):
        text = to_prometheus(digest_registry().snapshot())
        assert obs.validate_prometheus(text) == []
        assert "# TYPE repro_service_latency_s summary" in text
        assert (
            'repro_service_latency_s{endpoint="/similar",quantile="0.5"}' in text
        )
        assert 'repro_service_latency_s_count{endpoint="/similar"} 5' in text
        assert 'repro_service_latency_s_sum{endpoint="/similar"}' in text

    def test_validate_payload_rejects_corrupt_digest(self):
        payload = build_payload(digest_registry().snapshot())
        (entry,) = payload["histograms"].values()
        entry["count"] = 99  # buckets no longer sum to count
        assert any(
            "histograms[" in problem for problem in validate_payload(payload)
        )

    def test_validate_payload_rejects_bad_accuracy(self):
        payload = build_payload(digest_registry().snapshot())
        (entry,) = payload["histograms"].values()
        entry["relative_accuracy"] = 1.5
        assert validate_payload(payload)


class TestValidatePrometheusSummaries:
    def test_rejects_quantile_label_out_of_range(self):
        bad = 's{quantile="1.5"} 3\ns_count 1\n'
        problems = obs.validate_prometheus(bad)
        assert any("quantile" in problem for problem in problems)

    def test_rejects_non_monotone_quantile_values(self):
        bad = (
            's{quantile="0.5"} 5\n'
            's{quantile="0.99"} 3\n'
            "s_count 2\n"
        )
        problems = obs.validate_prometheus(bad)
        assert any("non-decreasing" in problem for problem in problems)

    def test_rejects_summary_without_count(self):
        bad = 's{quantile="0.5"} 3\n'
        problems = obs.validate_prometheus(bad)
        assert any("_count" in problem for problem in problems)

    def test_accepts_well_formed_summary(self):
        good = (
            's{quantile="0.5"} 3\n'
            's{quantile="0.99"} 7\n'
            "s_sum 10\n"
            "s_count 2\n"
        )
        assert obs.validate_prometheus(good) == []


class TestPipelineRetryExport:
    def test_retry_delay_exports_as_a_v2_histogram(self, tmp_path):
        """A retried source read leaves ``retry.delay_s`` as a digest
        histogram whose payload validates under ``repro.obs/v2``."""
        trace = tmp_path / "trace.csv"
        write_edge_records(
            [EdgeRecord(float(w), f"h{i % 4}", f"e{(i + w) % 7}", 1.0)
             for w in range(2) for i in range(20)],
            trace,
        )
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = SignaturePipeline(
                FlakySource(CsvRecordSource(trace), failures=1),
                CheckpointStore(tmp_path / "ckpt"),
                PipelineConfig(scheme="tt", k=3),
                sleep=lambda _s: None,
            ).run()
        assert result.report.retries == 1

        payload = build_payload(registry.snapshot())
        assert payload["schema"] == "repro.obs/v2"
        assert validate_payload(payload) == []
        entry = payload["histograms"]["retry.delay_s"]
        assert entry["count"] == 1
        assert entry["relative_accuracy"] == obs.DEFAULT_RELATIVE_ACCURACY
        assert set(entry["quantiles"]) == {"p50", "p95", "p99"}
        text = to_prometheus(registry.snapshot())
        assert "# TYPE repro_retry_delay_s summary" in text
        assert obs.validate_prometheus(text) == []
