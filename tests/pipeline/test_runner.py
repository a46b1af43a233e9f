"""Unit tests for the fault-tolerant pipeline runner."""

import pytest

from repro.core.scheme import create_scheme
from repro.exceptions import ErrorBudgetExceeded, PipelineError
from repro.graph.builders import aggregate_records, graph_from_edges
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.graph.windows import canonical_order
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    IterableRecordSource,
    PipelineConfig,
    SignaturePipeline,
    mean_topk_overlap,
)
from repro.pipeline.faults import FlakyCheckpointStore, FlakySource
from repro.pipeline.report import MODE_CACHED, MODE_DEGRADED, MODE_EXACT


def make_records(num_windows=3, hosts=5, per_window=40):
    records = []
    for window in range(num_windows):
        for i in range(per_window):
            records.append(
                EdgeRecord(
                    time=float(window),
                    src=f"h{i % hosts}",
                    dst=f"e{(i * 3 + window) % 11}",
                    weight=1.0 + i % 4,
                )
            )
    return records


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_edge_records(make_records(), path)
    return path


def make_pipeline(trace, tmp_path, config=None, **kwargs):
    return SignaturePipeline(
        CsvRecordSource(trace),
        CheckpointStore(tmp_path / "ckpt"),
        config or PipelineConfig(scheme="tt", k=5),
        **kwargs,
    )


class TestConfigValidation:
    def test_bad_k(self):
        with pytest.raises(PipelineError):
            PipelineConfig(k=0)

    def test_both_window_specs(self):
        with pytest.raises(PipelineError):
            PipelineConfig(num_windows=3, window_length=1.0)

    def test_bad_budgets(self):
        with pytest.raises(PipelineError):
            PipelineConfig(error_budget=-0.1)
        with pytest.raises(PipelineError):
            PipelineConfig(max_memory_cells=0)
        # The per-window deadline is gone: it was checked only after the
        # exact computation had returned.
        with pytest.raises(TypeError):
            PipelineConfig(window_deadline=0.0)


class TestRun:
    def test_exact_run_matches_direct_computation(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path).run()
        assert len(result.signatures) == 3
        assert all(w.mode == MODE_EXACT for w in result.report.windows)
        # Window 0 must equal computing the scheme by hand.
        records = [r for r in make_records() if r.time == 0.0]
        graph = aggregate_records(records)
        scheme = create_scheme("tt", k=5)
        for owner, signature in result.signatures[0].items():
            assert signature == scheme.compute(graph, owner)

    @pytest.mark.parametrize(
        "scheme,params",
        [("tt", {}), ("ut", {}), ("rwr-push", {}), ("rwr", {"max_hops": 3})],
    )
    def test_windows_equal_per_owner_compute(self, trace, tmp_path, scheme, params):
        # Every window, batched through compute_all, equals the scheme's
        # compute, one owner at a time, on a reference build of that
        # window's records.
        config = PipelineConfig(scheme=scheme, k=5, scheme_params=params)
        result = make_pipeline(trace, tmp_path, config).run()
        reference = create_scheme(scheme, k=5, **params)
        for window, signatures in enumerate(result.signatures):
            records = canonical_order([r for r in make_records() if r.time == window])
            graph = graph_from_edges((r.src, r.dst, r.weight) for r in records)
            assert signatures == {
                owner: reference.compute(graph, owner) for owner in graph.senders()
            }

    def test_integer_times_define_windows(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path).run()
        assert [w.num_records for w in result.report.windows] == [40, 40, 40]

    def test_num_windows_split(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, num_windows=2)
        result = make_pipeline(trace, tmp_path, config).run()
        assert len(result.report.windows) == 2

    def test_non_integer_times_require_window_spec(self, tmp_path):
        source = IterableRecordSource([(0.5, "a", "b", 1.0)])
        pipeline = SignaturePipeline(
            source, CheckpointStore(tmp_path / "ckpt"), PipelineConfig()
        )
        with pytest.raises(PipelineError):
            pipeline.run()

    def test_empty_source_produces_empty_result(self, tmp_path):
        source = IterableRecordSource([])
        result = SignaturePipeline(
            source, CheckpointStore(tmp_path / "ckpt"), PipelineConfig()
        ).run()
        assert result.signatures == []

    def test_fresh_run_clears_stale_checkpoints(self, trace, tmp_path):
        pipeline = make_pipeline(trace, tmp_path)
        pipeline.run()
        result = pipeline.run()  # fresh again, not resumed
        assert result.report.resumed_from is None
        assert all(w.mode == MODE_EXACT for w in result.report.windows)

    @pytest.mark.parametrize("bipartite", [False, True], ids=["general", "bipartite"])
    @pytest.mark.parametrize("scheme", ["tt", "ut"])
    def test_full_window_builds_no_dict_rows(
        self, trace, tmp_path, monkeypatch, scheme, bipartite
    ):
        # A fresh window is built from its columns, never by the per-record
        # fallback, and its TT/UT kernel reads their CSR rows.
        from repro.graph import builders
        from repro.pipeline import runner

        graphs = []

        def build(records, bipartite=False):
            graphs.append(aggregate_records(records, bipartite=bipartite))
            return graphs[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("a window fell back to the per-record builder")

        monkeypatch.setattr(runner, "aggregate_records", build)
        monkeypatch.setattr(builders, "graph_from_edges", refuse)
        config = PipelineConfig(scheme=scheme, k=5, bipartite=bipartite)
        result = make_pipeline(trace, tmp_path, config).run()
        assert len(graphs) == 3
        assert all(w.mode == MODE_EXACT for w in result.report.windows)
        assert result.signatures[0]


class TestErrorBudget:
    def make_dirty_source(self, bad=3, good=97):
        items = [(float(i % 2), f"h{i % 4}", f"e{i % 7}", 1.0) for i in range(good)]
        items += [("garbage", "x", "y", "z")] * bad
        return IterableRecordSource(items, errors="skip")

    def test_within_budget_passes(self, tmp_path):
        source = self.make_dirty_source(bad=3)
        config = PipelineConfig(error_budget=0.05)
        result = SignaturePipeline(
            source, CheckpointStore(tmp_path / "c"), config
        ).run()
        assert result.report.records_rejected == 3

    def test_fraction_budget_trips(self, tmp_path):
        source = self.make_dirty_source(bad=10)
        config = PipelineConfig(error_budget=0.05)
        with pytest.raises(ErrorBudgetExceeded) as excinfo:
            SignaturePipeline(source, CheckpointStore(tmp_path / "c"), config).run()
        assert excinfo.value.rejected == 10

    def test_absolute_budget_trips(self, tmp_path):
        source = self.make_dirty_source(bad=3)
        config = PipelineConfig(error_budget=2)
        with pytest.raises(ErrorBudgetExceeded):
            SignaturePipeline(source, CheckpointStore(tmp_path / "c"), config).run()

    def test_budget_is_catchable_as_pipeline_error(self, tmp_path):
        source = self.make_dirty_source(bad=10)
        config = PipelineConfig(error_budget=0.01)
        with pytest.raises(PipelineError):
            SignaturePipeline(source, CheckpointStore(tmp_path / "c"), config).run()


class TestDegradation:
    def test_memory_budget_degrades_to_streaming(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        result = make_pipeline(trace, tmp_path, config).run()
        assert result.report.degraded_windows == [0, 1, 2]
        for window in result.report.windows:
            assert window.mode == MODE_DEGRADED
            assert "memory budget" in window.reason

    def test_degraded_signatures_stay_close_to_exact(self, trace, tmp_path):
        exact = make_pipeline(trace, tmp_path / "a").run()
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        degraded = make_pipeline(trace, tmp_path / "b", config).run()
        for window in range(3):
            overlap = mean_topk_overlap(
                exact.signatures[window], degraded.signatures[window]
            )
            assert overlap >= 0.9

    def test_degradation_recorded_in_checkpoint_mode(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        pipeline = make_pipeline(trace, tmp_path, config)
        pipeline.run()
        scan = pipeline.store.scan()
        assert all(entry.mode == MODE_DEGRADED for entry in scan.good)

    def test_non_streaming_scheme_notes_fallback(self, trace, tmp_path):
        config = PipelineConfig(
            scheme="rwr",
            k=5,
            max_memory_cells=10,
            scheme_params={"reset_probability": 0.1, "max_hops": 2},
        )
        result = make_pipeline(trace, tmp_path, config).run()
        assert all("approximates 'tt'" in w.reason for w in result.report.windows)


class TestTransientFailures:
    def test_flaky_source_is_retried(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=2)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        result = pipeline.run()
        assert result.report.retries == 2
        assert len(result.report.windows) == 3

    def test_flaky_store_is_retried(self, trace, tmp_path):
        store = FlakyCheckpointStore(tmp_path / "ckpt", failures=1)
        pipeline = SignaturePipeline(
            CsvRecordSource(trace),
            store,
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        result = pipeline.run()
        assert result.report.retries == 1
        assert store.scan().next_window == 3

    def test_persistent_failure_escapes_after_retries(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=100)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        with pytest.raises(OSError):
            pipeline.run()


class TestResume:
    def test_resume_with_no_checkpoints_runs_everything(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path).run(resume=True)
        assert result.report.resumed_from is None
        assert len(result.signatures) == 3

    def test_resume_replays_prefix(self, trace, tmp_path):
        pipeline = make_pipeline(trace, tmp_path)
        full = pipeline.run()
        resumed = make_pipeline(trace, tmp_path).run(resume=True)
        assert resumed.report.resumed_from == 3
        assert all(w.mode == MODE_CACHED for w in resumed.report.windows)
        assert resumed.signatures == full.signatures


class TestRunObservability:
    """The run report's metrics block and the obs merge contract."""

    def test_report_metrics_always_populated(self, trace, tmp_path):
        # No registry active: the run still collects its own counters.
        result = make_pipeline(trace, tmp_path).run()
        metrics = result.report.metrics
        assert metrics["pipeline.records_accepted"] == 120
        assert metrics["pipeline.windows{mode=exact}"] == 3
        assert metrics["pipeline.checkpoint_writes"] == 3
        assert "pipeline.records_rejected" not in metrics
        assert result.report.to_dict()["metrics"] == metrics

    def test_retries_and_kernel_traffic_counted(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=2)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        metrics = pipeline.run().report.metrics
        assert metrics["pipeline.retries{op=read}"] == 2
        assert metrics["retry.transient_failures"] == 2

    def test_resume_counts_cached_windows(self, trace, tmp_path):
        make_pipeline(trace, tmp_path).run()
        resumed = make_pipeline(trace, tmp_path).run(resume=True)
        metrics = resumed.report.metrics
        assert metrics["pipeline.windows{mode=cached}"] == 3
        assert "pipeline.windows{mode=exact}" not in metrics

    def test_degradation_counted(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        metrics = make_pipeline(trace, tmp_path, config).run().report.metrics
        assert metrics["pipeline.degradations"] == 3
        assert metrics[f"pipeline.windows{{mode={MODE_DEGRADED}}}"] == 3

    def test_merges_into_parent_registry_under_active_span(self, trace, tmp_path):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("driver"):
                result = make_pipeline(trace, tmp_path).run()
        assert registry.counter_value("pipeline.records_accepted") == 120
        paths = {tuple(r["path"]) for r in registry.snapshot()["spans"]}
        assert ("driver", "pipeline.run{scheme=tt}") in paths
        assert ("driver", "pipeline.run{scheme=tt}", "pipeline.window") in paths
        # The report still carries its own copy.
        assert result.report.metrics["pipeline.records_accepted"] == 120


class TestLiveObservability:
    """Event-log routing, and a caller's hook, server and sampler seeing
    the run live."""

    def run_with_log(self, pipeline):
        import io
        import json

        from repro import obs

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="p", clock=lambda: 0.0)
        with obs.use_event_log(log):
            result = pipeline.run()
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        return result, events

    def test_run_brackets_and_window_events(self, trace, tmp_path):
        _result, events = self.run_with_log(make_pipeline(trace, tmp_path))
        names = [event["event"] for event in events]
        assert names[0] == "pipeline.run.start"
        assert names[-1] == "pipeline.run.finish"
        windows = [event for event in events if event["event"] == "pipeline.window"]
        assert [event["window"] for event in windows] == [0, 1, 2]
        assert all(
            event["span"].startswith("pipeline.run{scheme=tt}") for event in windows
        )

    def test_retry_warnings_routed(self, trace, tmp_path):
        source = FlakySource(CsvRecordSource(trace), failures=2)
        pipeline = SignaturePipeline(
            source,
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=5),
            sleep=lambda _s: None,
        )
        _result, events = self.run_with_log(pipeline)
        retries = [event for event in events if event["event"] == "pipeline.retry"]
        assert len(retries) == 2
        assert all(event["level"] == "warning" for event in retries)
        assert all(event["op"] == "read" for event in retries)
        assert [event["attempt"] for event in retries] == [1, 2]

    def test_quarantine_warning_routed(self, tmp_path):
        items = [(float(i % 2), f"h{i % 4}", f"e{i % 7}", 1.0) for i in range(50)]
        items += [("garbage", "x", "y", "z")] * 2
        pipeline = SignaturePipeline(
            IterableRecordSource(items, errors="skip"),
            CheckpointStore(tmp_path / "c"),
            PipelineConfig(error_budget=0.1),
        )
        _result, events = self.run_with_log(pipeline)
        [event] = [e for e in events if e["event"] == "pipeline.records_rejected"]
        assert event["level"] == "warning"
        assert event["rejected"] == 2
        assert len(event["rows"]) == 2

    def test_error_budget_event_routed(self, tmp_path):
        items = [(float(i % 2), f"h{i % 4}", f"e{i % 7}", 1.0) for i in range(50)]
        items += [("garbage", "x", "y", "z")] * 10
        pipeline = SignaturePipeline(
            IterableRecordSource(items, errors="skip"),
            CheckpointStore(tmp_path / "c"),
            PipelineConfig(error_budget=0.05),
        )
        import io
        import json

        from repro import obs

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="p", clock=lambda: 0.0)
        with obs.use_event_log(log):
            with pytest.raises(ErrorBudgetExceeded):
                pipeline.run()
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        [budget] = [
            e for e in events if e["event"] == "pipeline.error_budget_exceeded"
        ]
        assert budget["level"] == "error"
        assert budget["rejected"] == 10

    def test_degradation_warning_routed(self, trace, tmp_path):
        config = PipelineConfig(scheme="tt", k=5, max_memory_cells=10)
        _result, events = self.run_with_log(make_pipeline(trace, tmp_path, config))
        degraded = [e for e in events if e["event"] == "pipeline.degraded"]
        assert [event["window"] for event in degraded] == [0, 1, 2]
        assert all("memory budget" in event["reason"] for event in degraded)

    @pytest.mark.parametrize("scheme", ["tt", "ut"])
    def test_degradation_event_reports_sketch_size(self, trace, tmp_path, scheme):
        """``pipeline.degraded`` carries the budget and the cells of the
        sketch that replaced the graph, as the builder counts them."""
        from repro.graph.batch import LabelTable, RecordBatch
        from repro.streaming.stream_schemes import sketch_window

        config = PipelineConfig(scheme=scheme, k=5, max_memory_cells=10)
        _result, events = self.run_with_log(make_pipeline(trace, tmp_path, config))
        degraded = [e for e in events if e["event"] == "pipeline.degraded"]
        assert [event["budget"] for event in degraded] == [10, 10, 10]
        for event in degraded:
            window = [r for r in make_records() if r.time == float(event["window"])]
            batch = RecordBatch.from_records(window, LabelTable()).canonical()
            builder = sketch_window(
                scheme,
                [batch],
                k=5,
                epsilon=config.streaming_epsilon,
                delta=config.streaming_delta,
                seed=config.seed,
            )
            assert event["sketch_cells"] == builder.memory_cells() > 10

    def test_resume_event_routed(self, trace, tmp_path):
        make_pipeline(trace, tmp_path).run()
        _result, events = self.run_with_log(
            make_pipeline(trace, tmp_path)
        )  # fresh run emits no resume event
        assert not [e for e in events if e["event"] == "pipeline.resumed"]
        import io
        import json

        from repro import obs

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="p", clock=lambda: 0.0)
        with obs.use_event_log(log):
            make_pipeline(trace, tmp_path).run(resume=True)
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        [resumed] = [e for e in events if e["event"] == "pipeline.resumed"]
        assert resumed["windows"] == 3

    def test_window_hook_samples_a_per_window_trajectory(self, trace, tmp_path):
        from repro import obs

        registry = obs.MetricsRegistry()
        series = obs.TimeSeriesStore()
        pipeline = make_pipeline(
            trace, tmp_path, hooks=[lambda _window, _report: series.sample(registry)]
        )
        with obs.use_registry(registry):
            pipeline.run()
        trajectory = series.to_dict()
        exact = trajectory["pipeline.windows{mode=exact}"]
        assert [value for _t, value in exact] == [1.0, 2.0, 3.0]
        assert trajectory["pipeline.records_accepted"][-1][1] == 120.0

    def test_caller_server_serves_the_run_mid_run(self, trace, tmp_path):
        import urllib.request

        from repro import obs

        registry = obs.MetricsRegistry()
        scrapes = []

        class SpyStore(CheckpointStore):
            """Scrapes the caller's server from inside the run: each
            checkpoint write happens mid-run."""

            def save_window(self, window, signatures, meta, mode):
                with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as reply:
                    scrapes.append(reply.read().decode("utf-8"))
                return super().save_window(window, signatures, meta, mode=mode)

        pipeline = SignaturePipeline(
            CsvRecordSource(trace), SpyStore(tmp_path / "ckpt"), PipelineConfig(scheme="tt", k=5)
        )
        with obs.use_registry(registry), obs.ObsServer(registry, port=0) as server:
            result = pipeline.run()
        assert len(scrapes) == 3
        for body in scrapes:
            assert obs.validate_prometheus(body) == []
        # The last write follows two closed windows, already in the registry.
        assert "repro_pipeline_windows_total" in scrapes[-1]
        assert result.report.metrics["pipeline.windows{mode=exact}"] == 3

    def test_caller_sampler_records_the_run(self, trace, tmp_path):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            sampler = obs.Sampler(registry, interval=0.005).start()
            make_pipeline(trace, tmp_path).run()
            series = sampler.stop().to_dict()
        assert series["pipeline.records_accepted"][-1][1] == 120.0

    def test_config_validation(self):
        # The run records into the caller's registry; serving and sampling
        # it are the caller's, so the config has no fields for them.
        with pytest.raises(TypeError):
            PipelineConfig(obs_port=0)
        with pytest.raises(TypeError):
            PipelineConfig(sample_interval=1.0)


class TestNodeLabels:
    def test_non_string_label_refused_before_its_window_is_checkpointed(
        self, tmp_path
    ):
        # Checkpoint segments store string labels only: the run names the
        # first window with another label, and writes nothing for it.
        rows = [(0.0, "a", "b", 1.0), (1.0, "a", "b", 1.0), (1.0, 1, "b", 2.0)]
        store = CheckpointStore(tmp_path / "ckpt")
        pipeline = SignaturePipeline(
            IterableRecordSource(rows), store, PipelineConfig(scheme="tt", k=3)
        )
        with pytest.raises(PipelineError, match="window 1: node label 1 is a int"):
            pipeline.run()
        assert [entry.window for entry in store.scan().good] == [0]

    def test_non_string_label_refused_in_a_degraded_window(self, tmp_path):
        rows = [(0.0, "a", 2, 1.0), (0.0, "a", "c", 1.0)]
        pipeline = SignaturePipeline(
            IterableRecordSource(rows),
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(scheme="tt", k=3, max_memory_cells=1),
        )
        with pytest.raises(PipelineError, match="window 0: node label 2 is a int"):
            pipeline.run()
