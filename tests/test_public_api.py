"""The public API surface: everything in ``repro.__all__`` is importable
and the end-to-end quickstart path works through top-level names only.

Every package exports lazily (``repro._exports``), so the surface is
pinned per package: the names, their resolution, ``dir()``, star-imports,
the error for an unknown name, and a first touch from many threads."""

import importlib
import json
import re
import types

import pytest

import repro
from test_import_footprint import run_python


class TestSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        major, *_rest = repro.__version__.split(".")
        assert int(major) >= 1

    def test_exception_hierarchy(self):
        for name in (
            "GraphError",
            "SchemeError",
            "DistanceError",
            "PerturbationError",
            "DatasetError",
            "StreamingError",
            "MatchingError",
            "ExperimentError",
        ):
            assert issubclass(getattr(repro, name), repro.ReproError)


class TestEndToEnd:
    def test_quickstart_path(self):
        g1 = repro.CommGraph([("a", "b", 5.0), ("a", "c", 2.0), ("b", "c", 1.0)])
        g2 = repro.CommGraph([("a", "b", 4.0), ("a", "d", 1.0), ("b", "c", 1.0)])
        scheme = repro.create_scheme("tt", k=10)
        distance = repro.get_distance("shel")
        value = repro.persistence(
            scheme.compute(g1, "a"), scheme.compute(g2, "a"), distance
        )
        assert 0.0 <= value <= 1.0

    def test_docstring_example_runs(self):
        """The module docstring's code block must stay executable."""
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0

    def test_generator_to_application_path(self):
        dataset = repro.EnterpriseFlowGenerator(
            num_hosts=20, num_external=200, num_services=8, num_windows=2,
            num_alias_users=3, seed=77,
        ).generate()
        detector = repro.MultiusageDetector(
            repro.create_scheme("tt", k=10), repro.get_distance("shel")
        )
        result = detector.evaluate(
            dataset.graphs[0],
            dataset.positives_by_query(),
            population=dataset.local_hosts,
        )
        assert result.mean_auc > 0.5


#: Every package's ``__all__``, as exported when every package ``__init__``
#: imported its names eagerly.
PUBLIC_NAMES = {
    "repro": """
        AnomalyDetector ApproxSignatureIndex BipartiteGraph CheckpointError CheckpointStore
        CommGraph CountMinSketch CsvRecordSource DatasetError Deanonymizer DistanceError
        EdgeRecord EnterpriseFlowGenerator EnterpriseParams ErrorBudgetExceeded ExperimentError
        FlajoletMartin GraphBuilder GraphError GraphSequence HistorySignatureBuilder InTalkers
        IterableRecordSource MasqueradeDetector MatchingError MinHasher MultiusageDetector
        PerturbationError PipelineConfig PipelineError PipelineResult QueryLogGenerator
        QueryLogParams RandomWalkWithResets ReadReport RejectedRow ReproError RetryPolicy
        RunReport SchemeError SequenceMonitor SerialExecutor Signature SignatureIndex
        SignaturePack SignaturePipeline SignatureScheme SpaceSaving StreamingError
        StreamingTopTalkers StreamingUnexpectedTalkers TopTalkers UnexpectedTalkers __version__
        aggregate_records anonymize_graph apply_masquerade available_distances available_schemes
        combine_with_decay create_scheme cross_matrix dist_dice dist_jaccard dist_scaled_dice
        dist_scaled_hellinger edges_in_build_order get_distance graph_from_edges load_signatures
        masquerade_accuracy mean_topk_overlap measure_scheme_properties pair_distances
        pairwise_matrix parallel_map persistence persistence_by_lag perturb_graph
        property_ellipse read_edge_records rebuilt relabel_graph robustness roc_identity
        roc_set_query save_signatures select_scheme split_records_into_windows summarize_graph
        uniqueness write_edge_records
    """.split(),
    "repro.apps": """
        APPLICATION_REQUIREMENTS AnomalyDetector AnomalyReport AnonymizedRelease
        DeanonymizationResult Deanonymizer MasqueradeDetectionResult MasqueradeDetector
        MonitorResult MultiusageDetector MultiusageReport Requirement SequenceMonitor
        anonymize_graph masquerade_accuracy persistence_by_lag
    """.split(),
    "repro.core": """
        ComputeEngine DistanceFunction HistorySignatureBuilder InTalkers PropertyEllipse
        PropertyProfile PushRandomWalk RandomWalkWithResets RocCurve SchemeRanking
        Signature SignaturePack SignatureScheme TopTalkers UnexpectedTalkers auc_from_ranks
        available_distances available_schemes create_scheme cross_matrix cross_pair_distances
        dist_dice dist_jaccard dist_scaled_dice dist_scaled_hellinger distance_name get_distance
        load_signatures make_engine measure_scheme_properties pair_distances pairwise_matrix
        persistence property_ellipse register_scheme resolve_distance robustness roc_identity
        roc_set_query save_signatures select_scheme signature_distances uniqueness
    """.split(),
    "repro.datasets": """
        BehaviorProfile EnterpriseDataset EnterpriseFlowGenerator EnterpriseParams
        QueryLogDataset QueryLogGenerator QueryLogParams load_graph_sequence_csv
        save_graph_sequence_csv zipf_weights
    """.split(),
    "repro.experiments": """
        ExperimentConfig derive_table4 format_fig1 format_fig2 format_fig3 format_fig4
        format_fig5 format_fig6 format_lsh_quality format_streaming_fidelity format_table4
        get_enterprise_dataset get_querylog_dataset make_schemes run_fig1 run_fig2 run_fig3
        run_fig4 run_fig5 run_fig6 run_lsh_quality run_streaming_fidelity
    """.split(),
    "repro.graph": """
        BipartiteGraph CommGraph EdgeRecord GraphBuilder GraphSequence GraphSummary ReadReport
        RejectedRow SlidingWindowAggregator aggregate_records combine_with_decay
        edges_in_build_order estimate_effective_diameter graph_from_edges read_edge_records
        rebuilt split_records_into_windows summarize_graph window_index_of write_edge_records
        write_quarantine_rows
    """.split(),
    "repro.matching": """
        ApproxSignatureIndex LshIndex MinHasher SignatureIndex estimate_jaccard_distance
    """.split(),
    "repro.obs": """
        AlertEvent AlertManager AlertRule Counter DEFAULT_QUANTILES DEFAULT_RELATIVE_ACCURACY
        DEFAULT_WINDOWS_S EXPORT_QUANTILES EventLog Gauge Histogram KIND_AVAILABILITY
        KIND_LATENCY LEVELS LatencyDigest MetricsRegistry NULL_EVENT_LOG NULL_REGISTRY
        NullEventLog NullRegistry ObsServer PROMETHEUS_CONTENT_TYPE RequestContext SCHEMA_ID
        SLOTracker Sampler Series ServiceObjective StdlibBridgeHandler TimeSeriesStore TraceSpan
        TraceStore attach_stdlib build_payload burn_rate_rule counter current_span_path
        current_trace detached_span_path emit enabled gauge get_event_log get_registry
        histogram merge_into_active new_run_id new_trace_id persistence_drop_rule read_events
        render_key span to_prometheus use_event_log use_labels use_registry use_trace validate_payload validate_prometheus write_json
        write_prometheus
    """.split(),
    "repro.parallel": """
        MapExecutor SerialExecutor ShmEngine active_segment_names attach_graph
        available_cpus effective_jobs parallel_map publish_graph
    """.split(),
    "repro.perturb": """
        MasqueradePlan apply_masquerade delete_weight_units drop_random_nodes
        insert_random_edges jitter_weights perturb_graph relabel_graph
    """.split(),
    "repro.pipeline": """
        CheckpointScan CheckpointStore CsvRecordSource IterableRecordSource MODE_CACHED
        MODE_DEGRADED MODE_EXACT PipelineConfig PipelineResult RecordSource RetryPolicy
        RunReport SignaturePipeline WindowEntry WindowReport call_with_retry mean_topk_overlap
        topk_overlap
    """.split(),
    "repro.service": """
        BoundedIngestQueue BreakSketch BreakerPolicy CircuitBreaker HEALTH_DEGRADED HEALTH_DOWN
        HEALTH_HEALTHY HEALTH_STATES KillShard STATE_CLOSED STATE_CODES STATE_HALF_OPEN
        STATE_OPEN ServiceConfig ServiceFrontend ServiceServer ShardEngine ShardFaultInjector
        ShardState ShardSupervisor SignatureService SketchTier WedgeShard corrupt_checkpoint
        parse_ingest_body query_storm service_objectives
    """.split(),
    "repro.store": """
        HistoryMatch HistoryStore IndexParams SEGMENT_MAGIC SEGMENT_SUFFIX SEGMENT_VERSION
        Segment SegmentRecord StoreScan encode_segment read_segment write_segment
    """.split(),
    "repro.streaming": """
        CountMinSketch FlajoletMartin HashFamily SpaceSaving StreamingTopTalkers
        StreamingUnexpectedTalkers stable_hash64
    """.split(),
}


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
class TestLazyExports:
    def test_all_is_pinned(self, package):
        assert set(importlib.import_module(package).__all__) == set(PUBLIC_NAMES[package])

    def test_every_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in PUBLIC_NAMES[package]:
            # A submodule bound under an exported name would hide the export.
            assert not isinstance(getattr(module, name), types.ModuleType), name
            assert name in listed, name

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(PUBLIC_NAMES[package]) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            getattr(module, "no_such_export")


FIRST_TOUCH_SCRIPT = """
import importlib, json, sys, threading

sys.setswitchinterval(1e-6)
same = {}
for package, name in json.loads(sys.argv[1]):
    module = importlib.import_module(package)
    barrier = threading.Barrier(8)
    seen = []

    def touch():
        barrier.wait()
        seen.append(getattr(module, name))

    threads = [threading.Thread(target=touch) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    same[package] = len(seen) == 8 and all(value is seen[0] for value in seen)
print(json.dumps(same))
"""


def test_threads_first_touching_a_name_get_one_object():
    """In a fresh interpreter, 8 threads read one not-yet-resolved name of
    each package at once."""
    touched = [(package, names[len(names) // 2]) for package, names in PUBLIC_NAMES.items()]
    same = json.loads(run_python(FIRST_TOUCH_SCRIPT, json.dumps(touched)))
    assert same == {package: True for package in PUBLIC_NAMES}
