"""End-to-end integration tests: the workflows a real deployment would run.

Each test exercises a complete pipeline across subsystem boundaries —
generation, CSV interchange, windowing, signature construction (exact and
streamed), detection and evaluation — asserting only externally observable
outcomes.
"""

import pytest

from repro import (
    AnomalyDetector,
    Deanonymizer,
    HistorySignatureBuilder,
    MasqueradeDetector,
    MultiusageDetector,
    SequenceMonitor,
    anonymize_graph,
    apply_masquerade,
    create_scheme,
    edges_in_build_order,
    get_distance,
    masquerade_accuracy,
    rebuilt,
)
from repro.datasets.loaders import load_graph_sequence_csv, save_graph_sequence_csv
from repro.matching.lsh import ApproxSignatureIndex
from repro.streaming.stream_schemes import StreamingTopTalkers


class TestCsvRoundTripPipeline:
    def test_detection_identical_after_round_trip(self, tmp_path, tiny_enterprise):
        """Persisting windows to CSV and reloading must not change any
        downstream detection decision."""
        path = tmp_path / "trace.csv"
        save_graph_sequence_csv(tiny_enterprise.graphs, path)
        reloaded = load_graph_sequence_csv(path, bipartite=True)

        detector = MultiusageDetector(
            create_scheme("tt", k=10), get_distance("shel"), threshold=0.6
        )
        original = detector.detect(
            tiny_enterprise.graphs[0], population=tiny_enterprise.local_hosts
        )
        round_tripped = detector.detect(
            reloaded[0], population=tiny_enterprise.local_hosts
        )
        assert original.pairs == round_tripped.pairs


class TestStreamedDetectionPipeline:
    def test_streamed_signatures_feed_lsh_alias_search(self, tiny_enterprise):
        """One-pass sketches -> LSH index -> alias retrieval, never touching
        the exact schemes."""
        graph = tiny_enterprise.graphs[0]
        streaming = StreamingTopTalkers(k=10, epsilon=0.002)
        streaming.observe_stream(graph.edges())

        index = ApproxSignatureIndex(bands=64, rows_per_band=2)
        for host in tiny_enterprise.local_hosts:
            index.add(streaming.signature(host))

        positives = tiny_enterprise.positives_by_query()
        hits = 0
        for query, siblings in positives.items():
            results = index.query(streaming.signature(query), k=len(siblings))
            found = {owner for owner, _distance in results}
            hits += len(found & set(siblings))
        total = sum(len(siblings) for siblings in positives.values())
        assert hits / total > 0.5


class TestHistoryBackedMonitoring:
    def test_coi_signatures_drive_anomaly_detection(self, tiny_enterprise):
        """History-smoothed signatures are directly usable by detectors:
        compare decayed windows of a quiet host vs an injected breaker."""
        import numpy as np

        scheme = create_scheme("tt", k=10)
        shel = get_distance("shel")
        hosts = tiny_enterprise.local_hosts
        victim = hosts[1]

        builder = HistorySignatureBuilder(scheme, decay=0.5)
        builder.push(tiny_enterprise.graphs[0])
        builder.push(tiny_enterprise.graphs[1])
        before = builder.signatures(hosts)

        window = tiny_enterprise.graphs[2]
        edges = edges_in_build_order(window)
        edges = {edge: weight for edge, weight in edges.items() if edge[0] != victim}
        rng = np.random.default_rng(0)
        for index in range(25):
            edges[victim, f"weird-{index}"] = float(rng.integers(1, 6))
        builder.push(rebuilt(window, edges))
        after = builder.signatures(hosts)

        drops = {
            host: shel(before[host], after[host]) for host in hosts
        }
        assert max(drops, key=drops.get) == victim


class TestFullInvestigationScenario:
    def test_masquerade_then_deanonymize(self, tiny_enterprise):
        """A two-stage investigation: detect that labels switched hands,
        then re-identify a pseudonymised release from the same windows."""
        g0, g1 = tiny_enterprise.graphs[0], tiny_enterprise.graphs[1]
        hosts = tiny_enterprise.local_hosts
        shel = get_distance("shel")
        scheme = create_scheme("tt", k=10)

        masqueraded, plan = apply_masquerade(g1, fraction=0.15, candidates=hosts, seed=2)
        detector = MasqueradeDetector(scheme, shel, top_matches=3, threshold_scale=3)
        detection = detector.detect(g0, masqueraded, population=hosts)
        assert masquerade_accuracy(detection, plan) > 0.8

        release = anonymize_graph(masqueraded, hosts, seed=3)
        attack = Deanonymizer(scheme, shel).attack(g0, release)
        # The masqueraded labels confuse the attack, but the bulk of the
        # population is still re-identified.
        assert attack.accuracy > 0.5

    def test_monitor_then_drill_down(self, tiny_enterprise):
        """Sequence monitoring surfaces a transition; the pairwise anomaly
        detector then reproduces the same verdict on that window pair."""
        monitor = SequenceMonitor(
            create_scheme("rwr", k=10, reset_probability=0.1, max_hops=3),
            get_distance("shel"),
            threshold=0.05,
        )
        result = monitor.run(
            tiny_enterprise.graphs, population=tiny_enterprise.local_hosts
        )
        pair_detector = AnomalyDetector(
            monitor.scheme, monitor.distance, threshold=0.05
        )
        for index, report in enumerate(result.reports):
            drill = pair_detector.detect(
                tiny_enterprise.graphs[index],
                tiny_enterprise.graphs[index + 1],
                population=tiny_enterprise.local_hosts,
            )
            assert set(drill.flagged_nodes) == set(report.flagged_nodes)
