"""Unit and integration tests for anomaly detection."""

import numpy as np
import pytest

from repro.apps.anomaly import AnomalyDetector
from repro.core.distances import dist_scaled_hellinger
from repro.core.scheme import create_scheme
from repro.exceptions import ExperimentError
from repro.graph.comm_graph import edges_in_build_order, rebuilt


@pytest.fixture
def detector():
    return AnomalyDetector(
        create_scheme("tt", k=10), dist_scaled_hellinger, zscore_cutoff=3.0
    )


def inject_behaviour_replacement(graph, node, seed=0, contacts=25):
    """Replace a node's outgoing edges with fresh random destinations."""
    rng = np.random.default_rng(seed)
    edges = edges_in_build_order(graph)
    edges = {edge: weight for edge, weight in edges.items() if edge[0] != node}
    for index in range(contacts):
        edges[node, f"anomalous-dst-{index}"] = float(rng.integers(1, 6))
    return rebuilt(graph, edges)


class TestParameters:
    def test_invalid_threshold(self):
        with pytest.raises(ExperimentError):
            AnomalyDetector(create_scheme("tt"), dist_scaled_hellinger, threshold=2.0)

    def test_invalid_zscore(self):
        with pytest.raises(ExperimentError):
            AnomalyDetector(
                create_scheme("tt"), dist_scaled_hellinger, zscore_cutoff=0.0
            )

    def test_empty_population(self, detector):
        from repro.graph.comm_graph import CommGraph

        with pytest.raises(ExperimentError):
            detector.detect(CommGraph(), CommGraph(), population=[])


class TestDetect:
    def test_quiet_population_few_flags(self, detector, tiny_enterprise):
        report = detector.detect(
            tiny_enterprise.graphs[0],
            tiny_enterprise.graphs[1],
            population=tiny_enterprise.local_hosts,
        )
        assert len(report.anomalies) <= 0.1 * len(tiny_enterprise.local_hosts)

    def test_injected_anomaly_flagged(self, detector, tiny_enterprise):
        hosts = tiny_enterprise.local_hosts
        victim = hosts[3]
        modified = inject_behaviour_replacement(
            tiny_enterprise.graphs[1], victim, seed=1
        )
        report = detector.detect(
            tiny_enterprise.graphs[0], modified, population=hosts
        )
        assert victim in report.flagged_nodes
        # And it is the worst offender.
        assert report.anomalies[0].node == victim

    def test_absolute_threshold_mode(self, tiny_enterprise):
        detector = AnomalyDetector(
            create_scheme("tt", k=10), dist_scaled_hellinger, threshold=0.99
        )
        report = detector.detect(
            tiny_enterprise.graphs[0],
            tiny_enterprise.graphs[1],
            population=tiny_enterprise.local_hosts,
        )
        # Nearly everyone has persistence below 0.99 -> nearly all flagged.
        assert len(report.anomalies) > 0.9 * len(tiny_enterprise.local_hosts)

    def test_report_statistics_consistent(self, detector, tiny_enterprise):
        report = detector.detect(
            tiny_enterprise.graphs[0],
            tiny_enterprise.graphs[1],
            population=tiny_enterprise.local_hosts,
        )
        values = list(report.persistence_by_node.values())
        assert report.median_persistence == pytest.approx(float(np.median(values)))
        assert all(0 <= value <= 1 for value in values)

    def test_anomalies_sorted_worst_first(self, detector, tiny_enterprise):
        hosts = tiny_enterprise.local_hosts
        modified = inject_behaviour_replacement(
            tiny_enterprise.graphs[1], hosts[0], seed=2
        )
        modified = inject_behaviour_replacement(modified, hosts[1], seed=3)
        report = detector.detect(tiny_enterprise.graphs[0], modified, population=hosts)
        scores = [anomaly.persistence for anomaly in report.anomalies]
        assert scores == sorted(scores)


class TestRank:
    def test_rank_covers_population(self, detector, tiny_enterprise):
        ranked = detector.rank(
            tiny_enterprise.graphs[0],
            tiny_enterprise.graphs[1],
            population=tiny_enterprise.local_hosts,
        )
        assert len(ranked) == len(tiny_enterprise.local_hosts)
        values = [value for _node, value in ranked]
        assert values == sorted(values)

    def test_injected_anomaly_ranks_first(self, detector, tiny_enterprise):
        hosts = tiny_enterprise.local_hosts
        victim = hosts[5]
        modified = inject_behaviour_replacement(
            tiny_enterprise.graphs[1], victim, seed=4
        )
        ranked = detector.rank(tiny_enterprise.graphs[0], modified, population=hosts)
        assert ranked[0][0] == victim
