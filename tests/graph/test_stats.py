"""Unit tests for graph summary statistics."""

import pytest

from repro.exceptions import EmptyGraphError
from repro.graph.comm_graph import CommGraph, GraphBuilder
from repro.graph.stats import (
    gini_coefficient,
    in_degree_distribution,
    out_degree_distribution,
    summarize_graph,
)


class TestGini:
    def test_equal_values_zero(self):
        assert gini_coefficient([3.0, 3.0, 3.0]) == pytest.approx(0.0)

    def test_concentrated_values_high(self):
        concentrated = gini_coefficient([0.0, 0.0, 0.0, 100.0])
        assert concentrated == pytest.approx(0.75)

    def test_empty_and_zero(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([-1.0, 2.0])

    def test_scale_invariant(self):
        values = [1.0, 2.0, 5.0]
        assert gini_coefficient(values) == pytest.approx(
            gini_coefficient([10 * v for v in values])
        )


class TestSummarize:
    def test_triangle_summary(self, triangle_graph):
        summary = summarize_graph(triangle_graph)
        assert summary.num_nodes == 3
        assert summary.num_edges == 4
        assert summary.total_weight == pytest.approx(11.0)
        assert summary.max_out_degree == 2
        assert summary.max_in_degree == 2
        assert summary.mean_edge_weight == pytest.approx(11.0 / 4)
        assert summary.max_edge_weight == 5.0

    def test_as_dict_roundtrip(self, triangle_graph):
        as_dict = summarize_graph(triangle_graph).as_dict()
        assert as_dict["num_nodes"] == 3
        assert set(as_dict) >= {"mean_out_degree", "degree_gini"}

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            summarize_graph(CommGraph())

    def test_isolated_node_graph(self):
        builder = GraphBuilder()
        builder.add_node("x")
        graph = builder.build()
        summary = summarize_graph(graph)
        assert summary.num_edges == 0
        assert summary.mean_edge_weight == 0.0

    def test_enterprise_dataset_is_heavy_tailed(self, tiny_enterprise):
        # The generator must produce the skewed in-degree structure the
        # paper attributes to communication graphs (popular services exist).
        summary = summarize_graph(tiny_enterprise.graphs[0])
        assert summary.degree_gini > 0.4
        assert summary.max_in_degree > 5 * summary.mean_in_degree


class TestDegreeDistributions:
    def test_in_degree_histogram(self, triangle_graph):
        histogram = in_degree_distribution(triangle_graph)
        assert sum(histogram.values()) == 3
        assert histogram[2] == 1  # node 'c' has two in-edges

    def test_out_degree_histogram(self, star_graph):
        histogram = out_degree_distribution(star_graph)
        assert histogram[5] == 1  # the hub
        assert histogram[0] == 5  # the spokes


class TestEffectiveDiameter:
    def test_chain_diameter(self):
        from repro.graph.stats import estimate_effective_diameter

        chain = CommGraph(
            [(f"n{i}", f"n{i+1}", 1.0) for i in range(6)]
        )
        diameter = estimate_effective_diameter(chain, sample_size=7, quantile=1.0)
        assert diameter == 6

    def test_star_diameter(self, star_graph):
        from repro.graph.stats import estimate_effective_diameter

        assert estimate_effective_diameter(star_graph, quantile=1.0) == 2

    def test_symmetrised_distances(self):
        from repro.graph.stats import estimate_effective_diameter

        # Directed chain is traversed as if undirected.
        graph = CommGraph([("a", "b", 1.0), ("c", "b", 1.0)])
        assert estimate_effective_diameter(graph, quantile=1.0) == 2

    def test_enterprise_small_world(self, tiny_enterprise):
        from repro.graph.stats import estimate_effective_diameter

        diameter = estimate_effective_diameter(
            tiny_enterprise.graphs[0], sample_size=10
        )
        # Hosts share popular services: everything is a few hops away.
        assert 2 <= diameter <= 6

    def test_validation(self):
        from repro.exceptions import EmptyGraphError
        from repro.graph.stats import estimate_effective_diameter

        with pytest.raises(EmptyGraphError):
            estimate_effective_diameter(CommGraph())
        with pytest.raises(ValueError):
            estimate_effective_diameter(CommGraph([("a", "b", 1.0)]), quantile=0.0)
