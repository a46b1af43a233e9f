"""Unit tests for the Top Talkers scheme (Definition 3)."""

import pytest

from repro.core.top_talkers import TopTalkers
from repro.graph.comm_graph import CommGraph, GraphBuilder


class TestRelevance:
    """TT's weights, read off signatures long enough to keep every candidate."""

    def test_weights_are_volume_fractions(self, triangle_graph):
        signature = TopTalkers(k=5).compute(triangle_graph, "a")
        assert signature.weight("b") == pytest.approx(5.0 / 7.0)
        assert signature.weight("c") == pytest.approx(2.0 / 7.0)
        assert signature.total_weight == pytest.approx(1.0)

    def test_unknown_node_empty(self, triangle_graph):
        assert len(TopTalkers().compute(triangle_graph, "zzz")) == 0

    def test_silent_node_empty(self):
        builder = GraphBuilder()
        builder.add_node("mute")
        graph = builder.build()
        assert len(TopTalkers().compute(graph, "mute")) == 0

    def test_self_loop_excluded_from_weights(self):
        graph = CommGraph([("a", "a", 10.0), ("a", "b", 5.0)])
        signature = TopTalkers().compute(graph, "a")
        assert "a" not in signature
        assert signature.weight("b") == pytest.approx(1.0)

    def test_only_self_loop_gives_empty(self):
        graph = CommGraph([("a", "a", 10.0)])
        assert len(TopTalkers().compute(graph, "a")) == 0


class TestCompute:
    def test_top_k_cut(self, star_graph):
        scheme = TopTalkers(k=2)
        signature = scheme.compute(star_graph, "h")
        assert signature.nodes == {"s4", "s3"}  # weights 5 and 4

    def test_signature_shorter_when_fewer_neighbours(self, triangle_graph):
        signature = TopTalkers(k=10).compute(triangle_graph, "a")
        assert len(signature) == 2

    def test_compute_all_matches_compute(self, triangle_graph):
        scheme = TopTalkers(k=2)
        batch = scheme.compute_all(triangle_graph)
        for node in triangle_graph.nodes():
            assert batch[node] == scheme.compute(triangle_graph, node)

    def test_compute_all_subset(self, triangle_graph):
        scheme = TopTalkers(k=2)
        batch = scheme.compute_all(triangle_graph, nodes=["a"])
        assert set(batch) == {"a"}

    def test_bipartite_signatures_stay_in_right_partition(self, small_bipartite):
        scheme = TopTalkers(k=5)
        signature = scheme.compute(small_bipartite, "u1")
        assert signature.nodes <= set(small_bipartite.right_nodes)


class TestMetadata:
    def test_table3_row(self):
        scheme = TopTalkers()
        assert scheme.name == "tt"
        assert set(scheme.characteristics) == {"locality", "engagement"}
        assert set(scheme.target_properties) == {"uniqueness", "robustness"}

    def test_describe(self):
        assert TopTalkers(k=7).describe() == "tt(k=7)"
