"""Unit tests for the weighted directed communication graph."""

import copy

import numpy as np
import pytest

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.comm_graph import CommGraph, GraphBuilder


class TestConstruction:
    def test_empty_graph(self):
        graph = CommGraph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.total_weight == 0.0
        assert graph.nodes() == []
        assert list(graph.edges()) == []

    def test_from_edge_list(self, triangle_graph):
        assert triangle_graph.num_nodes == 3
        assert triangle_graph.num_edges == 4
        assert triangle_graph.total_weight == pytest.approx(11.0)

    def test_add_node_is_idempotent(self):
        builder = GraphBuilder()
        builder.add_node("x")
        builder.add_node("x")
        graph = builder.build()
        assert graph.num_nodes == 1
        assert graph.out_degree("x") == 0

    def test_add_edge_accumulates_weight(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b", 2.0)
        builder.add_edge("a", "b", 3.0)
        graph = builder.build()
        assert graph.weight("a", "b") == pytest.approx(5.0)
        assert graph.num_edges == 1

    def test_zero_weight_edge_creates_nodes_only(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b", 0.0)
        graph = builder.build()
        assert graph.num_nodes == 2
        assert graph.num_edges == 0
        assert not graph.has_edge("a", "b")

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_edge("a", "b", -1.0)
        with pytest.raises(GraphError):
            CommGraph([("a", "b", -1.0)])

    def test_partitions_need_a_bipartite_builder(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_left_node("a")

    def test_build_leaves_the_builder_usable(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b", 1.0)
        first = builder.build()
        builder.add_edge("a", "c", 2.0)
        assert not first.has_edge("a", "c")
        assert builder.build().weight("a", "c") == 2.0

    def test_self_loop_allowed_at_graph_level(self):
        graph = CommGraph([("a", "a", 2.0)])
        assert graph.weight("a", "a") == 2.0
        assert graph.in_degree("a") == 1


class TestQueries:
    def test_membership_and_iteration(self, triangle_graph):
        assert "a" in triangle_graph
        assert "zzz" not in triangle_graph
        assert set(iter(triangle_graph)) == {"a", "b", "c"}
        assert len(triangle_graph) == 3

    def test_neighbour_views(self, triangle_graph):
        assert dict(triangle_graph.out_neighbors("a")) == {"b": 5.0, "c": 2.0}
        assert dict(triangle_graph.in_neighbors("c")) == {"a": 2.0, "b": 1.0}

    def test_degrees_and_strengths(self, triangle_graph):
        assert triangle_graph.out_degree("a") == 2
        assert triangle_graph.in_degree("c") == 2
        assert triangle_graph.out_strength("a") == pytest.approx(7.0)
        assert triangle_graph.in_strength("a") == pytest.approx(3.0)

    def test_missing_node_raises(self, triangle_graph):
        with pytest.raises(NodeNotFoundError):
            triangle_graph.out_neighbors("nope")
        with pytest.raises(NodeNotFoundError):
            triangle_graph.in_neighbors("nope")

    def test_weight_of_absent_edge_is_zero(self, triangle_graph):
        assert triangle_graph.weight("b", "a") == 0.0
        assert triangle_graph.weight("nope", "a") == 0.0

    def test_edge_weights_list(self, triangle_graph):
        assert sorted(triangle_graph.edge_weights()) == [1.0, 2.0, 3.0, 5.0]


class TestCopyAndEquality:
    def test_copy_is_deep(self, triangle_graph):
        clone = copy.deepcopy(triangle_graph)
        assert clone == triangle_graph and clone is not triangle_graph
        assert not np.shares_memory(clone.to_arrays().weight, triangle_graph.to_arrays().weight)

    def test_copy_preserves_isolated_nodes(self):
        builder = GraphBuilder()
        builder.add_node("lonely")
        builder.add_edge("a", "b", 1.0)
        clone = copy.deepcopy(builder.build())
        assert "lonely" in clone

    def test_equality_ignores_insertion_order(self):
        first = CommGraph([("a", "b", 1.0), ("c", "d", 2.0)])
        second = CommGraph([("c", "d", 2.0), ("a", "b", 1.0)])
        assert first == second

    def test_equality_other_type(self, triangle_graph):
        assert triangle_graph != 42


class TestMatrixConversion:
    def test_adjacency_matches_weights(self, triangle_graph):
        ordering, position = triangle_graph.node_index()
        adjacency = triangle_graph.to_adjacency_csr()
        for src, dst, weight in triangle_graph.edges():
            assert adjacency[position[src], position[dst]] == pytest.approx(weight)
        assert adjacency.sum() == pytest.approx(triangle_graph.total_weight)

    def test_transition_rows_are_stochastic_or_zero(self, triangle_graph):
        transition = triangle_graph.to_transition_csr()
        row_sums = np.asarray(transition.sum(axis=1)).ravel()
        ordering, _ = triangle_graph.node_index()
        for node, row_sum in zip(ordering, row_sums):
            if triangle_graph.out_degree(node) > 0:
                assert row_sum == pytest.approx(1.0)
            else:
                assert row_sum == 0.0

    def test_external_position_mapping(self, triangle_graph):
        ordering, position = triangle_graph.node_index()
        # Reverse the ordering and verify weights land where requested.
        reversed_position = {node: len(ordering) - 1 - i for node, i in position.items()}
        adjacency = triangle_graph.to_adjacency_csr(reversed_position)
        assert adjacency[reversed_position["a"], reversed_position["b"]] == pytest.approx(5.0)


class TestNetworkxBridge:
    def test_round_trip(self, triangle_graph):
        nx_graph = triangle_graph.to_networkx()
        back = CommGraph.from_networkx(nx_graph)
        assert back == triangle_graph

    def test_from_networkx_default_weight(self):
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_edge("x", "y")
        graph = CommGraph.from_networkx(nx_graph)
        assert graph.weight("x", "y") == 1.0

    def test_repr_mentions_sizes(self, triangle_graph):
        text = repr(triangle_graph)
        assert "|V|=3" in text and "|E|=4" in text
