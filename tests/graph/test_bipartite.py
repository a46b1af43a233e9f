"""Unit tests for the bipartite communication graph."""

import copy

import pytest

from repro.exceptions import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import GraphBuilder, edges_in_build_order, rebuilt


def extended(graph, *edges):
    """``graph`` plus new ``edges``, built afresh."""
    added = {(src, dst): weight for src, dst, weight in edges}
    return rebuilt(graph, {**edges_in_build_order(graph), **added})


class TestPartitions:
    def test_edge_assigns_partitions(self, small_bipartite):
        assert set(small_bipartite.left_nodes) == {"u1", "u2"}
        assert set(small_bipartite.right_nodes) == {
            "d-shared",
            "d-private1",
            "d-private2",
        }

    def test_side_lookup(self, small_bipartite):
        assert small_bipartite.side("u1") == "left"
        assert small_bipartite.side("d-shared") == "right"
        with pytest.raises(GraphError):
            small_bipartite.side("unknown")

    def test_explicit_partition_nodes(self):
        builder = GraphBuilder(bipartite=True)
        builder.add_left_node("host")
        builder.add_right_node("dest")
        graph = builder.build()
        assert isinstance(graph, BipartiteGraph)
        assert graph.side("host") == "left"
        assert graph.num_nodes == 2

    def test_partition_conflict_rejected(self):
        builder = GraphBuilder(bipartite=True)
        builder.add_edge("u1", "d-shared", 1.0)
        with pytest.raises(GraphError):
            builder.add_left_node("d-shared")
        with pytest.raises(GraphError):
            builder.add_right_node("u1")


class TestEdgeConstraint:
    def test_right_to_left_edge_rejected(self, small_bipartite):
        with pytest.raises(GraphError):
            extended(small_bipartite, ("d-shared", "u1", 1.0))

    def test_left_to_left_edge_rejected(self, small_bipartite):
        with pytest.raises(GraphError):
            extended(small_bipartite, ("u1", "u2", 1.0))

    def test_valid_edge_accepted(self, small_bipartite):
        graph = extended(small_bipartite, ("u1", "d-private2", 1.0))
        assert graph.weight("u1", "d-private2") == 1.0

    def test_new_nodes_via_edge_get_sides(self):
        graph = BipartiteGraph([("newhost", "newdest", 2.0)])
        assert graph.side("newhost") == "left"
        assert graph.side("newdest") == "right"


class TestCopyRemove:
    def test_copy_preserves_partitions(self, small_bipartite):
        clone = copy.deepcopy(small_bipartite)
        assert isinstance(clone, BipartiteGraph)
        assert clone == small_bipartite
        assert clone.left_nodes == small_bipartite.left_nodes
        assert clone.right_nodes == small_bipartite.right_nodes

    def test_copy_preserves_isolated_partition_members(self):
        builder = GraphBuilder(bipartite=True)
        builder.add_left_node("silent-host")
        clone = copy.deepcopy(builder.build())
        assert clone.side("silent-host") == "left"

    def test_remove_node_clears_partition(self, small_bipartite):
        rest = [node for node in small_bipartite.nodes() if node != "u1"]
        edges = edges_in_build_order(small_bipartite)
        edges = {edge: weight for edge, weight in edges.items() if "u1" not in edge}
        graph = rebuilt(small_bipartite, edges, rest)
        assert "u1" not in graph
        assert graph.left_nodes == ["u2"]
        with pytest.raises(GraphError):
            graph.side("u1")

    def test_unassigned_node_has_no_side(self):
        builder = GraphBuilder(bipartite=True)
        builder.add_node("loose")
        with pytest.raises(GraphError):
            builder.build().side("loose")

    def test_repr_mentions_partition_sizes(self, small_bipartite):
        text = repr(small_bipartite)
        assert "|V1|=2" in text and "|V2|=3" in text
