"""Unit tests for the bipartite communication graph."""

import copy

import pytest

from repro.exceptions import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records
from repro.graph.comm_graph import GraphBuilder, edges_in_build_order, rebuilt
from repro.graph.stream import EdgeRecord
from repro.perturb import delete_weight_units, drop_random_nodes


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


class TestLoneSelfLoop:
    """A lone self-loop puts its node on both sides; a rebuild keeps it there."""

    @pytest.fixture
    def looped(self):
        return aggregate_records(
            [EdgeRecord(0, "a", "a", 2.0), EdgeRecord(0, "b", "x", 3.0)], bipartite=True
        )

    def test_identity_rebuild_is_the_same_graph(self, looped):
        graph = rebuilt(looped, edges_in_build_order(looped))
        assert graph == looped
        assert (graph.left_nodes, graph.right_nodes) == (["a", "b"], ["a", "x"])
        for mine, theirs in zip(graph.to_arrays(), looped.to_arrays()):
            assert repr(mine) == repr(theirs)

    def test_delete_weight_units(self, looped):
        graph = delete_weight_units(looped, 1, rng=0)
        assert graph.total_weight == looped.total_weight - 1
        assert graph.left_nodes == ["a", "b"]

    def test_drop_random_nodes(self, looped):
        graph = drop_random_nodes(looped, 0.3, rng=1)
        assert set(graph.nodes()) < set(looped.nodes())
        assert set(graph.left_nodes) | set(graph.right_nodes) == set(graph.nodes())

    @pytest.mark.parametrize(
        "edge", [("x", "b"), ("b", "a"), ("x", "a"), ("b", "b")],
    )
    def test_an_edge_against_the_sides_still_raises(self, looped, edge):
        with pytest.raises(GraphError, match="partition"):
            extended(looped, (*edge, 1.0))

    def test_an_out_edge_after_the_loop_raises_as_in_the_build(self, looped):
        with pytest.raises(GraphError, match="edge source 'a' is in the right partition"):
            extended(looped, ("a", "x", 1.0))
