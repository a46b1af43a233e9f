"""Unit tests for record aggregation and decay combination."""

import pytest

from repro.exceptions import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records, combine_with_decay, graph_from_edges
from repro.graph.comm_graph import CommGraph, GraphBuilder
from repro.graph.stream import EdgeRecord


class TestAggregateRecords:
    def test_sums_weights_per_pair(self):
        records = [
            EdgeRecord(time=0.0, src="a", dst="b", weight=2.0),
            EdgeRecord(time=1.0, src="a", dst="b", weight=3.0),
            EdgeRecord(time=2.0, src="a", dst="c", weight=1.0),
        ]
        graph = aggregate_records(records)
        assert graph.weight("a", "b") == pytest.approx(5.0)
        assert graph.weight("a", "c") == pytest.approx(1.0)
        assert graph.num_edges == 2

    def test_empty_records(self):
        graph = aggregate_records([])
        assert graph.num_nodes == 0

    def test_bipartite_flag(self):
        records = [EdgeRecord(time=0.0, src="u", dst="t", weight=1.0)]
        graph = aggregate_records(records, bipartite=True)
        assert isinstance(graph, BipartiteGraph)
        assert graph.side("u") == "left"


class TestGraphFromEdges:
    def test_plain(self):
        graph = graph_from_edges([("a", "b", 1.0)])
        assert isinstance(graph, CommGraph)
        assert not isinstance(graph, BipartiteGraph)

    def test_bipartite(self):
        graph = graph_from_edges([("a", "b", 1.0)], bipartite=True)
        assert isinstance(graph, BipartiteGraph)


class TestCombineWithDecay:
    def test_single_graph_identity(self, triangle_graph):
        combined = combine_with_decay([triangle_graph], decay=0.5)
        assert combined == triangle_graph

    def test_two_windows_decay(self):
        old = CommGraph([("a", "b", 4.0)])
        new = CommGraph([("a", "b", 2.0), ("a", "c", 2.0)])
        combined = combine_with_decay([old, new], decay=0.5)
        # old contributes 0.5 * 4 = 2; new contributes full weight.
        assert combined.weight("a", "b") == pytest.approx(4.0)
        assert combined.weight("a", "c") == pytest.approx(2.0)

    def test_decay_one_is_plain_sum(self):
        old = CommGraph([("a", "b", 4.0)])
        new = CommGraph([("a", "b", 2.0)])
        combined = combine_with_decay([old, new], decay=1.0)
        assert combined.weight("a", "b") == pytest.approx(6.0)

    def test_preserves_isolated_nodes(self):
        builder = GraphBuilder()
        builder.add_node("silent")
        old = builder.build()
        new = CommGraph([("a", "b", 1.0)])
        combined = combine_with_decay([old, new])
        assert "silent" in combined

    def test_bipartite_inputs_give_bipartite_output(self):
        old = BipartiteGraph([("u", "t", 1.0)])
        new = BipartiteGraph([("u", "s", 1.0)])
        combined = combine_with_decay([old, new])
        assert isinstance(combined, BipartiteGraph)

    def test_mixed_inputs_give_plain_graph(self):
        old = BipartiteGraph([("u", "t", 1.0)])
        new = CommGraph([("x", "y", 1.0)])
        combined = combine_with_decay([old, new])
        assert not isinstance(combined, BipartiteGraph)

    def test_empty_sequence_rejected(self):
        with pytest.raises(GraphError):
            combine_with_decay([])

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_invalid_decay_rejected(self, decay, triangle_graph):
        with pytest.raises(GraphError):
            combine_with_decay([triangle_graph], decay=decay)
