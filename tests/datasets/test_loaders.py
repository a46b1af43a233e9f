"""Unit tests for graph-sequence CSV persistence."""

import pytest

from repro.datasets.loaders import load_graph_sequence_csv, save_graph_sequence_csv
from repro.exceptions import DatasetError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, GraphBuilder
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.graph.windows import GraphSequence


def make_sequence():
    return GraphSequence(
        graphs=[
            CommGraph([("a", "b", 2.0), ("b", "c", 1.0)]),
            CommGraph([("a", "b", 3.0)]),
        ]
    )


class TestRoundTrip:
    def test_basic_round_trip(self, tmp_path):
        sequence = make_sequence()
        path = tmp_path / "sequence.csv"
        written = save_graph_sequence_csv(sequence, path)
        assert written == 3
        loaded = load_graph_sequence_csv(path)
        assert len(loaded) == 2
        assert loaded[0].weight("a", "b") == pytest.approx(2.0)
        assert loaded[1].weight("a", "b") == pytest.approx(3.0)

    def test_bipartite_round_trip(self, tmp_path, tiny_enterprise):
        path = tmp_path / "enterprise.csv"
        save_graph_sequence_csv(tiny_enterprise.graphs, path)
        loaded = load_graph_sequence_csv(path, bipartite=True)
        assert len(loaded) == len(tiny_enterprise.graphs)
        assert isinstance(loaded[0], BipartiteGraph)
        # Edge weights survive exactly (node labels were strings already).
        original = tiny_enterprise.graphs[0]
        for src, dst, weight in original.edges():
            assert loaded[0].weight(src, dst) == pytest.approx(weight)

    def test_gap_produces_empty_window(self, tmp_path):
        records = [
            EdgeRecord(time=0.0, src="a", dst="b", weight=1.0),
            EdgeRecord(time=2.0, src="c", dst="d", weight=1.0),
        ]
        path = tmp_path / "gap.csv"
        write_edge_records(records, path)
        loaded = load_graph_sequence_csv(path)
        assert len(loaded) == 3
        assert loaded[1].num_edges == 0

    def test_isolated_nodes_documented_loss(self, tmp_path):
        builder = GraphBuilder()
        builder.add_edge("a", "b", 1.0)
        builder.add_node("lonely")
        graph = builder.build()
        path = tmp_path / "iso.csv"
        save_graph_sequence_csv(GraphSequence(graphs=[graph]), path)
        loaded = load_graph_sequence_csv(path)
        assert "lonely" not in loaded[0]


class TestValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_edge_records([], path)
        with pytest.raises(DatasetError):
            load_graph_sequence_csv(path)

    def test_fractional_window_index_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        write_edge_records([EdgeRecord(time=0.5, src="a", dst="b")], path)
        with pytest.raises(DatasetError):
            load_graph_sequence_csv(path)

    def test_negative_window_index_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        write_edge_records([EdgeRecord(time=-1.0, src="a", dst="b")], path)
        with pytest.raises(DatasetError):
            load_graph_sequence_csv(path)
