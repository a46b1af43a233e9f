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
        assert combined.side("u") == "left" and combined.side("s") == "right"

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

    @pytest.mark.parametrize("decay", [0.25, 0.5, 0.7, 1.0])
    def test_weights_fall_geometrically_with_age(self, decay):
        windows = [
            CommGraph([("a", "b", 1.0), ("a", "oldest", 1.0)]),
            CommGraph([("a", "b", 1.0)]),
            CommGraph([("a", "b", 1.0)]),
        ]
        combined = combine_with_decay(windows, decay=decay)
        assert combined.weight("a", "b") == pytest.approx(1 + decay + decay**2)
        assert combined.weight("a", "oldest") == pytest.approx(decay**2)

    @pytest.mark.parametrize("decay", [0.1, 0.5, 0.7])
    def test_folding_one_window_at_a_time_matches(self, decay, triangle_graph):
        """C'_T = decay * C'_(T-1) + C_T: a stream can keep one aggregate."""
        windows = [
            triangle_graph,
            CommGraph([("a", "b", 1.0), ("c", "b", 2.0)]),
            CommGraph([("b", "a", 3.0), ("a", "d", 1.0)]),
        ]
        folded = windows[0]
        for window in windows[1:]:
            folded = combine_with_decay([folded, window], decay=decay)
        batch = combine_with_decay(windows, decay=decay)
        assert folded.nodes() == batch.nodes()
        assert folded.num_edges == batch.num_edges
        for src, dst, weight in batch.edges():
            assert folded.weight(src, dst) == pytest.approx(weight)

    def test_bipartite_sides_survive_repeated_windows(self, small_bipartite):
        combined = combine_with_decay([small_bipartite, small_bipartite])
        assert isinstance(combined, BipartiteGraph)
        assert combined.left_nodes == small_bipartite.left_nodes
        assert combined.right_nodes == small_bipartite.right_nodes

    def test_edgeless_bipartite_nodes_keep_their_sides(self):
        builder = GraphBuilder(bipartite=True)
        builder.add_left_node("quiet-user")
        builder.add_right_node("quiet-target")
        builder.add_edge("u", "t", 1.0)
        combined = combine_with_decay([builder.build(), BipartiteGraph([("u", "s", 1.0)])])
        assert combined.side("quiet-user") == "left"
        assert combined.side("quiet-target") == "right"

    def test_plain_then_bipartite_gives_plain_graph(self):
        old = CommGraph([("x", "y", 1.0)])
        new = BipartiteGraph([("u", "t", 1.0)])
        combined = combine_with_decay([old, new])
        assert not isinstance(combined, BipartiteGraph)
        assert combined.weight("u", "t") == pytest.approx(1.0)

    def test_inputs_are_left_unchanged(self, triangle_graph):
        other = CommGraph([("a", "b", 1.0)])
        before = (list(triangle_graph.edges()), list(other.edges()))
        combine_with_decay([triangle_graph, other], decay=0.5)
        assert (list(triangle_graph.edges()), list(other.edges())) == before


class TestDecayedHistorySignatures:
    """``combine_with_decay`` then ``compute_all``: the Communities-of-Interest
    signatures of Section III-A."""

    def test_signature_reflects_history(self):
        from repro.core.scheme import create_scheme

        history = [
            CommGraph([("a", "old-favourite", 10.0)]),
            CommGraph([("a", "new-contact", 1.0)]),
        ]
        decayed = combine_with_decay(history, decay=0.5)
        signature = create_scheme("tt", k=5).compute_all(decayed)["a"]
        # The decayed old favourite (5.0) still outweighs the new contact (1.0).
        assert signature.entries[0][0] == "old-favourite"
        assert "new-contact" in signature

    def test_history_smooths_churn(self, tiny_enterprise):
        """COI's point: decayed history raises persistence over single
        windows (the decay ablation bench's claim, at unit scale)."""
        from repro.core.distances import dist_scaled_hellinger
        from repro.core.scheme import create_scheme

        scheme = create_scheme("tt", k=10)
        hosts = tiny_enterprise.local_hosts
        graphs = list(tiny_enterprise.graphs)

        def mean_persistence(now, later):
            now, later = scheme.compute_all(now, hosts), scheme.compute_all(later, hosts)
            return sum(1 - dist_scaled_hellinger(now[h], later[h]) for h in hosts) / len(hosts)

        plain = mean_persistence(graphs[1], graphs[2])
        smoothed = mean_persistence(
            combine_with_decay(graphs[:2], decay=0.5), combine_with_decay(graphs[:3], decay=0.5)
        )
        assert smoothed > plain

    @pytest.mark.parametrize("scheme_name", ["tt", "ut", "it", "rwr"])
    def test_every_scheme_reads_the_decayed_graph(self, scheme_name):
        """Any base scheme over the decayed graph is that scheme over a
        graph built directly with the decayed weights."""
        from repro.core.scheme import create_scheme

        history = [
            CommGraph([("a", "b", 4.0), ("a", "c", 8.0), ("b", "c", 2.0)]),
            CommGraph([("a", "b", 2.0), ("c", "a", 1.0), ("b", "d", 3.0)]),
        ]
        expected = CommGraph(
            [("a", "b", 4.0), ("a", "c", 4.0), ("b", "c", 1.0), ("c", "a", 1.0), ("b", "d", 3.0)]
        )
        scheme = create_scheme(scheme_name, k=3)
        got = scheme.compute_all(combine_with_decay(history, decay=0.5), ["a", "b"])
        want = scheme.compute_all(expected, ["a", "b"])
        assert set(got) == {"a", "b"}
        for node in ("a", "b"):
            assert [entry for entry, _ in got[node]] == [entry for entry, _ in want[node]]
            for (_, weight), (_, reference) in zip(got[node], want[node]):
                assert weight == pytest.approx(reference)

    @pytest.mark.parametrize("scheme_name", ["tt", "ut", "it", "rwr"])
    def test_folded_history_gives_the_same_signatures(self, scheme_name, tiny_enterprise):
        """Folding windows in one at a time, as a stream would, gives the
        signatures of the batch combination."""
        from repro.core.scheme import create_scheme

        scheme = create_scheme(scheme_name, k=10)
        hosts = tiny_enterprise.local_hosts
        graphs = list(tiny_enterprise.graphs)
        folded = combine_with_decay([combine_with_decay(graphs[:2]), graphs[2]])
        got = scheme.compute_all(folded, hosts)
        want = scheme.compute_all(combine_with_decay(graphs[:3]), hosts)
        assert set(got) == set(want) == set(hosts)
        for host in hosts:
            assert [entry for entry, _ in got[host]] == [entry for entry, _ in want[host]]
            for (_, weight), (_, reference) in zip(got[host], want[host]):
                assert weight == pytest.approx(reference)
