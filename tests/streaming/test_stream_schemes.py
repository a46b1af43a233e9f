"""Unit and integration tests for the semi-streaming signature builders."""

import pytest

from repro.core.distances import dist_jaccard
from repro.core.scheme import create_scheme
from repro.exceptions import StreamingError
from repro.streaming.stream_schemes import (
    StreamingTopTalkers,
    StreamingUnexpectedTalkers,
)


class TestParameters:
    def test_invalid_k(self):
        with pytest.raises(StreamingError):
            StreamingTopTalkers(k=0)

    def test_capacity_below_k_rejected(self):
        with pytest.raises(StreamingError):
            StreamingTopTalkers(k=10, candidate_capacity=5)

    def test_invalid_fm_registers(self):
        with pytest.raises(StreamingError):
            StreamingUnexpectedTalkers(fm_registers=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(StreamingError):
            StreamingTopTalkers().observe("a", "b", -1.0)


class TestStreamingTopTalkers:
    def test_unknown_source_empty_signature(self):
        builder = StreamingTopTalkers(k=3)
        assert len(builder.signature("ghost")) == 0

    def test_self_loops_and_zero_weights_skipped(self):
        builder = StreamingTopTalkers(k=3)
        builder.observe("a", "a", 5.0)
        builder.observe("a", "b", 0.0)
        assert builder.sources == ()

    def test_matches_exact_on_small_graph(self, triangle_graph):
        builder = StreamingTopTalkers(k=3, epsilon=0.001)
        builder.observe_stream(triangle_graph.edges())
        exact = create_scheme("tt", k=3)
        for node in triangle_graph.nodes():
            streamed = builder.signature(node)
            reference = exact.compute(triangle_graph, node)
            assert streamed.nodes == reference.nodes
            for member in reference.nodes:
                assert streamed.weight(member) == pytest.approx(
                    reference.weight(member)
                )

    def test_matches_exact_on_generated_window(self, tiny_enterprise):
        graph = tiny_enterprise.graphs[0]
        builder = StreamingTopTalkers(k=10, epsilon=0.002)
        builder.observe_stream(graph.edges())
        exact = create_scheme("tt", k=10).compute_all(
            graph, tiny_enterprise.local_hosts
        )
        distances = [
            dist_jaccard(builder.signature(host), exact[host])
            for host in tiny_enterprise.local_hosts
        ]
        assert sum(distances) / len(distances) < 0.05

    def test_estimated_edge_weight_overestimates(self, tiny_enterprise):
        graph = tiny_enterprise.graphs[0]
        builder = StreamingTopTalkers(k=10, epsilon=0.01)
        builder.observe_stream(graph.edges())
        host = tiny_enterprise.local_hosts[0]
        for destination, weight in graph.out_neighbors(host).items():
            assert builder.estimated_edge_weight(host, destination) >= weight

    def test_memory_grows_with_sources_not_stream_length(self):
        builder = StreamingTopTalkers(k=5, epsilon=0.01)
        for _ in range(50):
            builder.observe("src", "dst", 1.0)
        cells_one_source = builder.memory_cells()
        for _ in range(5000):
            builder.observe("src", "dst2", 1.0)
        assert builder.memory_cells() == cells_one_source


class TestStreamingUnexpectedTalkers:
    def test_indegree_estimation(self, tiny_enterprise):
        graph = tiny_enterprise.graphs[0]
        builder = StreamingUnexpectedTalkers(k=10)
        builder.observe_stream(graph.edges())
        # Spot-check a popular service node's in-degree estimate.
        services = [n for n in graph.right_nodes if str(n).startswith("svc-")]
        busiest = max(services, key=graph.in_degree)
        true_degree = graph.in_degree(busiest)
        assert builder.estimated_in_degree(busiest) == pytest.approx(
            true_degree, rel=0.5
        )

    def test_unseen_destination_zero_degree(self):
        builder = StreamingUnexpectedTalkers()
        assert builder.estimated_in_degree("never-seen") == 0.0

    def test_close_to_exact_ut(self, tiny_enterprise):
        graph = tiny_enterprise.graphs[0]
        builder = StreamingUnexpectedTalkers(k=10, epsilon=0.002)
        builder.observe_stream(graph.edges())
        exact = create_scheme("ut", k=10).compute_all(
            graph, tiny_enterprise.local_hosts
        )
        distances = [
            dist_jaccard(builder.signature(host), exact[host])
            for host in tiny_enterprise.local_hosts
        ]
        assert sum(distances) / len(distances) < 0.25

    def test_signature_prefers_novel_destinations(self):
        builder = StreamingUnexpectedTalkers(k=1)
        # hub: contacted by many; obscure: only by v, same volume from v.
        for source in ("x1", "x2", "x3", "x4", "x5"):
            builder.observe(source, "hub", 1.0)
        builder.observe("v", "hub", 6.0)
        builder.observe("v", "obscure", 6.0)
        assert builder.signature("v").nodes == {"obscure"}

    def test_memory_includes_indegree_sketches(self):
        ut_builder = StreamingUnexpectedTalkers(k=5)
        tt_builder = StreamingTopTalkers(k=5)
        for src, dst in (("a", "b"), ("a", "c"), ("b", "c")):
            ut_builder.observe(src, dst)
            tt_builder.observe(src, dst)
        assert ut_builder.memory_cells() > tt_builder.memory_cells()


class TestSelfLoopParity:
    """Filtering parity between the streaming builders and the exact schemes.

    Exact TT/UT exclude the self-loop from the numerator (Definition 1),
    but exact ``CommGraph.in_degree`` counts a self-loop source — so the
    streaming UT in-degree sketch must too, or exact-vs-sketch accuracy
    gates get skewed by filtering differences rather than sketch error.
    """

    def edges(self):
        return [
            ("i", "x", 5.0),
            ("i", "y", 6.0),
            ("z", "x", 1.0),
            ("z", "y", 1.0),
            ("y", "y", 1.0),
        ]

    def exact_graph(self):
        from repro.graph.comm_graph import CommGraph

        return CommGraph(self.edges())

    def test_self_loop_counts_toward_streaming_in_degree(self):
        """Regression: the streaming UT builder dropped ``src == dst``
        before the FM add, so a destination's self-loop never reached its
        in-degree estimate while exact ``in_degree`` counts it."""
        graph = self.exact_graph()
        assert graph.in_degree("y") == 3  # {i, z, y} — self-loop included
        builder = StreamingUnexpectedTalkers(k=2, epsilon=0.001)
        builder.observe_stream(graph.edges())
        assert builder.estimated_in_degree("y") == pytest.approx(
            graph.in_degree("y"), rel=0.2
        )

    def test_streamed_ranking_matches_exact(self):
        """Exact: |I(x)| = 2, |I(y)| = 3, so x (5/2) outranks y (6/3) for
        owner i.  Pre-fix the sketch saw |I(y)| ~= 2 and inverted the order."""
        graph = self.exact_graph()
        exact = create_scheme("ut", k=2).compute(graph, "i")
        assert exact.weight("x") > exact.weight("y")
        builder = StreamingUnexpectedTalkers(k=2, epsilon=0.001)
        builder.observe_stream(graph.edges())
        streamed = builder.signature("i")
        assert streamed.nodes == exact.nodes
        assert streamed.weight("x") > streamed.weight("y")

    def test_self_loop_still_excluded_from_numerator(self):
        builder = StreamingUnexpectedTalkers(k=3)
        builder.observe("a", "a", 5.0)
        assert builder.sources == ()  # no TT state from a pure self-loop
        builder.observe("a", "b", 1.0)
        assert "a" not in builder.signature("a").nodes

    def test_zero_weight_parity(self):
        """Zero-weight records materialise endpoints in the exact graph but
        contribute no edge and no in-neighbour entry; the streaming side
        drops them entirely — both yield empty signatures."""
        from repro.graph.comm_graph import CommGraph

        graph = CommGraph([("a", "b", 0.0)])
        exact = create_scheme("ut", k=3).compute(graph, "a")
        builder = StreamingUnexpectedTalkers(k=3)
        builder.observe("a", "b", 0.0)
        assert len(exact) == 0
        assert len(builder.signature("a")) == 0
        assert builder.estimated_in_degree("b") == 0.0


class TestObserveRecords:
    def test_records_match_triple_stream(self):
        from repro.graph.stream import EdgeRecord

        triples = [("a", "b", 2.0), ("a", "c", 1.0), ("b", "c", 3.0)]
        records = [
            EdgeRecord(time=0.0, src=s, dst=d, weight=w) for s, d, w in triples
        ]
        via_stream = StreamingTopTalkers(k=5, seed=1)
        via_stream.observe_stream(triples)
        via_records = StreamingTopTalkers(k=5, seed=1)
        via_records.observe_records(records)
        for node in ("a", "b"):
            assert via_stream.signature(node) == via_records.signature(node)
