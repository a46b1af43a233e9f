"""Unit tests for the In-Talkers scheme."""

import pytest

from repro.core.in_talkers import InTalkers
from repro.core.scheme import create_scheme
from repro.graph.comm_graph import CommGraph


class TestRelevance:
    def test_weights_are_incoming_fractions(self, triangle_graph):
        signature = InTalkers(k=5).compute(triangle_graph, "c")
        # c receives 2.0 from a and 1.0 from b.
        assert signature.weight("a") == pytest.approx(2.0 / 3.0)
        assert signature.weight("b") == pytest.approx(1.0 / 3.0)

    def test_mirror_of_top_talkers_on_transpose(self, triangle_graph):
        transposed = CommGraph(
            (dst, src, weight) for src, dst, weight in triangle_graph.edges()
        )
        tt = create_scheme("tt", k=5)
        it = create_scheme("it", k=5)
        for node in triangle_graph.nodes():
            assert it.compute(triangle_graph, node) == tt.compute(transposed, node)

    def test_no_incoming_edges_empty(self, star_graph):
        assert len(InTalkers(k=3).compute(star_graph, "h")) == 0

    def test_unknown_node_empty(self, triangle_graph):
        assert len(InTalkers().compute(triangle_graph, "zzz")) == 0

    def test_self_loop_excluded(self):
        graph = CommGraph([("v", "v", 5.0), ("a", "v", 1.0)])
        signature = InTalkers().compute(graph, "v")
        assert "v" not in signature
        assert signature.weight("a") == pytest.approx(1.0)

    def test_only_self_loop_empty(self):
        graph = CommGraph([("v", "v", 5.0)])
        assert len(InTalkers().compute(graph, "v")) == 0


class TestUsage:
    def test_registered(self):
        scheme = create_scheme("it", k=4)
        assert isinstance(scheme, InTalkers)
        assert scheme.describe() == "it(k=4)"

    def test_fingerprints_destination_side(self, tiny_enterprise):
        """IT gives right-partition nodes (destinations) usable signatures —
        the reason the scheme exists."""
        graph = tiny_enterprise.graphs[0]
        scheme = create_scheme("it", k=10)
        services = [n for n in graph.right_nodes if str(n).startswith("svc-")]
        busiest = max(services, key=graph.in_degree)
        signature = scheme.compute(graph, busiest)
        assert len(signature) == 10
        assert signature.nodes <= set(tiny_enterprise.local_hosts)

    def test_destination_persistence_measurable(self, tiny_enterprise):
        from repro.core.distances import dist_scaled_hellinger
        from repro.core.properties import persistence

        graph_now, graph_next = tiny_enterprise.graphs[0], tiny_enterprise.graphs[1]
        scheme = create_scheme("it", k=10)
        services = [
            n for n in graph_now.right_nodes if str(n).startswith("svc-")
        ]
        values = [
            persistence(
                scheme.compute(graph_now, service),
                scheme.compute(graph_next, service),
                dist_scaled_hellinger,
            )
            for service in services
            if service in graph_next
        ]
        # Popular services keep a stable user community across windows.
        assert sum(values) / len(values) > 0.3
