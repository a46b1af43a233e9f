"""Unit tests for the local-push approximate RWR scheme."""

import pytest

from repro.core.distances import dist_jaccard
from repro.core.rwr import RandomWalkWithResets
from repro.core.rwr_push import PushRandomWalk
from repro.core.scheme import create_scheme
from repro.exceptions import SchemeError
from repro.graph.comm_graph import CommGraph
from test_rwr import occupancy


def estimate(scheme, graph, node):
    """The push's estimate from ``node``: ``label -> mass`` over the nodes
    it touched, the start included."""
    start = int(graph.row_positions([node])[0])
    pushed = scheme._push(graph, start, {}) if start >= 0 else {}
    return dict(zip(graph.node_labels(list(pushed)), pushed.values()))


class TestParameters:
    @pytest.mark.parametrize("c", [0.0, -0.1, 1.1])
    def test_invalid_reset(self, c):
        with pytest.raises(SchemeError):
            PushRandomWalk(reset_probability=c)

    def test_invalid_epsilon(self):
        with pytest.raises(SchemeError):
            PushRandomWalk(epsilon=0.0)

    def test_invalid_max_pushes(self):
        with pytest.raises(SchemeError):
            PushRandomWalk(max_pushes=0)

    def test_invalid_symmetrize(self):
        with pytest.raises(SchemeError):
            PushRandomWalk(symmetrize="sometimes")

    def test_registered(self):
        scheme = create_scheme("rwr-push", k=4, epsilon=1e-4)
        assert isinstance(scheme, PushRandomWalk)
        assert "eps=0.0001" in scheme.describe()


class TestApproximationSemantics:
    def test_estimate_mass_bounded_by_one(self, triangle_graph):
        scheme = PushRandomWalk(k=5, reset_probability=0.2, epsilon=1e-7)
        relevance = estimate(scheme, triangle_graph, "a")
        assert 0 < sum(relevance.values()) <= 1.0 + 1e-9

    def test_matches_exact_rwr_at_tight_epsilon(self, triangle_graph):
        exact = RandomWalkWithResets(
            k=3, reset_probability=0.15, tolerance=1e-12
        )
        push = PushRandomWalk(k=3, reset_probability=0.15, epsilon=1e-10)
        for node in triangle_graph.nodes():
            exact_relevance = occupancy(exact, triangle_graph, node)
            push_relevance = estimate(push, triangle_graph, node)
            for key in exact_relevance:
                assert push_relevance.get(key, 0.0) == pytest.approx(
                    exact_relevance[key], abs=1e-5
                )

    def test_signature_agrees_with_exact_on_dataset(self, tiny_enterprise):
        graph = tiny_enterprise.graphs[0]
        hosts = tiny_enterprise.local_hosts[:15]
        exact = create_scheme("rwr", k=10, reset_probability=0.1).compute_all(
            graph, hosts
        )
        push = create_scheme("rwr-push", k=10, reset_probability=0.1, epsilon=1e-6)
        distances = [dist_jaccard(exact[h], push.compute(graph, h)) for h in hosts]
        assert sum(distances) / len(distances) < 0.05

    def test_coarse_epsilon_touches_fewer_nodes(self, tiny_enterprise):
        graph = tiny_enterprise.graphs[0]
        host = tiny_enterprise.local_hosts[0]
        fine = PushRandomWalk(k=10, reset_probability=0.1, epsilon=1e-7)
        coarse = PushRandomWalk(k=10, reset_probability=0.1, epsilon=1e-3)
        assert coarse.touched_size(graph, host) < fine.touched_size(graph, host)
        assert coarse.touched_size(graph, host) >= 1

    def test_unknown_node_and_empty_graph(self, triangle_graph):
        scheme = PushRandomWalk()
        assert len(scheme.compute(triangle_graph, "zzz")) == 0
        assert len(scheme.compute(CommGraph(), "a")) == 0
        assert scheme.touched_size(triangle_graph, "zzz") == 0

    def test_dangling_mass_returns_home(self):
        graph = CommGraph([("a", "b", 1.0)])
        scheme = PushRandomWalk(k=2, reset_probability=0.2, epsilon=1e-9)
        relevance = estimate(scheme, graph, "a")
        assert relevance["a"] > 0
        assert relevance["b"] > 0
        assert sum(relevance.values()) == pytest.approx(1.0, abs=1e-6)

    def test_volume_is_the_correctly_rounded_row_total(self):
        # Left to right, 2**53 + 1 + 1 rounds back to 2**53 (the builtin
        # sum before Python 3.12); fsum gives the exact 2**53 + 2, the
        # row total every scheme uses (graph.out_strength).
        graph = CommGraph([("a", "x", 2.0**53), ("a", "y", 1.0), ("a", "z", 1.0)])
        assert graph.out_strength("a") == 2.0**53 + 2
        signature = PushRandomWalk(k=3, epsilon=1e-30).compute(graph, "a")
        assert signature.weight("x") == float.fromhex("0x1.e50d79435e4d1p-2")

    def test_max_pushes_caps_work(self, tiny_enterprise):
        graph = tiny_enterprise.graphs[0]
        host = tiny_enterprise.local_hosts[0]
        capped = PushRandomWalk(
            k=10, reset_probability=0.1, epsilon=1e-9, max_pushes=5
        )
        # Must terminate quickly and still return something.
        relevance = estimate(capped, graph, host)
        assert relevance
        assert sum(relevance.values()) < 1.0


class TestSymmetrization:
    def test_bipartite_auto_symmetrized(self, small_bipartite):
        scheme = PushRandomWalk(k=5, reset_probability=0.1, epsilon=1e-8)
        signature = scheme.compute(small_bipartite, "u1")
        # Multi-hop reach through the shared destination.
        assert "d-private2" in signature
        assert signature.nodes <= set(small_bipartite.right_nodes)

    def test_directed_when_disabled(self, small_bipartite):
        scheme = PushRandomWalk(
            k=5, reset_probability=0.1, epsilon=1e-8, symmetrize=False
        )
        signature = scheme.compute(small_bipartite, "u1")
        assert signature.nodes <= {"d-shared", "d-private1"}

    def test_forced_on_plain_graph(self):
        graph = CommGraph([("a", "b", 1.0)])
        scheme = PushRandomWalk(
            k=2, reset_probability=0.1, epsilon=1e-8, symmetrize=True
        )
        assert "a" in scheme.compute(graph, "b")
