"""Unit tests for auxiliary noise models."""

import copy

import pytest

from repro.exceptions import PerturbationError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.perturb.noise import drop_random_nodes, jitter_weights


class TestJitterWeights:
    def test_zero_std_is_exact_copy(self, triangle_graph):
        jittered = jitter_weights(triangle_graph, relative_std=0.0, rng=0)
        assert jittered == triangle_graph

    def test_membership_preserved(self, triangle_graph):
        jittered = jitter_weights(triangle_graph, relative_std=0.5, rng=0)
        assert set(jittered.nodes()) == set(triangle_graph.nodes())
        assert {(s, d) for s, d, _w in jittered.edges()} == {
            (s, d) for s, d, _w in triangle_graph.edges()
        }

    def test_weights_change_but_stay_positive(self, triangle_graph):
        jittered = jitter_weights(triangle_graph, relative_std=0.5, rng=0)
        assert jittered != triangle_graph
        assert all(weight > 0 for _s, _d, weight in jittered.edges())

    def test_negative_std_rejected(self, triangle_graph):
        with pytest.raises(PerturbationError):
            jitter_weights(triangle_graph, relative_std=-0.1)

    def test_bipartite_preserved(self, small_bipartite):
        jittered = jitter_weights(small_bipartite, relative_std=0.3, rng=1)
        assert isinstance(jittered, BipartiteGraph)
        assert jittered.side("u1") == "left"

    def test_deterministic(self, triangle_graph):
        first = jitter_weights(triangle_graph, relative_std=0.3, rng=5)
        second = jitter_weights(triangle_graph, relative_std=0.3, rng=5)
        assert first == second


class TestDropRandomNodes:
    def test_zero_fraction_copy(self, triangle_graph):
        survivor = drop_random_nodes(triangle_graph, fraction=0.0, rng=0)
        assert survivor == triangle_graph

    def test_full_fraction_empties_graph(self, triangle_graph):
        survivor = drop_random_nodes(triangle_graph, fraction=1.0, rng=0)
        assert survivor.num_nodes == 0

    def test_partial_drop(self, star_graph):
        survivor = drop_random_nodes(star_graph, fraction=0.5, rng=0)
        assert survivor.num_nodes == 3  # 6 nodes, drop 3

    def test_invalid_fraction(self, triangle_graph):
        with pytest.raises(PerturbationError):
            drop_random_nodes(triangle_graph, fraction=1.5)

    def test_original_untouched(self, triangle_graph):
        snapshot = copy.deepcopy(triangle_graph)
        drop_random_nodes(triangle_graph, fraction=0.5, rng=0)
        assert triangle_graph == snapshot
