"""Unit tests for the paper's insert/delete robustness perturbation."""

import copy

import numpy as np
import pytest

from repro.exceptions import PerturbationError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, GraphBuilder
from repro.perturb.edge_perturbation import (
    delete_weight_units,
    insert_random_edges,
    perturb_graph,
)


@pytest.fixture
def weighted_graph():
    return CommGraph(
        (f"src{i}", f"dst{(i + j) % 12}", float(j + 1)) for i in range(10) for j in range(3)
    )


class TestInsertions:
    def test_count_respected(self, weighted_graph):
        perturbed = insert_random_edges(weighted_graph, count=5, rng=0)
        # New edges may overwrite existing ones, so edge count grows by at
        # most 5, but total insertion operations are exactly 5 (weights from
        # the pool are positive so no edge disappears).
        assert perturbed.num_edges >= weighted_graph.num_edges
        assert perturbed.num_edges <= weighted_graph.num_edges + 5

    def test_zero_count_is_copy(self, weighted_graph):
        perturbed = insert_random_edges(weighted_graph, count=0, rng=0)
        assert perturbed == weighted_graph
        assert perturbed is not weighted_graph

    def test_original_untouched(self, weighted_graph):
        snapshot = copy.deepcopy(weighted_graph)
        insert_random_edges(weighted_graph, count=20, rng=1)
        assert weighted_graph == snapshot

    def test_weights_come_from_pool(self, weighted_graph):
        pool = set(weighted_graph.edge_weights())
        perturbed = insert_random_edges(weighted_graph, count=30, rng=2)
        assert set(perturbed.edge_weights()) <= pool

    def test_deterministic_with_seed(self, weighted_graph):
        first = insert_random_edges(weighted_graph, count=10, rng=42)
        second = insert_random_edges(weighted_graph, count=10, rng=42)
        assert first == second

    def test_negative_count_rejected(self, weighted_graph):
        with pytest.raises(PerturbationError):
            insert_random_edges(weighted_graph, count=-1)

    def test_empty_graph_rejected(self):
        with pytest.raises(PerturbationError):
            insert_random_edges(CommGraph(), count=1)

    def test_self_loop_only_graph_rejected(self):
        graph = CommGraph([("a", "a", 1.0)])
        with pytest.raises(PerturbationError):
            insert_random_edges(graph, count=1, rng=0)

    def test_bipartite_constraint_respected(self, small_bipartite):
        perturbed = insert_random_edges(small_bipartite, count=10, rng=3)
        assert isinstance(perturbed, BipartiteGraph)
        for src, dst, _weight in perturbed.edges():
            assert perturbed.side(src) == "left"
            assert perturbed.side(dst) == "right"

    def test_no_self_loops_inserted(self, weighted_graph):
        perturbed = insert_random_edges(weighted_graph, count=50, rng=4)
        assert all(src != dst for src, dst, _w in perturbed.edges())


class TestDeletions:
    def test_total_weight_drops_by_count(self, weighted_graph):
        before = weighted_graph.total_weight
        perturbed = delete_weight_units(weighted_graph, count=10, rng=0)
        assert perturbed.total_weight == pytest.approx(before - 10)

    def test_deleting_everything(self, weighted_graph):
        total = int(weighted_graph.total_weight)
        perturbed = delete_weight_units(weighted_graph, count=total, rng=0)
        assert perturbed.total_weight == pytest.approx(0.0)
        assert perturbed.num_edges == 0

    def test_overshoot_clamps_to_total(self, weighted_graph):
        total = int(weighted_graph.total_weight)
        perturbed = delete_weight_units(weighted_graph, count=total * 10, rng=0)
        assert perturbed.total_weight == pytest.approx(0.0)

    def test_zero_count_is_copy(self, weighted_graph):
        assert delete_weight_units(weighted_graph, count=0, rng=0) == weighted_graph

    def test_fractional_weights_fall_back_to_multinomial(self):
        graph = CommGraph([("a", "b", 5.5), ("a", "c", 3.5)])
        perturbed = delete_weight_units(graph, count=3, rng=0)
        assert perturbed.total_weight <= graph.total_weight
        assert perturbed.total_weight >= graph.total_weight - 3 - 1e-9

    @pytest.mark.parametrize("weight", [2.0**30, 1e16])
    def test_a_billion_integral_units_take_the_multinomial_draw(self, weight):
        # numpy's hypergeometric draw refuses 1e9 units or more.
        graph = CommGraph([("a", "b", weight), ("a", "c", weight), ("b", "c", 3.0)])
        perturbed = delete_weight_units(graph, count=10, rng=0)
        assert perturbed.num_edges == 3
        assert all(perturbed.weight(s, d) <= w for s, d, w in graph.edges())
        # Each heavy edge's new weight rounds to a multiple of its spacing.
        assert perturbed.total_weight == pytest.approx(
            graph.total_weight - 10, abs=2 * np.spacing(weight)
        )

    def test_deterministic_with_seed(self, weighted_graph):
        first = delete_weight_units(weighted_graph, count=7, rng=9)
        second = delete_weight_units(weighted_graph, count=7, rng=9)
        assert first == second

    def test_negative_count_rejected(self, weighted_graph):
        with pytest.raises(PerturbationError):
            delete_weight_units(weighted_graph, count=-1)

    def test_empty_graph_rejected(self):
        with pytest.raises(PerturbationError):
            delete_weight_units(CommGraph(), count=1)

    def test_weight_proportional_bias(self):
        # One massive edge and many tiny ones: deletions should overwhelmingly
        # hit the massive edge.
        graph = CommGraph([("a", "heavy", 1000.0)] + [("a", f"light{i}", 1.0) for i in range(10)])
        perturbed = delete_weight_units(graph, count=100, rng=0)
        assert perturbed.weight("a", "heavy") < 1000.0
        survivors = sum(1 for i in range(10) if perturbed.has_edge("a", f"light{i}"))
        assert survivors >= 7  # light edges mostly untouched


class TestFullPerturbation:
    def test_alpha_beta_zero_is_identity(self, weighted_graph):
        assert perturb_graph(weighted_graph, 0.0, 0.0, rng=0) == weighted_graph

    def test_insert_then_delete(self, weighted_graph):
        perturbed = perturb_graph(weighted_graph, alpha=0.2, beta=0.2, rng=0)
        assert perturbed != weighted_graph
        assert perturbed.num_nodes >= weighted_graph.num_nodes

    def test_invalid_intensities(self, weighted_graph):
        with pytest.raises(PerturbationError):
            perturb_graph(weighted_graph, alpha=-0.1, beta=0.0)
        with pytest.raises(PerturbationError):
            perturb_graph(weighted_graph, alpha=0.0, beta=-0.1)

    def test_generator_instance_accepted(self, weighted_graph):
        rng = np.random.default_rng(5)
        perturbed = perturb_graph(weighted_graph, 0.1, 0.1, rng=rng)
        assert perturbed.num_nodes >= weighted_graph.num_nodes

    def test_harsher_perturbation_moves_further(self, tiny_enterprise):
        """Failure-injection sanity: signature distortion grows with intensity."""
        from repro.core.distances import dist_scaled_hellinger
        from repro.core.scheme import create_scheme

        graph = tiny_enterprise.graphs[0]
        hosts = tiny_enterprise.local_hosts
        scheme = create_scheme("tt", k=10)
        base = scheme.compute_all(graph, hosts)

        def mean_distortion(intensity):
            perturbed = perturb_graph(graph, intensity, intensity, rng=11)
            moved = scheme.compute_all(perturbed, hosts)
            return sum(
                dist_scaled_hellinger(base[h], moved[h]) for h in hosts
            ) / len(hosts)

        assert mean_distortion(0.4) > mean_distortion(0.1)


class TestPerturbationEdgeCases:
    """Boundary cases of the full perturbation model (ISSUE 1 satellite)."""

    def test_p_zero_is_exact_no_op_on_any_graph(self, weighted_graph, small_bipartite):
        for graph in (weighted_graph, small_bipartite):
            perturbed = perturb_graph(graph, 0.0, 0.0, rng=0)
            assert perturbed == graph
            assert perturbed is not graph  # still a defensive copy

    def test_p_one_bounds(self, weighted_graph):
        """alpha = beta = 1: at most |E| new edges, exactly |E| units deleted."""
        num_edges = weighted_graph.num_edges
        total = weighted_graph.total_weight
        perturbed = perturb_graph(weighted_graph, alpha=1.0, beta=1.0, rng=3)
        # Insertions can at most double the edge count (overwrites collapse).
        assert perturbed.num_edges <= 2 * num_edges
        # The insertion pass assigns weights from the original pool, so the
        # perturbed total is bounded by (old + |E| * max_pool) - deleted units.
        max_pool = max(weighted_graph.edge_weights())
        assert perturbed.total_weight <= total + num_edges * max_pool
        assert perturbed.total_weight >= 0.0

    def test_empty_graph_zero_intensity_is_noop(self):
        empty = CommGraph()
        perturbed = perturb_graph(empty, 0.0, 0.0, rng=0)
        assert perturbed.num_nodes == 0
        assert perturbed.num_edges == 0

    def test_empty_graph_positive_intensity_rejected(self):
        # round(alpha * 0) == 0 insertions, so an edgeless graph only fails
        # once a deletion/insertion is actually requested.
        empty = CommGraph()
        assert perturb_graph(empty, 0.4, 0.4, rng=0) == empty
        with pytest.raises(PerturbationError):
            insert_random_edges(empty, count=1, rng=0)
        with pytest.raises(PerturbationError):
            delete_weight_units(empty, count=1, rng=0)

    def test_singleton_graph(self):
        builder = GraphBuilder()
        builder.add_node("loner")
        single = builder.build()
        perturbed = perturb_graph(single, 0.4, 0.4, rng=0)
        assert perturbed.nodes() == ["loner"]
        assert perturbed.num_edges == 0
        with pytest.raises(PerturbationError):
            insert_random_edges(single, count=1, rng=0)

    def test_seed_determinism_across_two_runs(self, weighted_graph):
        first = perturb_graph(weighted_graph, 0.3, 0.3, rng=1234)
        second = perturb_graph(weighted_graph, 0.3, 0.3, rng=1234)
        assert first == second
        different = perturb_graph(weighted_graph, 0.3, 0.3, rng=4321)
        assert different != first  # overwhelmingly likely for this size

    def test_seed_determinism_with_generator_objects(self, weighted_graph):
        first = perturb_graph(weighted_graph, 0.3, 0.3, rng=np.random.default_rng(7))
        second = perturb_graph(weighted_graph, 0.3, 0.3, rng=np.random.default_rng(7))
        assert first == second


class TestGeneratorPlumbing:
    """RNG plumbing guards (ISSUE 3 satellite): a shared generator must
    advance between draws, never be silently re-seeded."""

    def test_generator_instance_passes_through_default_rng(self):
        # np.random.default_rng(gen) is gen — the contract resolve_rng
        # relies on: passing a Generator must not reset its stream.
        generator = np.random.default_rng(3)
        assert np.random.default_rng(generator) is generator

    def test_sequential_perturbations_from_one_generator_differ(self, weighted_graph):
        generator = np.random.default_rng(21)
        first = perturb_graph(weighted_graph, 0.3, 0.3, rng=generator)
        second = perturb_graph(weighted_graph, 0.3, 0.3, rng=generator)
        # Had perturb_graph re-seeded internally, both draws would be
        # identical; a shared stream must keep advancing.
        assert first != second

    def test_generator_state_advances(self, weighted_graph):
        generator = np.random.default_rng(21)
        before = generator.bit_generator.state
        perturb_graph(weighted_graph, 0.3, 0.3, rng=generator)
        assert generator.bit_generator.state != before
