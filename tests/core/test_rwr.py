"""Unit tests for Random Walk with Resets (Definition 5)."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rwr as rwr_module
import repro.parallel.shm as shm_module
from repro.core.rwr import RandomWalkWithResets
from repro.core.top_talkers import TopTalkers
from repro.exceptions import SchemeError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import graph_from_edges
from repro.graph.comm_graph import CommGraph, GraphBuilder
from repro.parallel.shm import ShmEngine


def occupancies(scheme, graph, owners):
    """``_iterate``'s columns, one per owner of the graph, each its
    owner's walk alone: ``node -> mass`` over the nodes it reaches, the
    owner included."""
    ordering, position = graph.node_index()
    transition_t = scheme._walk_matrix(graph)
    dangling = np.asarray(transition_t.sum(axis=0)).ravel() == 0
    starts = np.asarray([position[owner] for owner in owners], dtype=np.int64)
    columns = scheme._iterate(transition_t, dangling, starts, len(ordering))
    return [
        {ordering[index]: float(column[index]) for index in np.flatnonzero(column > 0)}
        for column in columns.T
    ]


def occupancy(scheme, graph, owner):
    """``owner``'s walk alone (empty for a node not in the graph)."""
    return occupancies(scheme, graph, [owner])[0] if owner in graph else {}


class TestParameters:
    @pytest.mark.parametrize("c", [-0.1, 1.1])
    def test_invalid_reset_probability(self, c):
        with pytest.raises(SchemeError):
            RandomWalkWithResets(reset_probability=c)

    def test_invalid_hops(self):
        with pytest.raises(SchemeError):
            RandomWalkWithResets(max_hops=0)

    def test_invalid_tolerance(self):
        with pytest.raises(SchemeError):
            RandomWalkWithResets(tolerance=0.0)

    def test_invalid_symmetrize(self):
        with pytest.raises(SchemeError):
            RandomWalkWithResets(symmetrize="maybe")

    def test_describe(self):
        scheme = RandomWalkWithResets(k=5, reset_probability=0.1, max_hops=3)
        assert scheme.describe() == "rwr(k=5, c=0.1, h=3)"
        assert "h=inf" in RandomWalkWithResets().describe()


class TestPaperIdentities:
    def test_h1_c0_equals_top_talkers(self, triangle_graph):
        """The paper: 'When c = 0 and h = 1, RWR^h is identical to TT.'"""
        rwr = RandomWalkWithResets(k=3, reset_probability=0.0, max_hops=1)
        tt = TopTalkers(k=3)
        for node in triangle_graph.nodes():
            rwr_signature = rwr.compute(triangle_graph, node)
            tt_signature = tt.compute(triangle_graph, node)
            assert rwr_signature.nodes == tt_signature.nodes
            for member in rwr_signature.nodes:
                assert rwr_signature.weight(member) == pytest.approx(
                    tt_signature.weight(member)
                )

    def test_large_h_converges_to_unbounded(self, triangle_graph):
        """For h beyond the diameter + mixing, RWR^h coincides with RWR^inf."""
        bounded = RandomWalkWithResets(k=3, reset_probability=0.1, max_hops=500)
        unbounded = RandomWalkWithResets(k=3, reset_probability=0.1)
        for node in triangle_graph.nodes():
            relevance_bounded = occupancy(bounded, triangle_graph, node)
            relevance_unbounded = occupancy(unbounded, triangle_graph, node)
            for key in set(relevance_bounded) | set(relevance_unbounded):
                assert relevance_bounded.get(key, 0.0) == pytest.approx(
                    relevance_unbounded.get(key, 0.0), abs=1e-6
                )

    def test_large_c_concentrates_near_start(self, triangle_graph):
        """With c close to 1, the walk barely leaves the one-hop neighbourhood."""
        nearly_reset = RandomWalkWithResets(k=3, reset_probability=0.95, max_hops=50)
        relevance = occupancy(nearly_reset, triangle_graph, "a")
        # Mass at the start node dominates; distant node mass is tiny.
        assert relevance["a"] > 0.9


class TestOccupancySemantics:
    def test_occupancy_is_probability_vector(self, triangle_graph):
        scheme = RandomWalkWithResets(k=3, reset_probability=0.2, max_hops=4)
        relevance = occupancy(scheme, triangle_graph, "a")
        assert sum(relevance.values()) == pytest.approx(1.0)
        assert all(value >= 0 for value in relevance.values())

    def test_dangling_mass_returns_home(self):
        # 'b' has no outgoing edges; the walk teleports back to the start,
        # so no probability mass leaks (the reset keeps the chain aperiodic).
        graph = CommGraph([("a", "b", 1.0)])
        scheme = RandomWalkWithResets(k=2, reset_probability=0.2, max_hops=10)
        relevance = occupancy(scheme, graph, "a")
        assert sum(relevance.values()) == pytest.approx(1.0)
        assert relevance["b"] > 0

    def test_hop_limit_restricts_reach(self):
        # Chain a -> b -> c -> d: with h=2 the walk cannot reach 'd'.
        graph = CommGraph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
        scheme = RandomWalkWithResets(k=5, reset_probability=0.1, max_hops=2)
        relevance = occupancy(scheme, graph, "a")
        assert relevance.get("d", 0.0) == 0.0
        assert relevance.get("c", 0.0) > 0.0

    def test_unknown_node_empty(self, triangle_graph):
        assert len(RandomWalkWithResets().compute(triangle_graph, "zzz")) == 0

    def test_empty_graph(self):
        scheme = RandomWalkWithResets()
        assert len(scheme.compute(CommGraph(), "a")) == 0


class TestBatchedComputeAll:
    def test_matches_single_compute(self, triangle_graph):
        scheme = RandomWalkWithResets(k=3, reset_probability=0.1, max_hops=3)
        batch = scheme.compute_all(triangle_graph)
        for node in triangle_graph.nodes():
            assert batch[node].entries == scheme.compute(triangle_graph, node).entries

    def test_missing_nodes_get_empty_signatures(self, triangle_graph):
        scheme = RandomWalkWithResets(k=3)
        batch = scheme.compute_all(triangle_graph, nodes=["a", "ghost"])
        assert len(batch["ghost"]) == 0
        assert len(batch["a"]) > 0

    def test_empty_node_list(self, triangle_graph):
        assert RandomWalkWithResets().compute_all(triangle_graph, nodes=[]) == {}


#: Senders talk to each other and to many receivers that send nothing,
#: so every walk step sums the mass of more than eight dangling nodes.
DANGLING_EDGES = st.lists(
    st.tuples(
        st.integers(0, 29),
        st.one_of(
            st.integers(0, 29).map(lambda i: f"s{i}"),
            st.integers(0, 59).map(lambda i: f"e{i}"),
        ),
        st.sampled_from([1.0, 0.1, 3.0, 7.25, 0.37, 2.9]),
    ).map(lambda edge: (f"s{edge[0]}", edge[1], edge[2])),
    min_size=100,
    max_size=300,
)


#: Users talk to destinations that talk to no one: walked directed
#: (``symmetrize=False``), every destination is dangling.
BIPARTITE_EDGES = st.lists(
    st.tuples(
        st.integers(0, 11).map(lambda i: f"u{i}"),
        st.integers(0, 23).map(lambda i: f"d{i}"),
        st.sampled_from([1.0, 0.1, 3.0, 7.25, 0.37, 2.9]),
    ),
    min_size=20,
    max_size=120,
)


@pytest.fixture(scope="module")
def shm_engine():
    with patch.object(shm_module, "DEFAULT_MESSAGE_SIZE", 5), ShmEngine(jobs=2) as engine:
        yield engine


def assert_every_path_walks_alone(scheme, graph, owners, engine):
    """``compute`` (a one-owner batch), ``compute_all`` over the whole
    population, over every partition into widths 1, 2 and all, in blocks
    of three owners, and through ``engine`` give the same entries."""
    expected = {owner: scheme.compute(graph, owner).entries for owner in owners}
    for width in (1, 2, len(owners)):
        for lo in range(0, len(owners), width):
            part = owners[lo : lo + width]
            for owner, signature in scheme.compute_all(graph, part).items():
                assert signature.entries == expected[owner], (width, owner)
    with patch.object(rwr_module, "_BLOCK_BYTES", 3 * 8 * graph.num_nodes):
        blocked = scheme.compute_all(graph, owners)
    assert {owner: sig.entries for owner, sig in blocked.items()} == expected
    parallel = scheme.compute_all(graph, owners, engine=engine)
    assert {owner: sig.entries for owner, sig in parallel.items()} == expected


class TestBatchWidth:
    @settings(max_examples=15, deadline=None)
    @given(edges=DANGLING_EDGES)
    def test_every_width_equals_the_whole_batch(self, shm_engine, edges):
        # A one-owner batch sums the dangling mass and its walk's change in
        # the same order as a wide one, and each unbounded walk stops at
        # its own convergence, so compute, any partition, any
        # owner block and the shm engine give the whole batch's signature.
        graph = graph_from_edges(edges)
        for max_hops in (3, None):
            scheme = RandomWalkWithResets(k=10, reset_probability=0.1, max_hops=max_hops)
            assert_every_path_walks_alone(scheme, graph, list(graph.senders()), shm_engine)

    @pytest.mark.parametrize("symmetrize", ["auto", False])
    @pytest.mark.parametrize("max_hops", [3, None])
    @settings(max_examples=6, deadline=None)
    @given(edges=BIPARTITE_EDGES)
    def test_every_path_walks_alone_on_bipartite_graphs(
        self, shm_engine, max_hops, symmetrize, edges
    ):
        graph = graph_from_edges(edges, bipartite=True)
        scheme = RandomWalkWithResets(
            k=10, reset_probability=0.1, max_hops=max_hops, symmetrize=symmetrize
        )
        owners = list(graph.nodes())
        assert_every_path_walks_alone(scheme, graph, owners, shm_engine)

    def test_each_unbounded_walk_stops_at_its_own_convergence(self):
        # An owner in a fast-mixing clique beside one on a slow two-cycle:
        # batched together, each keeps the iteration count it has alone.
        graph = CommGraph(
            [("x", "y", 1.0), ("y", "x", 1.0)]
            + [(f"k{i}", f"k{j}", 1.0 + 0.1 * j) for i in range(5) for j in range(5) if i != j]
        )
        scheme = RandomWalkWithResets(k=3, reset_probability=0.1)
        batch = scheme.compute_all(graph, ["k0", "x"])
        assert batch["k0"].entries == scheme.compute(graph, "k0").entries
        assert batch["x"].entries == scheme.compute(graph, "x").entries


class TestBipartiteBehaviour:
    def test_signature_restricted_to_right_partition(self, small_bipartite):
        scheme = RandomWalkWithResets(k=5, reset_probability=0.1, max_hops=4)
        signature = scheme.compute(small_bipartite, "u1")
        assert signature.nodes <= set(small_bipartite.right_nodes)
        assert len(signature) > 0

    def test_multi_hop_reaches_sibling_destinations(self, small_bipartite):
        # u1 never contacts d-private2 directly, but u2 does and they share
        # d-shared; the symmetrised 3-hop walk must reach it.
        scheme = RandomWalkWithResets(k=5, reset_probability=0.1, max_hops=3)
        signature = scheme.compute(small_bipartite, "u1")
        assert "d-private2" in signature

    def test_directed_walk_when_symmetrize_false(self, small_bipartite):
        scheme = RandomWalkWithResets(
            k=5, reset_probability=0.1, max_hops=3, symmetrize=False
        )
        signature = scheme.compute(small_bipartite, "u1")
        # Without back-edges the walk only sees direct destinations.
        assert signature.nodes <= {"d-shared", "d-private1"}

    def test_forced_symmetrize_on_plain_graph(self):
        graph = CommGraph([("a", "b", 1.0)])
        scheme = RandomWalkWithResets(
            k=2, reset_probability=0.1, max_hops=2, symmetrize=True
        )
        # Symmetrised, 'b' can reach 'a' despite only an a->b edge existing.
        assert "a" in scheme.compute(graph, "b")


class TestHopLimitedMetadata:
    def test_effective_characteristics(self):
        assert RandomWalkWithResets(max_hops=3).effective_characteristics == (
            "locality",
            "transitivity",
        )
        assert RandomWalkWithResets().effective_characteristics == (
            "transitivity",
            "engagement",
        )

    def test_effective_target_properties(self):
        hop_limited = RandomWalkWithResets(max_hops=3)
        assert set(hop_limited.effective_target_properties) == {
            "persistence",
            "uniqueness",
            "robustness",
        }
        assert set(RandomWalkWithResets().effective_target_properties) == {
            "persistence",
            "robustness",
        }


class TestTopKExtraction:
    def test_extraction_matches_exhaustive_sort(self):
        rng = np.random.default_rng(0)
        builder = GraphBuilder()
        nodes = [f"n{i}" for i in range(80)]
        for i, src in enumerate(nodes):
            for dst in rng.choice(nodes, size=6, replace=False):
                if dst != src:
                    builder.add_edge(src, dst, float(rng.integers(1, 9)))
        graph = builder.build()
        scheme = RandomWalkWithResets(k=5, reset_probability=0.1, max_hops=3)
        batch = scheme.compute_all(graph, nodes=nodes[:10])
        for node in nodes[:10]:
            relevance = occupancy(scheme, graph, node)
            expected = sorted(
                ((candidate, weight) for candidate, weight in relevance.items() if candidate != node),
                key=lambda item: (-item[1], str(item[0])),
            )[:5]
            assert [n for n, _w in batch[node].entries] == [n for n, _w in expected]
