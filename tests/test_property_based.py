"""Property-based tests (hypothesis) for core data structures and invariants."""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.distances import (
    dist_dice,
    dist_jaccard,
    dist_scaled_dice,
    dist_scaled_hellinger,
)
from repro.core.signature import Signature
from repro.graph.comm_graph import CommGraph
from repro.perturb.edge_perturbation import delete_weight_units, insert_random_edges
from repro.streaming.countmin import CountMinSketch
from repro.streaming.fm import FlajoletMartin
from repro.streaming.spacesaving import SpaceSaving

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
node_labels = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6
)

weights = st.floats(
    min_value=0.001, max_value=1000.0, allow_nan=False, allow_infinity=False
)

signature_entries = st.dictionaries(node_labels, weights, min_size=0, max_size=12)


def make_signature(owner, entries):
    entries = {node: weight for node, weight in entries.items() if node != owner}
    return Signature(owner, entries)


edge_lists = st.lists(
    st.tuples(node_labels, node_labels, st.integers(min_value=1, max_value=20)),
    min_size=1,
    max_size=40,
)


# ----------------------------------------------------------------------
# Signature invariants
# ----------------------------------------------------------------------
class TestSignatureProperties:
    @given(entries=signature_entries, k=st.integers(min_value=1, max_value=15))
    def test_from_relevance_length_bounded(self, entries, k):
        signature = Signature.from_relevance("owner", entries, k)
        assert len(signature) <= k
        assert "owner" not in signature

    @given(entries=signature_entries, k=st.integers(min_value=1, max_value=15))
    def test_from_relevance_keeps_heaviest(self, entries, k):
        signature = Signature.from_relevance("owner", entries, k)
        kept = signature.nodes
        dropped = {
            node
            for node in entries
            if node != "owner" and entries[node] > 0 and node not in kept
        }
        if kept and dropped:
            assert min(entries[node] for node in kept) >= max(
                entries[node] for node in dropped
            ) - 1e-12

    @given(entries=signature_entries)
    def test_entries_sorted_descending(self, entries):
        signature = make_signature("OWNER", entries)
        sig_weights = [weight for _node, weight in signature.entries]
        assert sig_weights == sorted(sig_weights, reverse=True)

    @given(entries=signature_entries)
    def test_normalized_sums_to_one(self, entries):
        signature = make_signature("OWNER", entries)
        assume(len(signature) > 0)
        total = sum(weight for _node, weight in signature.normalized())
        assert total == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Distance function invariants (the paper claims all lie in [0, 1])
# ----------------------------------------------------------------------
ALL_DISTANCES = [dist_jaccard, dist_dice, dist_scaled_dice, dist_scaled_hellinger]


class TestDistanceProperties:
    @given(a=signature_entries, b=signature_entries)
    def test_range_and_symmetry(self, a, b):
        first = make_signature("U", a)
        second = make_signature("V", b)
        for distance in ALL_DISTANCES:
            value = distance(first, second)
            assert 0.0 <= value <= 1.0 + 1e-12
            assert value == pytest.approx(distance(second, first))

    @given(a=signature_entries)
    def test_self_distance_zero(self, a):
        first = make_signature("U", a)
        second = make_signature("V", a)
        for distance in ALL_DISTANCES:
            assert distance(first, second) == pytest.approx(0.0)

    @given(a=signature_entries, b=signature_entries)
    def test_disjoint_supports_give_distance_one(self, a, b):
        a_prefixed = {f"a-{node}": weight for node, weight in a.items()}
        b_prefixed = {f"b-{node}": weight for node, weight in b.items()}
        assume(a_prefixed and b_prefixed)
        first = make_signature("U", a_prefixed)
        second = make_signature("V", b_prefixed)
        for distance in ALL_DISTANCES:
            assert distance(first, second) == pytest.approx(1.0)

    @given(a=signature_entries, b=signature_entries)
    def test_shel_at_most_sdice(self, a, b):
        """sqrt(xy) >= min(x, y) pointwise, so SHel <= SDice always."""
        first = make_signature("U", a)
        second = make_signature("V", b)
        assert dist_scaled_hellinger(first, second) <= dist_scaled_dice(
            first, second
        ) + 1e-12

    @given(a=signature_entries, b=signature_entries, scale=weights)
    def test_weighted_distances_scale_invariant(self, a, b, scale):
        """Scaling both signatures by one positive constant changes nothing."""
        first = make_signature("U", a)
        second = make_signature("V", b)
        first_scaled = make_signature(
            "U", {node: weight * scale for node, weight in a.items()}
        )
        second_scaled = make_signature(
            "V", {node: weight * scale for node, weight in b.items()}
        )
        for distance in ALL_DISTANCES:
            assert distance(first, second) == pytest.approx(
                distance(first_scaled, second_scaled), abs=1e-9
            )


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(edges=edge_lists)
    def test_total_weight_is_edge_sum(self, edges):
        graph = CommGraph((s, d, float(w)) for s, d, w in edges)
        assert graph.total_weight == pytest.approx(sum(graph.edge_weights()))

    @given(edges=edge_lists)
    def test_in_out_degree_sums_match(self, edges):
        graph = CommGraph((s, d, float(w)) for s, d, w in edges)
        out_total = sum(graph.out_degree(node) for node in graph.nodes())
        in_total = sum(graph.in_degree(node) for node in graph.nodes())
        assert out_total == in_total == graph.num_edges

    @given(edges=edge_lists)
    def test_copy_equals_original(self, edges):
        graph = CommGraph((s, d, float(w)) for s, d, w in edges)
        assert copy.deepcopy(graph) == graph

    @given(edges=edge_lists)
    def test_transition_rows_stochastic(self, edges):
        graph = CommGraph((s, d, float(w)) for s, d, w in edges)
        transition = graph.to_transition_csr()
        row_sums = np.asarray(transition.sum(axis=1)).ravel()
        for node, row_sum in zip(graph.nodes(), row_sums):
            if graph.out_degree(node):
                assert row_sum == pytest.approx(1.0)
            else:
                assert row_sum == 0.0


# ----------------------------------------------------------------------
# Perturbation invariants
# ----------------------------------------------------------------------
class TestPerturbationProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        edges=edge_lists,
        count=st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_deletion_reduces_weight_by_count(self, edges, count, seed):
        graph = CommGraph((s, d, float(w)) for s, d, w in edges)
        assume(graph.num_edges > 0)
        perturbed = delete_weight_units(graph, count, rng=seed)
        expected = max(0.0, graph.total_weight - min(count, graph.total_weight))
        assert perturbed.total_weight == pytest.approx(expected)

    @settings(max_examples=25, deadline=None)
    @given(
        edges=edge_lists,
        count=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_insertion_uses_pool_weights_and_is_bounded(self, edges, count, seed):
        graph = CommGraph((s, d, float(w)) for s, d, w in edges)
        assume(graph.num_edges > 0)
        nodes = graph.nodes()
        out_support = [n for n in nodes if graph.out_degree(n) > 0]
        in_support = [n for n in nodes if graph.in_degree(n) > 0]
        assume(not (len(out_support) == 1 and out_support == in_support))
        perturbed = insert_random_edges(graph, count, rng=seed)
        assert perturbed.num_edges <= graph.num_edges + count
        pool = set(graph.edge_weights())
        new_edges = {
            (s, d): w
            for s, d, w in perturbed.edges()
            if graph.weight(s, d) != w
        }
        assert all(weight in pool for weight in new_edges.values())


# ----------------------------------------------------------------------
# Sketch invariants
# ----------------------------------------------------------------------
count_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=5)),
    min_size=1,
    max_size=200,
)


class TestSketchProperties:
    @settings(max_examples=30, deadline=None)
    @given(stream=count_streams)
    def test_countmin_never_underestimates(self, stream):
        sketch = CountMinSketch(width=30, depth=3, seed=0)
        truth = {}
        for key_id, count in stream:
            key = f"key-{key_id}"
            sketch.update(key, count)
            truth[key] = truth.get(key, 0) + count
        for key, count in truth.items():
            assert sketch.estimate(key) >= count - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(stream=count_streams)
    def test_spacesaving_count_bounds(self, stream):
        counter = SpaceSaving(8)
        truth = {}
        for key_id, count in stream:
            key = f"key-{key_id}"
            counter.update(key, count)
            truth[key] = truth.get(key, 0) + count
        assert len(counter) <= 8
        for item, estimate, error in counter.items():
            assert estimate >= truth.get(item, 0) - 1e-9
            assert estimate - error <= truth.get(item, 0) + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        items=st.sets(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=300)
    )
    def test_fm_estimate_in_coarse_band(self, items):
        sketch = FlajoletMartin(num_registers=64, seed=0)
        for item in items:
            sketch.add(item)
        estimate = sketch.estimate()
        if not items:
            assert estimate == 0.0
        else:
            assert 0.4 * len(items) <= estimate <= 2.5 * len(items) + 2


# ----------------------------------------------------------------------
# MinHash estimator property
# ----------------------------------------------------------------------
class TestMinHashProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        a=st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=40),
        b=st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=40),
    )
    def test_estimate_within_hoeffding_band(self, a, b):
        from repro.matching.minhash import MinHasher, estimate_jaccard_distance

        hasher = MinHasher(num_hashes=256, seed=0)
        truth = 1.0 - len(a & b) / len(a | b)
        estimate = estimate_jaccard_distance(hasher.sketch(a), hasher.sketch(b))
        # 256 draws: a 0.25 absolute band is ~16 sigma; failures indicate bugs.
        assert abs(estimate - truth) < 0.25
