"""Unit tests for the scheme ABC and registry."""

import pytest

from repro.core.packed import SignaturePack
from repro.core.scheme import (
    SignatureScheme,
    available_schemes,
    create_scheme,
    register_scheme,
)
from repro.core.signature import Signature
from repro.exceptions import SchemeError, UnknownSchemeError
from repro.graph.comm_graph import CommGraph


class TestRegistry:
    def test_builtins_registered(self):
        names = available_schemes()
        assert {"tt", "ut", "rwr"} <= set(names)
        assert list(names) == sorted(names)

    def test_create_scheme_with_params(self):
        scheme = create_scheme("rwr", k=4, reset_probability=0.2, max_hops=2)
        assert scheme.k == 4
        assert scheme.reset_probability == 0.2

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            create_scheme("pagerank")
        assert "tt" in str(excinfo.value)

    def test_register_requires_name(self):
        class Nameless(SignatureScheme):
            def _compute_batch(self, graph, targets):
                return SignaturePack.from_signatures([Signature(node) for node in targets])

        with pytest.raises(SchemeError):
            register_scheme(Nameless)

    def test_register_rejects_duplicate_name(self):
        class Imposter(SignatureScheme):
            name = "tt"

            def _compute_batch(self, graph, targets):
                return SignaturePack.from_signatures([Signature(node) for node in targets])

        with pytest.raises(SchemeError):
            register_scheme(Imposter)

    def test_invalid_k_rejected(self):
        with pytest.raises(SchemeError):
            create_scheme("tt", k=0)


class Constant(SignatureScheme):
    """A custom scheme: every other node is equally relevant.  It records
    the targets of each batch it computes."""

    name = "constant-test"

    def __init__(self, k: int = 10) -> None:
        super().__init__(k=k)
        self.batches = []

    def _compute_batch(self, graph, targets):
        self.batches.append(list(targets))
        return SignaturePack.from_signatures(
            {
                node: Signature.from_relevance(node, dict.fromkeys(graph.nodes(), 1.0), self.k)
                for node in targets
            }
        )


class TestBaseBehaviour:
    def test_compute_is_one_row_of_compute_all(self, triangle_graph):
        scheme = Constant(k=2)
        signature = scheme.compute(triangle_graph, "a")
        assert scheme.batches == [["a"]]
        assert "a" not in signature
        assert len(signature) == 2
        assert signature == scheme.compute_all(triangle_graph)["a"]

    def test_compute_all_passes_distinct_targets(self, triangle_graph):
        scheme = Constant(k=2)
        assert list(scheme.compute_all(triangle_graph, ["b", "a", "b"])) == ["b", "a"]
        assert scheme.batches == [["b", "a"]]

    def test_a_scheme_must_implement_its_batch(self):
        class Bare(SignatureScheme):
            name = "bare-test"

        with pytest.raises(TypeError):
            Bare()

    def test_compute_all_defaults_to_all_nodes(self, triangle_graph):
        scheme = create_scheme("tt", k=2)
        batch = scheme.compute_all(triangle_graph)
        assert set(batch) == set(triangle_graph.nodes())
        assert all(isinstance(sig, Signature) for sig in batch.values())

    def test_repr_contains_describe(self):
        scheme = create_scheme("tt", k=3)
        assert "tt(k=3)" in repr(scheme)

    # The bipartite restriction (Section II-B) matters for the multi-hop
    # schemes, whose walks spread relevance over both partitions.
    MULTI_HOP = [
        ("rwr", {"reset_probability": 0.1, "max_hops": 3}),
        ("rwr-push", {"reset_probability": 0.1, "epsilon": 1e-8}),
    ]

    def test_bipartite_restriction_ignores_plain_graphs(self, small_bipartite):
        # The same edges on a plain graph, walked both ways: a left
        # owner's signature keeps the other left node.
        plain = CommGraph(small_bipartite.edges())
        for name, params in self.MULTI_HOP:
            scheme = create_scheme(name, k=5, symmetrize=True, **params)
            assert "u2" in scheme.compute(plain, "u1"), name

    def test_bipartite_restriction_right_node_unrestricted(self, small_bipartite):
        for name, params in self.MULTI_HOP:
            signature = create_scheme(name, k=5, **params).compute(small_bipartite, "d-shared")
            assert {"u1", "u2"} <= signature.nodes, name

    def test_bipartite_restriction_left_node_filtered(self, small_bipartite):
        for name, params in self.MULTI_HOP:
            signature = create_scheme(name, k=5, **params).compute(small_bipartite, "u1")
            assert signature.nodes == {"d-shared", "d-private1", "d-private2"}, name
