"""Unit tests for the Unexpected Talkers scheme (Definition 4)."""

import math

import numpy as np
import pytest

from repro.core.relevance import available_scalings, scale_columns
from repro.core.unexpected_talkers import UnexpectedTalkers
from repro.exceptions import SchemeError
from repro.graph.comm_graph import CommGraph


@pytest.fixture
def popularity_graph():
    """'v' talks to a universally popular hub and an obscure node equally."""
    graph = CommGraph(
        [
            ("v", "hub", 6.0),
            ("v", "obscure", 6.0),
            # Three more nodes all talk to the hub.
            ("x1", "hub", 1.0),
            ("x2", "hub", 1.0),
            ("x3", "hub", 1.0),
        ]
    )
    return graph


class TestRelevance:
    def test_popular_nodes_downweighted(self, popularity_graph):
        signature = UnexpectedTalkers(k=5).compute(popularity_graph, "v")
        # hub has in-degree 4, obscure in-degree 1.
        assert signature.weight("hub") == pytest.approx(6.0 / 4.0)
        assert signature.weight("obscure") == pytest.approx(6.0)
        assert signature.weight("obscure") > signature.weight("hub")

    def test_unknown_node_empty(self, popularity_graph):
        assert len(UnexpectedTalkers().compute(popularity_graph, "zzz")) == 0

    def test_top_k_prefers_obscure(self, popularity_graph):
        signature = UnexpectedTalkers(k=1).compute(popularity_graph, "v")
        assert signature.nodes == {"obscure"}

    def test_self_loop_excluded(self):
        graph = CommGraph([("v", "v", 5.0), ("v", "a", 1.0)])
        signature = UnexpectedTalkers().compute(graph, "v")
        assert "v" not in signature
        assert signature.weight("a") == pytest.approx(1.0)


class TestScalings:
    def test_available(self):
        assert set(available_scalings()) == {"inverse", "tfidf", "sqrt"}

    def test_get_unknown(self):
        with pytest.raises(SchemeError, match="known: inverse, sqrt, tfidf"):
            UnexpectedTalkers(scaling="bogus")

    def test_inverse(self):
        scaled = scale_columns("inverse", np.array([6.0]), np.array([3]), 100)
        assert scaled.tolist() == pytest.approx([2.0])

    def test_tfidf(self):
        scaled = scale_columns("tfidf", np.array([2.0, 2.0]), np.array([10, 100]), 100)
        # A node everyone talks to carries no information.
        assert scaled.tolist() == pytest.approx([2.0 * math.log(10.0), 0.0])

    def test_sqrt(self):
        scaled = scale_columns("sqrt", np.array([6.0]), np.array([4]), 100)
        assert scaled.tolist() == pytest.approx([3.0])

    def test_tfidf_scheme_end_to_end(self, popularity_graph):
        scheme = UnexpectedTalkers(k=2, scaling="tfidf")
        signature = scheme.compute(popularity_graph, "v")
        # The hub (in-degree 4 of 6 nodes) is heavily discounted but the
        # obscure node keeps full TF-IDF weight.
        assert signature.weight("obscure") > signature.weight("hub")

    def test_all_scalings_preserve_obscure_over_hub(self, popularity_graph):
        for scaling in available_scalings():
            signature = UnexpectedTalkers(scaling=scaling).compute(popularity_graph, "v")
            assert signature.weight("obscure") > signature.weight("hub")


class TestMetadata:
    def test_table3_row(self):
        scheme = UnexpectedTalkers()
        assert scheme.name == "ut"
        assert set(scheme.characteristics) == {"novelty", "locality"}
        assert set(scheme.target_properties) == {"uniqueness"}

    def test_describe_includes_scaling(self):
        assert "tfidf" in UnexpectedTalkers(scaling="tfidf").describe()

    def test_invalid_scaling_rejected(self):
        with pytest.raises(SchemeError):
            UnexpectedTalkers(scaling="nope")
