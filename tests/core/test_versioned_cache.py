"""Versioned per-graph caches: the bipartite right-node set and the
matrix cache, built once per graph version and exported as counters."""

from repro import obs
from repro.core.scheme import create_scheme
from repro.graph.bipartite import BipartiteGraph


class TestVersionedCache:
    def test_right_node_set_built_once_per_compute_all(self):
        graph = BipartiteGraph(
            [(f"u{i}", f"t{j}", 1.0) for i in range(6) for j in range(4)]
        )
        scheme = create_scheme("rwr", k=3, max_hops=2)
        scheme.compute_all(graph)
        info = graph.cache_info()["right_node_set"]
        assert info["misses"] == 1
        # Another compute_all on the unchanged graph only adds hits.
        scheme.compute_all(graph)
        info = graph.cache_info()["right_node_set"]
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_mutation_invalidates(self):
        graph = BipartiteGraph([("u1", "t1", 1.0), ("u2", "t2", 1.0)])
        first = graph.right_node_set()
        assert graph.right_node_set() is first  # cached
        graph.add_edge("u1", "t3", 1.0)
        second = graph.right_node_set()
        assert "t3" in second
        info = graph.cache_info()["right_node_set"]
        assert info["misses"] == 2

    def test_matrix_cache_counters_exported(self):
        graph = BipartiteGraph([("u1", "t1", 1.0), ("u2", "t1", 2.0)])
        scheme = create_scheme("rwr", k=3, max_hops=2)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            scheme.compute_all(graph)
            scheme.compute_all(graph)
        flat = registry.counters_flat()
        assert any(key.startswith("matrix_cache.misses") for key in flat)
        assert any(key.startswith("matrix_cache.hits") for key in flat)
