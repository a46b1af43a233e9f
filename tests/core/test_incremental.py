"""Incremental ``compute_all`` — the byte-identity contract.

``compute_all(graph, delta=..., previous=...)`` must return exactly what a
full recompute on ``graph`` returns, for every built-in scheme, under
arbitrary sliding deltas: edge adds, expiries, reweights, node churn, and
bipartite restriction.  Dirty sets are conservative over-approximations;
schemes that cannot bound the affected owners fall back to a full
recompute by returning ``None`` — which is correct, just not fast.
"""

import random

import pytest

from repro import obs
from repro.core.scheme import create_scheme
from repro.graph.bipartite import BipartiteGraph
from repro.graph.delta import WindowDelta
from repro.graph.stream import EdgeRecord
from repro.graph.windows import GraphSequence

# Every built-in scheme, including the dirty-set fallback cases (ut with
# tfidf scaling reads |V|, so node churn forces a full recompute).
SCHEME_CONFIGS = [
    ("tt", {}),
    ("ut", {"scaling": "inverse"}),
    ("ut", {"scaling": "sqrt"}),
    ("ut", {"scaling": "tfidf"}),
    ("it", {}),
    ("rwr", {"max_hops": 3}),
    ("rwr", {"max_hops": 2}),
    ("rwr", {}),  # unbounded: dirty_nodes must decline (None)
    ("rwr-push", {}),
]


def churny_trace(seed, num_windows=5, nodes=14, per_window=28, bipartite=False):
    rng = random.Random(seed)
    if bipartite:
        left = [f"u{i}" for i in range(nodes // 2)]
        right = [f"t{i}" for i in range(nodes)]
    names = [f"n{i}" for i in range(nodes)]
    records = []
    for window in range(num_windows):
        active = rng.sample(names, rng.randint(nodes // 2, nodes))
        for _ in range(per_window):
            if bipartite:
                src, dst = rng.choice(left), rng.choice(right)
            else:
                src, dst = rng.sample(active, 2)
            weight = 0.0 if rng.random() < 0.08 else rng.uniform(0.1, 4.0)
            records.append(
                EdgeRecord(
                    time=window + rng.random() * 0.9, src=src, dst=dst, weight=weight
                )
            )
    records.sort()
    return records


class TestIncrementalEqualsFull:
    @pytest.mark.parametrize("name,params", SCHEME_CONFIGS)
    @pytest.mark.parametrize("seed", [5, 17])
    def test_sliding_sequence(self, name, params, seed):
        scheme = create_scheme(name, k=5, **params)
        sequence = GraphSequence.from_sliding_records(
            churny_trace(seed), num_windows=5, bipartite=False
        )
        previous = scheme.compute_all(sequence[0])
        for t in range(1, len(sequence)):
            full = scheme.compute_all(sequence[t])
            incremental = scheme.compute_all(
                sequence[t], delta=sequence.deltas[t - 1], previous=previous
            )
            assert incremental == full
            previous = incremental

    @pytest.mark.parametrize("name,params", SCHEME_CONFIGS)
    def test_bipartite_sliding_sequence(self, name, params):
        scheme = create_scheme(name, k=4, **params)
        sequence = GraphSequence.from_sliding_records(
            churny_trace(23, bipartite=True), num_windows=5, bipartite=True
        )
        assert isinstance(sequence[0], BipartiteGraph)
        previous = scheme.compute_all(sequence[0])
        for t in range(1, len(sequence)):
            full = scheme.compute_all(sequence[t])
            incremental = scheme.compute_all(
                sequence[t], delta=sequence.deltas[t - 1], previous=previous
            )
            assert incremental == full
            previous = incremental

    @pytest.mark.parametrize("name,params", SCHEME_CONFIGS)
    def test_diffed_delta_on_restricted_population(self, name, params):
        # Deltas from WindowDelta.from_graphs (the experiments' producer),
        # with an explicit target population rather than the whole graph.
        scheme = create_scheme(name, k=5, **params)
        sequence = GraphSequence.from_sliding_records(
            churny_trace(41), num_windows=4
        )
        population = sequence.common_nodes()
        assert population
        previous = scheme.compute_all(sequence[0], population)
        for t in range(1, len(sequence)):
            delta = WindowDelta.from_graphs(sequence[t - 1], sequence[t])
            full = scheme.compute_all(sequence[t], population)
            incremental = scheme.compute_all(
                sequence[t], population, delta=delta, previous=previous
            )
            assert incremental == full
            previous = incremental

    def test_empty_delta_reuses_everything(self):
        scheme = create_scheme("tt", k=5)
        sequence = GraphSequence.from_sliding_records(churny_trace(3), num_windows=3)
        graph = sequence[1]
        previous = scheme.compute_all(graph)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            again = scheme.compute_all(
                graph, delta=WindowDelta(), previous=previous
            )
        assert again == previous
        assert registry.counter_value("incremental.dirty_nodes", scheme="tt") == 0
        assert registry.counter_value(
            "incremental.reused_signatures", scheme="tt"
        ) == len(previous)

    def test_full_recompute_counts_every_target_dirty(self):
        # Every call accounts every target, so dirty + reused is the
        # target count whether or not the scheme reused anything.
        sequence = GraphSequence.from_sliding_records(churny_trace(3), num_windows=3)
        graph = sequence[1]
        targets = graph.nodes() + ["absent"]
        rwr = create_scheme("rwr", k=5)
        previous = rwr.compute_all(sequence[0])
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            create_scheme("tt", k=5).compute_all(graph, targets)
            # Unbounded RWR declines a dirty set: a full recompute too.
            rwr.compute_all(graph, targets, delta=sequence.deltas[0], previous=previous)
        for name in ("tt", "rwr"):
            assert registry.counter_value("incremental.dirty_nodes", scheme=name) == len(targets)
            assert registry.counter_value("incremental.reused_signatures", scheme=name) == 0


class TestDirtySets:
    def test_tt_dirty_is_sources(self):
        scheme = create_scheme("tt", k=3)
        sequence = GraphSequence.from_sliding_records(churny_trace(9), num_windows=3)
        delta = sequence.deltas[0]
        dirty = scheme.dirty_nodes(sequence[1], delta)
        assert dirty is not None
        assert delta.sources() <= dirty

    def test_unbounded_rwr_declines(self):
        scheme = create_scheme("rwr")
        sequence = GraphSequence.from_sliding_records(churny_trace(9), num_windows=3)
        assert scheme.dirty_nodes(sequence[1], sequence.deltas[0]) is None

    def test_ut_tfidf_declines_on_node_churn(self):
        # tfidf scaling reads |V|; any node churn touches every owner.
        scheme = create_scheme("ut", scaling="tfidf")
        graph = BipartiteGraph([("u1", "t1", 1.0)])
        delta = WindowDelta(added_nodes=frozenset({"t9"}))
        assert scheme.dirty_nodes(graph, delta) is None

    def test_metrics_recorded(self):
        scheme = create_scheme("it", k=4)
        sequence = GraphSequence.from_sliding_records(churny_trace(13), num_windows=3)
        previous = scheme.compute_all(sequence[0])
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            scheme.compute_all(
                sequence[1], delta=sequence.deltas[0], previous=previous
            )
        flat = registry.counters_flat()
        assert "incremental.dirty_nodes{scheme=it}" in flat
        assert "incremental.reused_signatures{scheme=it}" in flat


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
