"""Tests for the zero-copy shared-memory recompute engine.

The engine's whole contract is *byte-identity with the serial path plus
guaranteed segment cleanup*, so most tests here compare against
``compute_all`` directly (object equality on :class:`Signature`, entry
tuples included) and then assert that no ``/dev/shm`` segment outlives
its manifest — including when a worker dies mid-dispatch.
"""

import os
import random
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import obs
from repro.core.scheme import create_scheme
from repro.core.signature import Signature
from repro.core.top_talkers import TopTalkers
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.parallel.shm import (
    ShmEngine,
    ShmError,
    active_segment_names,
    attach_graph,
    publish_graph,
    release_manifest,
)

SCHEME_GRID = [
    ("tt", {}),
    ("ut", {}),
    ("it", {}),
    ("rwr", {"max_hops": 3}),
    ("rwr", {}),  # unbounded: each owner stops at its own convergence
]


def random_graph(seed, num_nodes=40, num_edges=160):
    rng = random.Random(seed)
    graph = CommGraph()
    for _ in range(num_edges):
        src = f"h{rng.randrange(num_nodes)}"
        dst = f"h{rng.randrange(num_nodes)}"
        if src != dst:
            graph.add_edge(src, dst, rng.uniform(0.25, 9.0))
    return graph


def random_bipartite(seed, users=12, hosts=8, num_edges=60):
    rng = random.Random(seed)
    graph = BipartiteGraph()
    for _ in range(num_edges):
        graph.add_edge(
            f"u{rng.randrange(users)}", f"s{rng.randrange(hosts)}", rng.uniform(0.5, 4.0)
        )
    return graph


def population(graph):
    return [node for node in graph.nodes() if graph.out_strength(node) > 0]


@pytest.fixture(scope="module")
def engine():
    # Tiny message size forces multi-chunk dispatches even on small graphs,
    # exercising the merge path; 2 workers exercises real cross-process IPC.
    with ShmEngine(jobs=2, message_size=7) as shared:
        yield shared


class CrashScheme(TopTalkers):
    """A scheme whose batch kernel kills its worker process outright."""

    name = "crash"

    def _compute_batch(self, graph, nodes):
        os._exit(13)


class TestManifestRoundTrip:
    def test_graph_roundtrip_is_exact(self):
        graph = random_graph(3)
        manifest = publish_graph(graph)
        try:
            clone = attach_graph(manifest)
            assert list(clone.nodes()) == list(graph.nodes())
            assert clone.num_edges == graph.num_edges
            assert clone.total_weight == graph.total_weight
            for node in graph.nodes():
                # Insertion order AND exact float weights must survive.
                assert list(clone.out_neighbors(node).items()) == list(
                    graph.out_neighbors(node).items()
                )
                assert list(clone.in_neighbors(node).items()) == list(
                    graph.in_neighbors(node).items()
                )
        finally:
            release_manifest(manifest)

    def test_bipartite_roundtrip_keeps_sides(self):
        graph = random_bipartite(4)
        manifest = publish_graph(graph)
        try:
            clone = attach_graph(manifest)
            assert isinstance(clone, BipartiteGraph)
            assert clone.left_nodes == graph.left_nodes
            assert clone.right_nodes == graph.right_nodes
        finally:
            release_manifest(manifest)

    def test_release_unlinks_segments(self):
        manifest = publish_graph(random_graph(5))
        assert active_segment_names()
        release_manifest(manifest)
        assert active_segment_names() == []


class TestComputeEquivalence:
    @pytest.mark.parametrize("name,params", SCHEME_GRID)
    def test_byte_identical_to_serial(self, engine, name, params):
        scheme = create_scheme(name, k=5, **params)
        graph = random_graph(11)
        targets = population(graph)
        serial = scheme.compute_all(graph, targets)
        parallel = engine.compute_batch(scheme, graph, targets)
        assert list(parallel) == list(serial)  # same dict ordering
        assert parallel == serial
        for node in serial:
            assert parallel[node].entries == serial[node].entries

    def test_bipartite_byte_identical(self, engine):
        scheme = create_scheme("rwr", k=4, max_hops=3)
        graph = random_bipartite(12)
        targets = graph.left_nodes
        serial = scheme.compute_all(graph, targets)
        parallel = engine.compute_batch(scheme, graph, targets)
        assert parallel == serial

    def test_strategy_kwarg_routes_through_engine(self, engine):
        scheme = create_scheme("tt", k=5)
        graph = random_graph(13)
        serial = scheme.compute_all(graph)
        parallel = scheme.compute_all(graph, engine=engine)
        assert parallel == serial

    def test_randomized_property_all_schemes(self, engine):
        # The property the whole PR hangs on: for any graph and any
        # partitioning geometry the engine output is the serial output.
        for seed in range(6):
            graph = random_graph(100 + seed, num_nodes=30, num_edges=120)
            targets = population(graph)
            for name, params in SCHEME_GRID:
                scheme = create_scheme(name, k=4, **params)
                serial = scheme.compute_all(graph, targets)
                parallel = engine.compute_batch(scheme, graph, targets)
                assert parallel == serial, (seed, name, params)

    def test_unknown_strategy_rejected(self):
        from repro.core.execution import make_engine
        from repro.exceptions import SchemeError

        with pytest.raises(SchemeError, match="strategy"):
            make_engine("carrier-pigeon")


class TestUnboundedRwr:
    def test_unbounded_rwr_splits_into_tasks(self, engine):
        # Each owner's walk stops at its own convergence, so unbounded RWR
        # is chunked like every other scheme and still equals serial.
        scheme = create_scheme("rwr", k=4)
        graph = random_graph(21)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = engine.compute_batch(scheme, graph, population(graph))
        assert result == scheme.compute_all(graph, population(graph))
        assert registry.counter_value("shm.tasks", op="compute") > 1


class TestLifecycle:
    def test_context_manager_cleans_up(self):
        with ShmEngine(jobs=2) as local:
            local.compute_batch(create_scheme("tt", k=3), random_graph(41), None)
            names = local.segment_names()
            assert names
        assert local.closed
        for name in names:
            assert not Path("/dev/shm", name).exists()

    def test_compute_after_close_raises(self):
        local = ShmEngine(jobs=1)
        local.close()
        with pytest.raises(ShmError, match="closed"):
            local.compute_batch(create_scheme("tt", k=3), random_graph(42), None)

    def test_close_is_idempotent(self):
        local = ShmEngine(jobs=1)
        local.close()
        local.close()

    def test_worker_crash_cleans_segments_and_pool_recovers(self):
        local = ShmEngine(jobs=2)
        graph = random_graph(43)
        with pytest.raises(BrokenProcessPool):
            local.compute_batch(CrashScheme(k=3), graph, population(graph))
        # Segments survive the crash (the parent owns them) ...
        names = local.segment_names()
        assert names
        # ... the next dispatch transparently rebuilds the pool ...
        scheme = create_scheme("tt", k=3)
        assert local.compute_batch(scheme, graph, None) == scheme.compute_all(graph)
        # ... and close() unlinks everything, worker corpses included.
        local.close()
        for name in names:
            assert not Path("/dev/shm", name).exists()
        assert local.segment_names() == []

    def test_graph_version_bump_invalidates_cached_manifest(self, engine):
        scheme = create_scheme("tt", k=3)
        graph = random_graph(44)
        before = engine.compute_batch(scheme, graph, None)
        assert before == scheme.compute_all(graph)
        graph.add_edge("fresh-src", "fresh-dst", 5.0)
        after = engine.compute_batch(scheme, graph, None)
        assert after == scheme.compute_all(graph)
        assert "fresh-src" in after


class TestObservability:
    def test_metrics_and_span_recorded(self, engine):
        scheme = create_scheme("tt", k=3)
        graph = random_graph(51)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with obs.span("caller"):
                engine.compute_batch(scheme, graph, population(graph))
        assert registry.counter_value("shm.dispatches", op="compute") == 1
        assert registry.counter_value("shm.tasks", op="compute") >= 2
        assert registry.counter_total("shm.bytes_shared") > 0
        span_paths = [tuple(span["path"]) for span in registry.snapshot()["spans"]]
        assert any(
            len(path) >= 2
            and path[0] == "caller"
            and path[1].startswith("shm.dispatch")
            for path in span_paths
        )

    def test_worker_metrics_merged_in_input_order(self, engine):
        scheme = create_scheme("tt", k=3)
        graph = random_graph(52)
        targets = population(graph)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            scheme.compute_all(graph, targets, engine=engine)
        # Scheme kernels count per-node computes; the merged total must
        # equal the serial run's regardless of worker scheduling.
        serial_registry = obs.MetricsRegistry()
        with obs.use_registry(serial_registry):
            scheme.compute_all(graph, targets)
        shm_counts = {
            key: value
            for key, value in registry.counters_flat().items()
            if not key.startswith("shm.")
        }
        serial_counts = dict(serial_registry.counters_flat())
        assert shm_counts == serial_counts

    def test_disabled_registry_stays_silent(self, engine):
        scheme = create_scheme("tt", k=3)
        graph = random_graph(53)
        registry = obs.MetricsRegistry()
        engine.compute_batch(scheme, graph, None)  # no active registry
        with obs.use_registry(registry):
            pass
        assert registry.counters_flat() == {}

    def test_workers_gauge_tracks_pool(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            with ShmEngine(jobs=2) as local:
                local.compute_batch(create_scheme("tt", k=3), random_graph(54), None)
                assert registry.snapshot()["gauges"][0][2] == 2
        assert ("shm.workers", {}, 0.0) in [
            tuple(entry[:2]) + (entry[2],) for entry in registry.snapshot()["gauges"]
        ]
