"""Unit tests for the memory-budgeted sketch tier engine."""

import pytest

from repro import obs
from repro.core.execution import make_engine
from repro.core.scheme import create_scheme
from repro.exceptions import SchemeError, StreamingError
from repro.graph.comm_graph import CommGraph
from repro.streaming.tier import SketchTierEngine


@pytest.fixture
def dataset():
    from repro.datasets.enterprise import EnterpriseFlowGenerator, EnterpriseParams

    return EnterpriseFlowGenerator(
        EnterpriseParams(
            num_hosts=80, num_external=1500, num_windows=2, num_alias_users=5, seed=5
        )
    ).generate()


def mean_topk_overlap(exact, approx, hosts):
    overlaps = [
        len(exact[h].nodes & approx[h].nodes) / len(exact[h].nodes)
        for h in hosts
        if exact[h].nodes
    ]
    return sum(overlaps) / len(overlaps)


class TestValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(StreamingError):
            SketchTierEngine(budget_bytes=0)

    def test_hot_fraction_range(self):
        with pytest.raises(StreamingError):
            SketchTierEngine(hot_fraction=1.5)

    def test_sketch_delta_range(self):
        with pytest.raises(StreamingError):
            SketchTierEngine(sketch_delta=0.0)

    def test_unknown_strategy_names_sketch(self):
        with pytest.raises(SchemeError, match="sketch"):
            make_engine("warp")


class TestComputeBatch:
    def test_answers_every_target(self, dataset):
        graph, hosts = dataset.graphs[0], dataset.local_hosts
        scheme = create_scheme("tt", k=10)
        engine = SketchTierEngine(budget_bytes=1 << 15)
        result = scheme.compute_all(graph, hosts, engine=engine)
        assert list(result) == list(hosts)
        assert all(result[h] is not None for h in hosts)
        stats = engine.last_stats
        assert stats["hot_nodes"] + stats["tail_nodes"] == len(hosts)
        assert stats["tail_nodes"] > 0  # budget tight enough to force a tail

    def test_hot_set_is_exact(self, dataset):
        graph, hosts = dataset.graphs[0], dataset.local_hosts
        scheme = create_scheme("tt", k=10)
        engine = SketchTierEngine(budget_bytes=1 << 15)
        result = scheme.compute_all(graph, hosts, engine=engine)
        exact = scheme.compute_all(graph, hosts)
        # Hot nodes are the top out-volume sources; the heaviest source
        # must be among them and answered byte-identically.
        heaviest = max(hosts, key=graph.out_strength)
        assert result[heaviest] == exact[heaviest]

    def test_generous_budget_matches_exact(self, dataset):
        graph, hosts = dataset.graphs[0], dataset.local_hosts
        scheme = create_scheme("tt", k=10)
        engine = SketchTierEngine(budget_bytes=1 << 22)
        result = scheme.compute_all(graph, hosts, engine=engine)
        exact = scheme.compute_all(graph, hosts)
        assert mean_topk_overlap(exact, result, hosts) == pytest.approx(1.0)

    def test_accuracy_degrades_gracefully_with_budget(self, dataset):
        graph, hosts = dataset.graphs[0], dataset.local_hosts
        scheme = create_scheme("tt", k=10)
        exact = scheme.compute_all(graph, hosts)
        overlaps = []
        for budget in (1 << 13, 1 << 22):
            engine = SketchTierEngine(budget_bytes=budget)
            approx = scheme.compute_all(
                graph, hosts, engine=engine
            )
            overlaps.append(mean_topk_overlap(exact, approx, hosts))
        assert overlaps[0] <= overlaps[1]
        assert overlaps[0] > 0.5  # even a starved tier stays useful

    def test_one_fat_node_does_not_starve_the_hot_set(self):
        """Regression: hot selection is a greedy knapsack, not a scan that
        stops at the first candidate that does not fit.  A scanner-style
        source (huge volume, one-off destinations) outranks everything by
        volume but costs more than the whole hot budget; it must be
        *skipped* so the cheap repeat-talker hosts still fill the hot set
        and get exact answers."""
        graph = CommGraph()
        for i in range(400):
            graph.add_edge("scan", f"probe-{i}", 1.0)
        cheap = [f"cheap-{i}" for i in range(30)]
        for host in cheap:
            for j in range(4):
                graph.add_edge(host, f"svc-{j}", 20.0)
        scheme = create_scheme("tt", k=3)
        engine = SketchTierEngine(budget_bytes=8192, hot_fraction=0.5)
        result = scheme.compute_all(
            graph, ["scan", *cheap], engine=engine
        )
        # Budget 4096 < the scanner's 400 * 16 adjacency; every cheap
        # host (64 bytes each) fits behind it.
        assert engine.last_stats["hot_nodes"] == len(cheap)
        exact = scheme.compute_all(graph, cheap)
        assert all(result[host] == exact[host] for host in cheap)

    def test_ut_counts_hot_sources_in_tail_in_degrees(self):
        """A tail owner's candidate popularity must include hot traffic:
        |I(j)| counts every source, not just tail ones."""
        graph = CommGraph()
        # "big" is hot by volume; it also inflates hub's in-degree.
        graph.add_edge("big", "hub", 500.0)
        for i in range(4):
            graph.add_edge(f"filler-{i}", "hub", 1.0)
        # "small" (tail) talks to hub and to an obscure destination.
        graph.add_edge("small", "hub", 3.0)
        graph.add_edge("small", "obscure", 3.0)
        scheme = create_scheme("ut", k=1)
        engine = SketchTierEngine(budget_bytes=4096, hot_fraction=0.2)
        result = scheme.compute_all(
            graph, ["big", "small"], engine=engine
        )
        exact = scheme.compute_all(graph, ["big", "small"])
        # Exact: obscure (3/1) beats hub (3/6) for "small"; the sketch
        # must agree even when some of hub's sources are hot or untargeted.
        assert exact["small"].nodes == {"obscure"}
        assert result["small"].nodes == {"obscure"}

    def test_unsketchable_scheme_falls_back_to_exact(self, dataset):
        graph, hosts = dataset.graphs[0], dataset.local_hosts
        scheme = create_scheme("rwr", k=5, max_hops=2)
        engine = SketchTierEngine(budget_bytes=1 << 14)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = scheme.compute_all(
                graph, hosts[:6], engine=engine
            )
        exact = scheme.compute_all(graph, hosts[:6])
        assert result == exact
        assert registry.counter_total("sketch.fallback") == 1.0

    def test_obs_metrics_recorded(self, dataset):
        graph, hosts = dataset.graphs[0], dataset.local_hosts
        scheme = create_scheme("tt", k=10)
        engine = SketchTierEngine(budget_bytes=1 << 15)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            scheme.compute_all(graph, hosts, engine=engine)
        assert registry.counter_total("sketch.hot_nodes") == engine.last_stats[
            "hot_nodes"
        ]
        assert registry.counter_total("sketch.tail_nodes") == engine.last_stats[
            "tail_nodes"
        ]
        gauges = {name: value for name, _labels, value in registry.snapshot()["gauges"]}
        assert gauges["sketch.bytes_budgeted"] == 1 << 15
        assert gauges["sketch.bytes_used"] == engine.last_stats["bytes_used"]

    def test_budget_bounds_tail_state(self, dataset):
        """The whole point: tier state tracks the budget, not the universe."""
        graph, hosts = dataset.graphs[0], dataset.local_hosts
        scheme = create_scheme("tt", k=10)
        small = SketchTierEngine(budget_bytes=1 << 15)
        large = SketchTierEngine(budget_bytes=1 << 19)
        scheme.compute_all(graph, hosts, engine=small)
        small_used = small.last_stats["bytes_used"]
        scheme.compute_all(graph, hosts, engine=large)
        large_used = large.last_stats["bytes_used"]
        assert small_used < large_used
        assert small_used <= (1 << 15) * 2  # floors may overshoot, boundedly

