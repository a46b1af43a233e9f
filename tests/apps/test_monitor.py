"""Unit and integration tests for sequence monitoring and lag persistence."""

import numpy as np
import pytest

from repro.apps.monitor import SequenceMonitor, persistence_by_lag
from repro.core.distances import dist_scaled_hellinger
from repro.core.scheme import create_scheme
from repro.exceptions import ExperimentError
from repro.graph.comm_graph import CommGraph, edges_in_build_order, rebuilt
from repro.graph.windows import GraphSequence


@pytest.fixture
def monitor():
    # The miniature dataset has a wide persistence spread, so the tests use
    # the absolute-threshold mode: a complete behaviour break scores ~0.
    return SequenceMonitor(
        create_scheme("tt", k=10), dist_scaled_hellinger, threshold=0.05
    )


def replace_behaviour(graph, node, seed=0):
    rng = np.random.default_rng(seed)
    edges = edges_in_build_order(graph)
    edges = {edge: weight for edge, weight in edges.items() if edge[0] != node}
    # Seed-qualified destination names: repeated breaks of the same node
    # produce genuinely different behaviours each time.
    for index in range(25):
        edges[node, f"strange-{seed}-{index}"] = float(rng.integers(1, 6))
    return rebuilt(graph, edges)


class TestSequenceMonitor:
    def test_report_per_transition(self, monitor, tiny_enterprise):
        result = monitor.run(
            tiny_enterprise.graphs, population=tiny_enterprise.local_hosts
        )
        assert len(result.reports) == len(tiny_enterprise.graphs) - 1
        for node, series in result.trajectories.items():
            assert len(series) == len(result.reports)
            assert all(0.0 <= value <= 1.0 for value in series)

    def test_needs_two_windows(self, monitor, tiny_enterprise):
        single = GraphSequence(graphs=[tiny_enterprise.graphs[0]])
        with pytest.raises(ExperimentError):
            monitor.run(single)

    def test_default_population_common_nodes(self, monitor, tiny_enterprise):
        result = monitor.run(tiny_enterprise.graphs)
        assert set(tiny_enterprise.local_hosts) <= set(result.trajectories)

    def test_injected_break_is_flagged_in_right_transition(
        self, monitor, tiny_enterprise
    ):
        victim = tiny_enterprise.local_hosts[2]
        graphs = list(tiny_enterprise.graphs)
        graphs[2] = replace_behaviour(graphs[2], victim, seed=6)
        result = monitor.run(
            GraphSequence(graphs=graphs), population=tiny_enterprise.local_hosts
        )
        assert result.first_flag_window(victim) == 1  # transition 1 -> 2
        assert result.flag_counts[victim] >= 1

    def test_first_flag_none_for_quiet_node(self, monitor, tiny_enterprise):
        result = monitor.run(
            tiny_enterprise.graphs, population=tiny_enterprise.local_hosts
        )
        quiet = [
            node
            for node, count in result.flag_counts.items()
            if count == 0
        ]
        assert quiet  # most hosts behave
        assert result.first_flag_window(quiet[0]) is None

    def test_chronic_offenders(self, monitor, tiny_enterprise):
        victim = tiny_enterprise.local_hosts[4]
        graphs = list(tiny_enterprise.graphs)
        # Break the victim in every window after the first: each transition
        # sees a different random behaviour.
        graphs[1] = replace_behaviour(graphs[1], victim, seed=10)
        graphs[2] = replace_behaviour(graphs[2], victim, seed=11)
        result = monitor.run(
            GraphSequence(graphs=graphs), population=tiny_enterprise.local_hosts
        )
        assert victim in result.chronic_offenders(min_flags=2)


class TestPersistenceByLag:
    def test_lag_keys_and_range(self, tiny_enterprise):
        by_lag = persistence_by_lag(
            create_scheme("tt", k=10),
            dist_scaled_hellinger,
            tiny_enterprise.graphs,
            population=tiny_enterprise.local_hosts,
        )
        assert set(by_lag) == {1, 2}
        assert all(0.0 <= value <= 1.0 for value in by_lag.values())

    def test_persistence_decays_with_lag(self, tiny_enterprise):
        """Profiles drift monotonically, so longer lags are less persistent."""
        by_lag = persistence_by_lag(
            create_scheme("tt", k=10),
            dist_scaled_hellinger,
            tiny_enterprise.graphs,
            population=tiny_enterprise.local_hosts,
        )
        assert by_lag[2] <= by_lag[1] + 0.02

    def test_max_lag_caps_horizon(self, tiny_enterprise):
        by_lag = persistence_by_lag(
            create_scheme("tt", k=10),
            dist_scaled_hellinger,
            tiny_enterprise.graphs,
            population=tiny_enterprise.local_hosts,
            max_lag=1,
        )
        assert set(by_lag) == {1}

    def test_validation(self, tiny_enterprise):
        scheme = create_scheme("tt", k=10)
        single = GraphSequence(graphs=[tiny_enterprise.graphs[0]])
        with pytest.raises(ExperimentError):
            persistence_by_lag(scheme, dist_scaled_hellinger, single)
        with pytest.raises(ExperimentError):
            persistence_by_lag(
                scheme, dist_scaled_hellinger, tiny_enterprise.graphs, population=[]
            )


def steady_graph():
    return CommGraph(
        [(f"host{index}", f"peer{peer}", 3.0) for index in range(6) for peer in range(4)]
    )


def broken_graph(tag):
    """Every host talks to a fresh peer set: persistence collapses to ~0."""
    return CommGraph(
        [(f"host{index}", f"odd-{tag}-{peer}", 3.0) for index in range(6) for peer in range(4)]
    )


class TestMonitorAlerting:
    """Acceptance: a sustained persistence drop fires exactly one alert."""

    POPULATION = [f"host{index}" for index in range(6)]

    def drop_sequence(self):
        # median persistence per transition: [1, ~0, ~0, ~0, ~0, 1]
        graphs = [
            steady_graph(),
            steady_graph(),
            broken_graph("a"),
            broken_graph("b"),
            broken_graph("c"),
            steady_graph(),
            steady_graph(),
        ]
        return GraphSequence(graphs=graphs)

    def alerting_monitor(self, rules):
        from repro.obs import persistence_drop_rule  # noqa: F401 - re-export check

        return SequenceMonitor(
            create_scheme("tt", k=10),
            dist_scaled_hellinger,
            threshold=0.05,
            alert_rules=rules,
        )

    def test_sustained_drop_fires_exactly_one_alert(self):
        from repro.obs import persistence_drop_rule

        monitor = self.alerting_monitor([persistence_drop_rule(0.5)])
        result = monitor.run(self.drop_sequence(), population=self.POPULATION)
        # Four consecutive breached transitions -> one fired event, then one
        # cleared event on recovery.  No re-fire while still below threshold.
        assert [event.kind for event in result.alerts] == ["fired", "cleared"]
        assert len(result.fired_alerts) == 1
        fired = result.fired_alerts[0]
        assert fired.metric == "monitor.persistence.median"
        assert fired.time == 1.0  # first broken transition
        assert fired.value < 0.5

    def test_no_alerts_when_sequence_is_steady(self, tiny_enterprise):
        from repro.obs import persistence_drop_rule

        monitor = self.alerting_monitor([persistence_drop_rule(0.05)])
        result = monitor.run(
            tiny_enterprise.graphs, population=tiny_enterprise.local_hosts
        )
        assert result.alerts == ()

    def test_per_node_rule_targets_one_trajectory(self, tiny_enterprise):
        from repro.apps.monitor import node_persistence_key
        from repro.obs import AlertRule

        victim = tiny_enterprise.local_hosts[2]
        graphs = list(tiny_enterprise.graphs)
        graphs[2] = replace_behaviour(graphs[2], victim, seed=6)
        rule = AlertRule(
            name="victim-drop",
            metric=node_persistence_key(victim),
            threshold=0.3,
        )
        monitor = self.alerting_monitor([rule])
        result = monitor.run(
            GraphSequence(graphs=graphs), population=tiny_enterprise.local_hosts
        )
        assert [event.kind for event in result.alerts] == ["fired"]
        assert result.alerts[0].time == 1.0  # transition 1 -> 2

    def test_series_recorded_per_transition(self, monitor, tiny_enterprise):
        from repro.apps.monitor import (
            PERSISTENCE_MEAN,
            PERSISTENCE_MEDIAN,
            PERSISTENCE_MIN,
            node_persistence_key,
        )

        result = monitor.run(
            tiny_enterprise.graphs, population=tiny_enterprise.local_hosts
        )
        transitions = len(tiny_enterprise.graphs) - 1
        for key in (PERSISTENCE_MEAN, PERSISTENCE_MEDIAN, PERSISTENCE_MIN):
            points = result.series[key]
            assert [point[0] for point in points] == [
                float(index) for index in range(transitions)
            ]
        node = tiny_enterprise.local_hosts[0]
        node_series = result.series[node_persistence_key(node)]
        assert [value for _t, value in node_series] == result.trajectories[node]

    def test_transitions_emit_structured_events_and_metrics(
        self, monitor, tiny_enterprise
    ):
        import io
        import json

        from repro import obs

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="m", clock=lambda: 0.0)
        registry = obs.MetricsRegistry()
        with obs.use_event_log(log), obs.use_registry(registry):
            monitor.run(
                tiny_enterprise.graphs, population=tiny_enterprise.local_hosts
            )
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        transition_events = [
            event for event in events if event["event"] == "monitor.transition"
        ]
        assert len(transition_events) == len(tiny_enterprise.graphs) - 1
        assert all(
            event["span"].startswith("monitor.run") for event in transition_events
        )
        assert registry.counter_value("monitor.transitions") == len(
            tiny_enterprise.graphs
        ) - 1

    def test_alert_events_reach_event_log(self):
        import io
        import json

        from repro import obs
        from repro.obs import persistence_drop_rule

        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="m", clock=lambda: 0.0)
        monitor = self.alerting_monitor([persistence_drop_rule(0.5)])
        with obs.use_event_log(log):
            monitor.run(self.drop_sequence(), population=self.POPULATION)
        kinds = [
            json.loads(line)["event"]
            for line in buffer.getvalue().splitlines()
            if json.loads(line)["event"].startswith("alert.")
        ]
        assert kinds == ["alert.fired", "alert.cleared"]
