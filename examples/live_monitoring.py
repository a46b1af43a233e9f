"""Live monitoring: alert rules, structured events, and a /metrics scrape.

Runs :class:`repro.SequenceMonitor` over a window sequence with an
injected behaviour break, with the full live-observability stack
attached:

- a structured JSON-lines event log capturing every transition,
- a :func:`repro.obs.persistence_drop_rule` alert with hysteresis that
  fires exactly once when the victim's persistence collapses,
- an :class:`repro.obs.ObsServer` exposing the run's metrics over HTTP,
  scraped once mid-example the way Prometheus would.

Run:  python examples/live_monitoring.py
"""

import io
import json
import urllib.request

from repro import (
    EnterpriseFlowGenerator,
    EnterpriseParams,
    SequenceMonitor,
    edges_in_build_order,
    obs,
    rebuilt,
)
from repro.apps.monitor import node_persistence_key
from repro.core.distances import get_distance
from repro.core.scheme import create_scheme
from repro.graph.windows import GraphSequence


def break_behaviour(graph, node, seed):
    """Replace a node's outbound behaviour wholesale (a compromise)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    edges = edges_in_build_order(graph)
    edges = {edge: weight for edge, weight in edges.items() if edge[0] != node}
    for index in range(25):
        edges[node, f"strange-{seed}-{index}"] = float(rng.integers(1, 6))
    return rebuilt(graph, edges)


def main() -> None:
    params = EnterpriseParams(
        num_hosts=40,
        num_external=400,
        num_services=8,
        num_windows=4,
        num_alias_users=5,
        seed=3,
    )
    dataset = EnterpriseFlowGenerator(params).generate()
    hosts = dataset.local_hosts
    victim = hosts[2]

    # Compromise the victim for windows 2 and 3: a sustained drop, not a
    # single bad transition.
    graphs = list(dataset.graphs)
    graphs[2] = break_behaviour(graphs[2], victim, seed=6)
    graphs[3] = break_behaviour(graphs[3], victim, seed=7)
    print(f"injected sustained behaviour break on {victim} (windows 2-3)")

    # One alert rule on the victim's own persistence trajectory.  The
    # hysteresis band (clear_margin) means the rule fires once when the
    # trajectory first collapses and stays silent while it remains low.
    rule = obs.AlertRule(
        name="victim-persistence-drop",
        metric=node_persistence_key(victim),
        threshold=0.3,
        clear_margin=0.05,
        level="error",
    )
    monitor = SequenceMonitor(
        create_scheme("tt", k=10),
        get_distance("shel"),
        threshold=0.05,
        alert_rules=[rule],
    )

    buffer = io.StringIO()
    event_log = obs.EventLog(buffer)
    registry = obs.MetricsRegistry()
    with obs.use_event_log(event_log), obs.use_registry(registry):
        with obs.ObsServer(registry, meta={"command": "live_monitoring"}) as server:
            print(f"obs server listening on {server.url}")
            result = monitor.run(GraphSequence(graphs=graphs), population=hosts)
            # Scrape the live endpoint like Prometheus would.
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as res:
                exposition = res.read().decode("utf-8")

    problems = obs.validate_prometheus(exposition)
    print(f"scraped /metrics mid-process: {len(exposition.splitlines())} lines, "
          f"{'valid' if not problems else problems}")

    print()
    print(f"transitions analysed: {len(result.reports)}")
    for event in result.alerts:
        print(
            f"alert {event.kind}: rule={event.rule} value={event.value:.3f} "
            f"at transition {event.time:.0f}"
        )
    assert len(result.fired_alerts) == 1, "hysteresis should fire exactly once"

    print()
    print("victim persistence trajectory:")
    for t, value in result.series[node_persistence_key(victim)]:
        print(f"  transition {t:.0f}: {value:.3f}")

    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    alert_events = [e for e in events if e["event"].startswith("alert.")]
    print()
    print(f"event log captured {len(events)} events "
          f"({len(alert_events)} alert transitions); sample:")
    for event in alert_events:
        print(f"  {json.dumps(event, sort_keys=True)}")


if __name__ == "__main__":
    main()
