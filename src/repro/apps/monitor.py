"""Continuous monitoring over a whole window sequence.

The paper's anomaly detector compares one pair of consecutive windows.
Production deployments watch a *stream* of windows: this module runs the
detector over every consecutive pair of a :class:`GraphSequence`, tracks
each label's persistence trajectory, and summarises which labels broke,
when, and how often.

It also exposes the longer-horizon persistence measurement the paper
gestures at ("signatures that exhibit higher persistence over a longer
term will be more effective"): persistence as a function of window lag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.apps.anomaly import AnomalyDetector, AnomalyReport
from repro.core.distances import DistanceFunction
from repro.core.properties import persistence_values
from repro.core.scheme import SignatureScheme
from repro.core.signature import Signature
from repro.exceptions import ExperimentError
from repro.graph.windows import GraphSequence
from repro.obs.alerts import AlertEvent, AlertManager, AlertRule
from repro.obs.timeseries import TimeSeriesStore
from repro.types import NodeId

#: Series keys the monitor records per transition (plus one per node).
PERSISTENCE_MEAN = "monitor.persistence.mean"
PERSISTENCE_MEDIAN = "monitor.persistence.median"
PERSISTENCE_MIN = "monitor.persistence.min"


def node_persistence_key(node: NodeId) -> str:
    """Series key of one node's persistence trajectory
    (``monitor.persistence{node=...}``) — usable as an alert-rule metric."""
    return obs.render_key("monitor.persistence", (("node", str(node)),))


@dataclass(frozen=True)
class MonitorResult:
    """Output of :meth:`SequenceMonitor.run`.

    ``reports[t]`` covers the transition from window ``t`` to ``t+1``;
    ``trajectories[node]`` is the node's persistence series over those
    transitions; ``flag_counts`` says how often each node was flagged.
    ``series`` holds the recorded metric trajectories (transition index as
    time axis) and ``alerts`` every alert-rule transition, in firing order.
    """

    reports: Tuple[AnomalyReport, ...]
    trajectories: Dict[NodeId, List[float]]
    flag_counts: Dict[NodeId, int]
    series: Dict[str, List[List[float]]] = field(default_factory=dict)
    alerts: Tuple[AlertEvent, ...] = ()

    @property
    def fired_alerts(self) -> Tuple[AlertEvent, ...]:
        """Only the ``fired`` transitions (clears filtered out)."""
        return tuple(event for event in self.alerts if event.kind == "fired")

    def chronic_offenders(self, min_flags: int = 2) -> List[NodeId]:
        """Labels flagged in at least ``min_flags`` transitions."""
        return sorted(
            (node for node, count in self.flag_counts.items() if count >= min_flags),
            key=str,
        )

    def first_flag_window(self, node: NodeId) -> int | None:
        """Index of the first transition in which ``node`` was flagged."""
        for index, report in enumerate(self.reports):
            if node in report.flagged_nodes:
                return index
        return None


class SequenceMonitor:
    """Run persistence-based anomaly detection across a window sequence.

    ``alert_rules`` (see :class:`repro.obs.AlertRule` /
    :func:`repro.obs.persistence_drop_rule`) are evaluated after every
    transition against the recorded persistence series —
    ``monitor.persistence.mean`` / ``.median`` / ``.min`` plus one
    ``monitor.persistence{node=...}`` series per node — with hysteresis,
    so a sustained drop fires exactly one alert event.  Fired/cleared
    transitions land in ``result.alerts``, on the active structured event
    log, and as ``alerts.fired{rule=...}`` counters.
    """

    def __init__(
        self,
        scheme: SignatureScheme,
        distance: DistanceFunction,
        threshold: float | None = None,
        zscore_cutoff: float = 3.0,
        alert_rules: Sequence[AlertRule] = (),
    ) -> None:
        self.detector = AnomalyDetector(
            scheme, distance, threshold=threshold, zscore_cutoff=zscore_cutoff
        )
        self.scheme = scheme
        self.distance = distance
        self.alert_rules: Tuple[AlertRule, ...] = tuple(alert_rules)

    def run(
        self,
        sequence: GraphSequence,
        population: Sequence[NodeId] | None = None,
    ) -> MonitorResult:
        """Detect anomalies on every consecutive window pair."""
        if len(sequence) < 2:
            raise ExperimentError("monitoring needs at least two windows")
        if population is None:
            population = sequence.common_nodes()
        population = list(population)

        store = TimeSeriesStore(max_points=max(len(sequence), 2))
        alerts = AlertManager(self.alert_rules)
        reports: List[AnomalyReport] = []
        trajectories: Dict[NodeId, List[float]] = {node: [] for node in population}
        flag_counts: Dict[NodeId, int] = {node: 0 for node in population}
        with obs.span("monitor.run", transitions=len(sequence) - 1):
            signature_maps = _sequence_signature_maps(
                self.scheme, sequence, population
            )
            for index in range(len(sequence) - 1):
                report = self.detector.detect_from_signatures(
                    signature_maps[index], signature_maps[index + 1], population
                )
                reports.append(report)
                for node in population:
                    trajectories[node].append(report.persistence_by_node[node])
                for node in report.flagged_nodes:
                    flag_counts[node] += 1
                self._record_transition(store, alerts, index, report)
        return MonitorResult(
            reports=tuple(reports),
            trajectories=trajectories,
            flag_counts=flag_counts,
            series=store.to_dict(),
            alerts=tuple(alerts.events),
        )

    def _record_transition(
        self,
        store: TimeSeriesStore,
        alerts: AlertManager,
        index: int,
        report: AnomalyReport,
    ) -> None:
        """Record the transition's persistence series and evaluate alerts."""
        values = list(report.persistence_by_node.values())
        t = float(index)
        store.record(PERSISTENCE_MEAN, t, float(np.mean(values)))
        store.record(PERSISTENCE_MEDIAN, t, report.median_persistence)
        store.record(PERSISTENCE_MIN, t, float(min(values)))
        for node, value in report.persistence_by_node.items():
            store.record(node_persistence_key(node), t, value)
        obs.counter("monitor.transitions").inc()
        if report.flagged_nodes:
            obs.counter("monitor.flagged_nodes").inc(len(report.flagged_nodes))
        obs.emit(
            "monitor.transition",
            level="warning" if report.flagged_nodes else "debug",
            transition=index,
            flagged=[str(node) for node in report.flagged_nodes],
            median_persistence=report.median_persistence,
        )
        alerts.observe_store(store, t=t)


def _sequence_signature_maps(
    scheme: SignatureScheme,
    sequence: GraphSequence,
    population: Sequence[NodeId],
) -> List[Dict[NodeId, "Signature"]]:
    """One signature map per window, each computed once from its own
    graph, where the naive per-transition detector computed interior
    windows twice."""
    population = list(population)
    return [scheme.compute_all(graph, population) for graph in sequence.graphs]


def persistence_by_lag(
    scheme: SignatureScheme,
    distance: DistanceFunction,
    sequence: GraphSequence,
    population: Sequence[NodeId] | None = None,
    max_lag: int | None = None,
) -> Dict[int, float]:
    """Mean persistence ``1 - Dist(sigma_t(v), sigma_{t+lag}(v))`` per lag.

    Reveals how fast a scheme's signatures decay over longer horizons —
    slowly decaying schemes make better long-term anomaly detectors (the
    paper's Section II-D remark).  Lag 0 is omitted (trivially 1).
    """
    if len(sequence) < 2:
        raise ExperimentError("need at least two windows to measure lag persistence")
    if population is None:
        population = sequence.common_nodes()
    population = list(population)
    if not population:
        raise ExperimentError("empty population")
    horizon = len(sequence) - 1 if max_lag is None else min(max_lag, len(sequence) - 1)

    signature_maps = _sequence_signature_maps(scheme, sequence, population)
    by_lag: Dict[int, float] = {}
    for lag in range(1, horizon + 1):
        values = []
        for start in range(len(sequence) - lag):
            now, later = signature_maps[start], signature_maps[start + lag]
            values.extend(persistence_values(now, later, distance, population).values())
        by_lag[lag] = float(np.mean(values))
    return by_lag
