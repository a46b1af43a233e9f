"""Anomaly detection — Section II-D of the paper.

An anomaly is "an abrupt and discernible change in the behavior of a fixed
label v observed in consecutive time windows".  The detector computes each
node's persistence ``1 - Dist(sigma_t(v), sigma_{t+1}(v))`` and reports the
nodes with unusually small values.  Two reporting modes are provided:

* an absolute persistence threshold, and
* a robust z-score against the population (median/MAD), which adapts to
  the scheme's baseline persistence level — schemes differ wildly in
  typical persistence, so a fixed threshold rarely transfers between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.distances import DistanceFunction
from repro.core.properties import persistence_values
from repro.core.scheme import SignatureScheme
from repro.core.signature import Signature
from repro.exceptions import ExperimentError
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId


@dataclass(frozen=True)
class Anomaly:
    """One flagged node with its persistence and population z-score."""

    node: NodeId
    persistence: float
    zscore: float


@dataclass(frozen=True)
class AnomalyReport:
    """Detector output: anomalies (most anomalous first) and population stats."""

    anomalies: Tuple[Anomaly, ...]
    persistence_by_node: Dict[NodeId, float]
    median_persistence: float
    mad_persistence: float

    @property
    def flagged_nodes(self) -> List[NodeId]:
        return [anomaly.node for anomaly in self.anomalies]


class AnomalyDetector:
    """Persistence-drop anomaly detector over one consecutive window pair."""

    def __init__(
        self,
        scheme: SignatureScheme,
        distance: DistanceFunction,
        threshold: float | None = None,
        zscore_cutoff: float = 3.0,
    ) -> None:
        if threshold is not None and not 0 <= threshold <= 1:
            raise ExperimentError(f"threshold must be in [0, 1], got {threshold}")
        if zscore_cutoff <= 0:
            raise ExperimentError(f"zscore_cutoff must be positive, got {zscore_cutoff}")
        self.scheme = scheme
        self.distance = distance
        self.threshold = threshold
        self.zscore_cutoff = zscore_cutoff

    def detect(
        self,
        graph_now: CommGraph,
        graph_next: CommGraph,
        population: Sequence[NodeId] | None = None,
    ) -> AnomalyReport:
        """Flag nodes whose persistence drops below threshold / z-score cutoff.

        When an absolute ``threshold`` was supplied it is used directly;
        otherwise a node is flagged when its persistence sits more than
        ``zscore_cutoff`` robust standard deviations below the population
        median.
        """
        if population is None:
            population = [node for node in graph_now.nodes() if node in graph_next]
        population = list(population)
        if not population:
            raise ExperimentError("anomaly detection needs a non-empty population")

        signatures_now = self.scheme.compute_all(graph_now, population)
        signatures_next = self.scheme.compute_all(graph_next, population)
        return self.detect_from_signatures(signatures_now, signatures_next, population)

    def detect_from_signatures(
        self,
        signatures_now: Dict[NodeId, "Signature"],
        signatures_next: Dict[NodeId, "Signature"],
        population: Sequence[NodeId] | None = None,
    ) -> AnomalyReport:
        """Flag nodes given precomputed signature maps for both windows.

        The entry point for callers that already hold per-window signature
        maps — notably the sequence monitor, which computes each window's
        map once instead of twice via :meth:`detect`.
        """
        if population is None:
            population = [node for node in signatures_now if node in signatures_next]
        population = list(population)
        if not population:
            raise ExperimentError("anomaly detection needs a non-empty population")
        persistence_by_node = persistence_values(
            signatures_now, signatures_next, self.distance, population
        )

        values = np.asarray(list(persistence_by_node.values()), dtype=float)
        median = float(np.median(values))
        # 1.4826 rescales MAD to the std of a normal distribution.
        mad = float(1.4826 * np.median(np.abs(values - median)))

        anomalies: List[Anomaly] = []
        for node, value in persistence_by_node.items():
            zscore = (median - value) / mad if mad > 0 else 0.0
            if self.threshold is not None:
                flagged = value < self.threshold
            else:
                flagged = mad > 0 and zscore > self.zscore_cutoff
            if flagged:
                anomalies.append(Anomaly(node=node, persistence=value, zscore=zscore))
        anomalies.sort(key=lambda anomaly: (anomaly.persistence, str(anomaly.node)))
        return AnomalyReport(
            anomalies=tuple(anomalies),
            persistence_by_node=persistence_by_node,
            median_persistence=median,
            mad_persistence=mad,
        )

    def rank(
        self,
        graph_now: CommGraph,
        graph_next: CommGraph,
        population: Sequence[NodeId] | None = None,
    ) -> List[Tuple[NodeId, float]]:
        """All nodes ranked by ascending persistence (most anomalous first)."""
        report = self.detect(graph_now, graph_next, population)
        ranked = sorted(
            report.persistence_by_node.items(), key=lambda item: (item[1], str(item[0]))
        )
        return ranked
