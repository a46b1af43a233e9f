"""Multiusage (anti-aliasing) detection — Sections II-D and V of the paper.

A single individual operating several node labels in the *same* window
(home/office/hotspot connection points) leaves near-identical signatures
on those labels.  The detector computes ``Dist(sigma(v), sigma(u))`` for
candidate pairs within one window and reports high-similarity pairs; the
evaluation reproduces the paper's Figure 5 protocol — an average ROC over
all labels with registered aliases, ranked against the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.distances import DistanceFunction
from repro.core.roc import SetQueryRocResult, roc_set_query
from repro.core.scheme import SignatureScheme
from repro.core.signature import Signature
from repro.exceptions import ExperimentError
from repro.graph.comm_graph import CommGraph
from repro.matching.index import SignatureIndex
from repro.types import NodeId


@dataclass(frozen=True)
class MultiusagePair:
    """A detected candidate alias pair and its signature distance."""

    first: NodeId
    second: NodeId
    distance: float


@dataclass(frozen=True)
class MultiusageReport:
    """Detector output: pairs below threshold, most similar first."""

    pairs: Tuple[MultiusagePair, ...]
    threshold: float

    def as_sets(self) -> List[frozenset]:
        """Connected components of the detected pair graph (alias groups)."""
        parent: Dict[NodeId, NodeId] = {}

        def find(node: NodeId) -> NodeId:
            while parent.get(node, node) != node:
                parent[node] = parent.get(parent[node], parent[node])
                node = parent[node]
            return node

        for pair in self.pairs:
            parent.setdefault(pair.first, pair.first)
            parent.setdefault(pair.second, pair.second)
            root_a, root_b = find(pair.first), find(pair.second)
            if root_a != root_b:
                parent[root_a] = root_b
        groups: Dict[NodeId, set] = {}
        for node in parent:
            groups.setdefault(find(node), set()).add(node)
        return [frozenset(group) for group in groups.values()]


class MultiusageDetector:
    """Pairwise-similarity multiusage detector for one time window."""

    def __init__(
        self,
        scheme: SignatureScheme,
        distance: DistanceFunction,
        threshold: float = 0.5,
    ) -> None:
        if not 0 <= threshold <= 1:
            raise ExperimentError(f"threshold must be in [0, 1], got {threshold}")
        self.scheme = scheme
        self.distance = distance
        self.threshold = threshold

    def signatures(
        self, graph: CommGraph, population: Iterable[NodeId] | None = None
    ) -> Dict[NodeId, Signature]:
        """Compute the window's signatures for the candidate population.

        For bipartite graphs the population defaults to the left partition:
        right-partition destinations have no outgoing edges, so their empty
        signatures would all match each other at distance zero.
        """
        if population is None:
            from repro.graph.bipartite import BipartiteGraph

            if isinstance(graph, BipartiteGraph):
                population = graph.left_nodes
        return self.scheme.compute_all(graph, population)

    def detect(
        self,
        graph: CommGraph,
        population: Sequence[NodeId] | None = None,
    ) -> MultiusageReport:
        """Report all pairs with ``Dist < threshold`` within the window.

        ``population`` restricts the candidate labels (e.g. monitored local
        hosts); pairs are returned sorted by ascending distance.
        """
        index = SignatureIndex(self.signatures(graph, population), self.distance)
        return MultiusageReport(
            pairs=tuple(MultiusagePair(*pair) for pair in index.pairs_within(self.threshold)),
            threshold=self.threshold,
        )

    def evaluate(
        self,
        graph: CommGraph,
        positives_by_query: Mapping[NodeId, Iterable[NodeId]],
        population: Sequence[NodeId] | None = None,
    ) -> SetQueryRocResult:
        """Figure 5 evaluation: average ROC over labels with known aliases.

        ``positives_by_query`` maps each aliased label to its sibling
        labels (the ``S_u`` ground-truth registration sets).
        """
        signatures = self.signatures(graph, population)
        candidates = list(signatures)
        return roc_set_query(
            signatures, positives_by_query, self.distance, candidates=candidates
        )
