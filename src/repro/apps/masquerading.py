"""Label masquerading detection — Algorithm 1 of the paper (Section V).

A masquerader moves all their communication from label ``v`` to label
``u`` between windows ``t`` and ``t+1``.  Algorithm 1:

1. Nodes whose own persistence exceeds a threshold ``delta`` are declared
   non-suspect (added to ``M``).
2. For the remaining (non-persistent) nodes ``v``, compute the cross-window
   persistence ``A[v, u] = 1 - Dist(sigma_t(v), sigma_{t+1}(u))`` against
   every ``u``; if some ``u != v`` is among ``v``'s top-l matches and is
   itself non-persistent (``A[u, u] <= delta``), output the pair ``(v, u)``
   into ``O_P``; otherwise ``v`` goes to ``M``.

``delta`` follows the paper's empirical rule: the mean self-persistence
across the population divided by an integer scale ``c`` (the paper uses
``c in {3, 5, 7}`` and reports c=5).

Accuracy is the paper's combined criterion
``(|M ∩ (V - P)| + |O_P ∩ E_P|) / |V|``: the fraction of labels either
correctly cleared or correctly re-identified with their new label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.distances import DistanceFunction
from repro.core.properties import persistence_values
from repro.core.scheme import SignatureScheme
from repro.core.signature import Signature
from repro.exceptions import ExperimentError
from repro.graph.comm_graph import CommGraph
from repro.perturb.masquerade import MasqueradePlan
from repro.types import NodeId


@dataclass(frozen=True)
class MasqueradeDetectionResult:
    """Output of Algorithm 1.

    ``non_suspects`` is the paper's ``M``; ``detected_pairs`` is ``O_P``,
    mapping ``v`` (old label) to the label ``u`` the individual now uses.
    """

    non_suspects: frozenset
    detected_pairs: Dict[NodeId, NodeId]
    delta: float
    population: Tuple[NodeId, ...]


class MasqueradeDetector:
    """Algorithm 1 with the paper's mean-persistence/c threshold rule."""

    def __init__(
        self,
        scheme: SignatureScheme,
        distance: DistanceFunction,
        top_matches: int = 3,
        threshold_scale: int = 5,
        approximate_matching: bool = False,
        lsh_bands: int = 64,
        lsh_rows_per_band: int = 2,
    ) -> None:
        """Configure Algorithm 1.

        With ``approximate_matching=True`` the cross-window candidate
        ranking goes through a MinHash-LSH index instead of scanning the
        whole population per suspect (Section VI's scalable-comparison
        path): only LSH candidates are scored, trading a little recall for
        sub-quadratic work on large populations.
        """
        if top_matches < 1:
            raise ExperimentError(f"top_matches (l) must be >= 1, got {top_matches}")
        if threshold_scale < 1:
            raise ExperimentError(
                f"threshold_scale (c) must be >= 1, got {threshold_scale}"
            )
        self.scheme = scheme
        self.distance = distance
        self.top_matches = top_matches
        self.threshold_scale = threshold_scale
        self.approximate_matching = approximate_matching
        self.lsh_bands = lsh_bands
        self.lsh_rows_per_band = lsh_rows_per_band

    # ------------------------------------------------------------------
    def detect(
        self,
        graph_now: CommGraph,
        graph_next: CommGraph,
        population: Sequence[NodeId] | None = None,
        signatures_now: Mapping[NodeId, Signature] | None = None,
        signatures_next: Mapping[NodeId, Signature] | None = None,
    ) -> MasqueradeDetectionResult:
        """Run Algorithm 1 over ``population`` (default: nodes in both windows).

        Precomputed signature maps may be supplied to amortise signature
        construction across parameter sweeps (they must cover the
        population); otherwise signatures are computed here.
        """
        if population is None:
            population = [node for node in graph_now.nodes() if node in graph_next]
        population = list(population)
        if not population:
            raise ExperimentError("masquerade detection needs a non-empty population")

        if signatures_now is None:
            signatures_now = self.scheme.compute_all(graph_now, population)
        if signatures_next is None:
            signatures_next = self.scheme.compute_all(graph_next, population)
        missing = [
            node
            for node in population
            if node not in signatures_now or node not in signatures_next
        ]
        if missing:
            raise ExperimentError(f"signatures missing for population nodes: {missing[:5]}")
        # Each suspect reads every candidate: decode once (a pack decodes a
        # row on every read).
        signatures_next = dict(signatures_next)

        self_persistence = persistence_values(
            signatures_now, signatures_next, self.distance, population
        )
        delta = sum(self_persistence.values()) / (self.threshold_scale * len(population))

        non_suspects: Set[NodeId] = set()
        detected: Dict[NodeId, NodeId] = {}
        suspects = [node for node in population if self_persistence[node] <= delta]
        non_suspects.update(
            node for node in population if self_persistence[node] > delta
        )
        suspect_set = set(suspects)

        candidate_index = None
        if self.approximate_matching:
            from repro.matching.lsh import ApproxSignatureIndex

            candidate_index = ApproxSignatureIndex(
                bands=self.lsh_bands,
                rows_per_band=self.lsh_rows_per_band,
                distance=self.distance,
            )
            for node in population:
                candidate_index.add(signatures_next[node])

        for node in suspects:
            if candidate_index is not None:
                matches = [
                    (candidate, 1.0 - score)
                    for candidate, score in candidate_index.query(
                        signatures_now[node], k=len(population), exclude_self=False
                    )
                    if candidate != node
                ]
            else:
                matches = self._ranked_matches(
                    signatures_now[node], node, population, signatures_next
                )
            chosen = None
            for candidate, _similarity in matches[: self.top_matches]:
                # The new label must itself look non-persistent (the real
                # owner of u vanished or also moved), per Step 7.
                if candidate in suspect_set:
                    chosen = candidate
                    break
            if chosen is None:
                non_suspects.add(node)
            else:
                detected[node] = chosen

        return MasqueradeDetectionResult(
            non_suspects=frozenset(non_suspects),
            detected_pairs=detected,
            delta=delta,
            population=tuple(population),
        )

    def _ranked_matches(
        self,
        query_signature: Signature,
        query: NodeId,
        population: Sequence[NodeId],
        signatures_next: Mapping[NodeId, Signature],
    ) -> List[Tuple[NodeId, float]]:
        """Candidates ranked by cross-window similarity to the query, best first."""
        scored = [
            (candidate, 1.0 - self.distance(query_signature, signatures_next[candidate]))
            for candidate in population
            if candidate != query
        ]
        scored.sort(key=lambda item: (-item[1], str(item[0])))
        return scored


def masquerade_accuracy(
    result: MasqueradeDetectionResult,
    plan: MasqueradePlan,
) -> float:
    """The paper's accuracy: correctly-cleared plus correctly-re-identified, over |V|.

    ``accuracy = (|M ∩ (V - P)| + |O_P ∩ E_P|) / |V|``.
    """
    population = set(result.population)
    if not population:
        raise ExperimentError("empty population in detection result")
    unperturbed = population - set(plan.perturbed_nodes)
    correct_clear = len(result.non_suspects & unperturbed)
    correct_pairs = sum(
        1
        for old_label, new_label in result.detected_pairs.items()
        if plan.mapping.get(old_label) == new_label
    )
    return (correct_clear + correct_pairs) / len(population)
