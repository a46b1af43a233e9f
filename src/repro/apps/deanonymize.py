"""Graph de-anonymization via signatures (the paper's third motivating task).

Section I: "Analysis of Data Anonymization: can we identify nodes from an
anonymized graph given outside information about known communication
patterns per individual?"  Concretely: we hold a reference window with
real labels; a later window is released with every monitored label
replaced by a pseudonym (destinations keep their labels, as in typical
flow-trace releases).  Signatures computed on both sides live in the same
space — subsets of the unanonymized destination universe — so matching
pseudonyms to identities is an assignment problem on the cross-window
distance matrix.

Two solvers are provided:

* ``strategy="greedy"`` — repeatedly take the globally closest
  (identity, pseudonym) pair; O(n^2 log n), near-optimal when signatures
  are distinctive;
* ``strategy="optimal"`` — minimum-cost perfect matching via the
  Hungarian algorithm (:func:`scipy.optimize.linear_sum_assignment`).

This is also the formal threat model behind the paper's remark that "a
user who is effectively unable to masquerade is susceptible to anonymity
intrusion": the better signatures work, the weaker pseudonymity is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.distances import DistanceFunction
from repro.core.packed import SignaturePack, cross_matrix
from repro.core.scheme import SignatureScheme
from repro.exceptions import ExperimentError, PerturbationError
from repro.graph.comm_graph import CommGraph
from repro.perturb.masquerade import relabel_graph
from repro.types import NodeId


@dataclass(frozen=True)
class AnonymizedRelease:
    """A pseudonymised window plus the secret ground-truth mapping."""

    graph: CommGraph
    #: identity -> pseudonym (the secret the attacker tries to recover).
    pseudonyms: Dict[NodeId, NodeId]

    @property
    def pseudonym_labels(self) -> List[NodeId]:
        return list(self.pseudonyms.values())


def anonymize_graph(
    graph: CommGraph,
    population: Sequence[NodeId],
    prefix: str = "anon",
    seed: int | None = None,
) -> AnonymizedRelease:
    """Replace every ``population`` label with a fresh random pseudonym.

    Destination labels outside ``population`` are left intact (the usual
    release model for flow traces: internal hosts are pseudonymised, the
    external universe is not).
    """
    import random

    population = list(population)
    missing = [node for node in population if node not in graph]
    if missing:
        raise PerturbationError(f"population nodes not in graph: {missing[:5]}")
    rng = random.Random(seed)
    order = list(range(len(population)))
    rng.shuffle(order)
    pseudonyms = {
        node: f"{prefix}-{index:05d}" for node, index in zip(population, order)
    }
    return AnonymizedRelease(
        graph=relabel_graph(graph, pseudonyms), pseudonyms=pseudonyms
    )


@dataclass(frozen=True)
class DeanonymizationResult:
    """Recovered identity -> pseudonym assignment plus its quality."""

    assignment: Dict[NodeId, NodeId]
    accuracy: float
    mean_matched_distance: float


class Deanonymizer:
    """Match pseudonymised labels back to known identities via signatures."""

    def __init__(
        self,
        scheme: SignatureScheme,
        distance: DistanceFunction,
        strategy: str = "optimal",
    ) -> None:
        if strategy not in ("optimal", "greedy"):
            raise ExperimentError(
                f"strategy must be 'optimal' or 'greedy', got {strategy!r}"
            )
        self.scheme = scheme
        self.distance = distance
        self.strategy = strategy

    # ------------------------------------------------------------------
    def attack(
        self,
        reference_graph: CommGraph,
        release: AnonymizedRelease,
        identities: Sequence[NodeId] | None = None,
    ) -> DeanonymizationResult:
        """Recover the pseudonym mapping.

        ``reference_graph`` is the attacker's side information: an earlier
        window with real labels.  ``identities`` defaults to the keys of
        the release's ground-truth mapping (i.e. the attacker knows *who*
        is in the release, the realistic setting for enterprise data).
        """
        if identities is None:
            identities = list(release.pseudonyms)
        identities = list(identities)
        pseudonym_labels = release.pseudonym_labels
        if not identities or not pseudonym_labels:
            raise ExperimentError("nothing to de-anonymize")

        reference_signatures = self.scheme.compute_all(reference_graph, identities)
        released_signatures = self.scheme.compute_all(
            release.graph, pseudonym_labels
        )

        cost = cross_matrix(
            SignaturePack.from_signatures(reference_signatures, order=identities),
            SignaturePack.from_signatures(released_signatures, order=pseudonym_labels),
            self.distance,
        )

        if self.strategy == "optimal":
            assignment = self._solve_optimal(cost, identities, pseudonym_labels)
        else:
            assignment = self._solve_greedy(cost, identities, pseudonym_labels)

        correct = sum(
            1
            for identity, pseudonym in assignment.items()
            if release.pseudonyms.get(identity) == pseudonym
        )
        matched_distances = [
            cost[identities.index(identity), pseudonym_labels.index(pseudonym)]
            for identity, pseudonym in assignment.items()
        ]
        return DeanonymizationResult(
            assignment=assignment,
            accuracy=correct / len(identities),
            mean_matched_distance=float(np.mean(matched_distances)),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _solve_optimal(
        cost: np.ndarray,
        identities: Sequence[NodeId],
        pseudonyms: Sequence[NodeId],
    ) -> Dict[NodeId, NodeId]:
        from scipy.optimize import linear_sum_assignment

        rows, columns = linear_sum_assignment(cost)
        return {
            identities[int(row)]: pseudonyms[int(column)]
            for row, column in zip(rows, columns)
        }

    @staticmethod
    def _solve_greedy(
        cost: np.ndarray,
        identities: Sequence[NodeId],
        pseudonyms: Sequence[NodeId],
    ) -> Dict[NodeId, NodeId]:
        pairs = sorted(
            itertools.product(range(len(identities)), range(len(pseudonyms))),
            key=lambda pair: (cost[pair], pair),
        )
        taken_rows: set = set()
        taken_columns: set = set()
        assignment: Dict[NodeId, NodeId] = {}
        for row, column in pairs:
            if row in taken_rows or column in taken_columns:
                continue
            assignment[identities[row]] = pseudonyms[column]
            taken_rows.add(row)
            taken_columns.add(column)
            if len(assignment) == min(len(identities), len(pseudonyms)):
                break
        return assignment
