"""Automated signature-scheme selection (the paper's future-work challenge).

The paper's process is: decide which properties your application needs
(Table I), then "shop" for a scheme with those properties (Table III) and
validate experimentally.  Its conclusion calls automating this "a
significant challenge of practical importance".  This module closes the
loop: it *measures* each candidate scheme's persistence, uniqueness and
robustness on a sample of the actual data, scores the measurements against
the application's requirement weights, and returns a ranked shortlist.

The measurement protocol mirrors Section IV: persistence between two
consecutive windows, uniqueness over within-window pairs, robustness
against the paper's insert/delete perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.apps.requirements import APPLICATION_REQUIREMENTS, Requirement
from repro.core.distances import DistanceFunction
from repro.core.properties import persistence_values, uniqueness_values
from repro.core.scheme import SignatureScheme
from repro.exceptions import ExperimentError
from repro.graph.comm_graph import CommGraph
from repro.perturb.edge_perturbation import perturb_graph
from repro.types import NodeId

#: Score weight per requirement level: HIGH properties dominate the choice,
#: LOW ones barely matter (but still break ties).
REQUIREMENT_WEIGHTS: Dict[Requirement, float] = {
    Requirement.HIGH: 1.0,
    Requirement.MEDIUM: 0.5,
    Requirement.LOW: 0.1,
}


@dataclass(frozen=True)
class PropertyProfile:
    """Measured property values for one scheme on one dataset sample."""

    scheme_label: str
    persistence: float
    uniqueness: float
    robustness: float

    def value(self, property_name: str) -> float:
        if property_name == "persistence":
            return self.persistence
        if property_name == "uniqueness":
            return self.uniqueness
        if property_name == "robustness":
            return self.robustness
        raise ExperimentError(f"unknown property {property_name!r}")


@dataclass(frozen=True)
class SchemeRanking:
    """Output of :func:`select_scheme`: scored candidates, best first."""

    application: str
    profiles: Tuple[PropertyProfile, ...]
    scores: Dict[str, float]

    @property
    def best(self) -> str:
        """Label of the top-scoring scheme."""
        return max(self.scores, key=lambda label: self.scores[label])

    def ranked_labels(self) -> List[str]:
        return sorted(self.scores, key=lambda label: -self.scores[label])


def measure_scheme_properties(
    scheme: SignatureScheme,
    graph_now: CommGraph,
    graph_next: CommGraph,
    distance: DistanceFunction,
    population: Sequence[NodeId],
    scheme_label: str = "",
    perturbation_intensity: float = 0.1,
    max_uniqueness_pairs: int = 5000,
    seed: int = 0,
) -> PropertyProfile:
    """Measure one scheme's three properties on a dataset sample.

    Uses the Section IV protocol: persistence between the two windows,
    uniqueness over within-window pairs (sampled), and robustness via the
    direct measure against a perturbed copy of ``graph_now``.
    """
    if not population:
        raise ExperimentError("property measurement needs a non-empty population")
    signatures_now = scheme.compute_all(graph_now, population)
    signatures_next = scheme.compute_all(graph_next, population)
    perturbed = perturb_graph(
        graph_now,
        alpha=perturbation_intensity,
        beta=perturbation_intensity,
        rng=seed,
    )
    signatures_perturbed = scheme.compute_all(perturbed, population)

    persistence = float(
        np.mean(
            list(
                persistence_values(
                    signatures_now, signatures_next, distance, population
                ).values()
            )
        )
    )
    uniqueness = float(
        np.mean(
            uniqueness_values(
                signatures_now,
                distance,
                nodes=population,
                max_pairs=max_uniqueness_pairs,
                seed=seed,
            )
        )
    )
    robustness = persistence_values(signatures_now, signatures_perturbed, distance, population)
    return PropertyProfile(
        scheme_label=scheme_label or scheme.describe(),
        persistence=persistence,
        uniqueness=uniqueness,
        robustness=float(np.mean(list(robustness.values()))),
    )


def score_profile(
    profile: PropertyProfile,
    requirements: Mapping[str, Requirement],
) -> float:
    """Requirement-weighted sum of a profile's property values.

    All three properties are already on the common [0, 1] scale (they are
    all defined through the same Dist), so a weighted sum is meaningful;
    HIGH-requirement properties dominate.
    """
    return sum(
        REQUIREMENT_WEIGHTS[level] * profile.value(property_name)
        for property_name, level in requirements.items()
    )


def select_scheme(
    application: str,
    candidates: Mapping[str, SignatureScheme],
    graph_now: CommGraph,
    graph_next: CommGraph,
    distance: DistanceFunction,
    population: Sequence[NodeId],
    perturbation_intensity: float = 0.1,
    max_uniqueness_pairs: int = 5000,
    seed: int = 0,
) -> SchemeRanking:
    """Measure every candidate on the data and rank for ``application``.

    ``application`` must be one of the Table I applications; ``candidates``
    maps display labels to scheme instances (e.g. the line-up from
    :func:`repro.experiments.config.application_schemes`).
    """
    if application not in APPLICATION_REQUIREMENTS:
        raise ExperimentError(
            f"unknown application {application!r}; known: "
            f"{sorted(APPLICATION_REQUIREMENTS)}"
        )
    if not candidates:
        raise ExperimentError("need at least one candidate scheme")
    requirements = APPLICATION_REQUIREMENTS[application]

    profiles = []
    scores: Dict[str, float] = {}
    for label, scheme in candidates.items():
        profile = measure_scheme_properties(
            scheme,
            graph_now,
            graph_next,
            distance,
            population,
            scheme_label=label,
            perturbation_intensity=perturbation_intensity,
            max_uniqueness_pairs=max_uniqueness_pairs,
            seed=seed,
        )
        profiles.append(profile)
        scores[label] = score_profile(profile, requirements)
    return SchemeRanking(
        application=application, profiles=tuple(profiles), scores=scores
    )
