"""Framework tables: Tables I-III (static) and Table IV (derived).

Tables I-III encode the paper's framework and are reproduced from the
library's metadata; Table IV ("relative behavior of the signature
schemes") is *derived* from measurements — the paper distils it from the
Figure 1/4 experiments, so we regenerate it by ranking TT, UT and RWR on
measured persistence, uniqueness and robustness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.distances import get_distance
from repro.core.properties import persistence_values, uniqueness_values
from repro.experiments.config import (
    NETWORK_K,
    ExperimentConfig,
    application_schemes,
    get_enterprise_dataset,
)
from repro.experiments.report import format_table
from repro.perturb.edge_perturbation import perturb_graph

#: Rank labels in the paper's Table IV vocabulary, best first.
RANK_LABELS = ("high", "medium", "low")


@dataclass(frozen=True)
class Table4Result:
    """Measured property means and the derived high/medium/low grid."""

    scheme_labels: tuple
    measured: Dict[str, Dict[str, float]]  # property -> scheme -> value
    grid: Dict[str, Dict[str, str]]  # property -> scheme -> rank label


def derive_table4(
    distance_name: str = "shel",
    config: ExperimentConfig | None = None,
    perturbation_intensity: float = 0.1,
    seed: int = 2024,
) -> Table4Result:
    """Measure persistence/uniqueness/robustness and rank the three schemes."""
    config = config or ExperimentConfig()
    data = get_enterprise_dataset(config.scale)
    graph_now, graph_next = data.graphs[0], data.graphs[1]
    population = data.local_hosts
    distance = get_distance(distance_name)
    schemes = application_schemes(NETWORK_K, config.reset_probability)
    perturbed = perturb_graph(
        graph_now, alpha=perturbation_intensity, beta=perturbation_intensity, rng=seed
    )

    measured: Dict[str, Dict[str, float]] = {
        "persistence": {},
        "uniqueness": {},
        "robustness": {},
    }
    for label, scheme in schemes.items():
        signatures_now = scheme.compute_all(graph_now, population)
        signatures_next = scheme.compute_all(graph_next, population)
        perturbed_signatures = scheme.compute_all(perturbed, population)

        measured["persistence"][label] = float(
            np.mean(
                list(
                    persistence_values(
                        signatures_now, signatures_next, distance, population
                    ).values()
                )
            )
        )
        measured["uniqueness"][label] = float(
            np.mean(
                uniqueness_values(
                    signatures_now, distance, nodes=population, max_pairs=20000
                )
            )
        )
        # Robustness via the direct Section II-C measure: the identity AUC
        # saturates at 1.0 for highly unique signatures (a node still
        # matches itself best after losing half its signature), so the
        # ranking must come from 1 - Dist(sig, sig_hat) itself.
        robustness = persistence_values(
            signatures_now, perturbed_signatures, distance, population
        )
        measured["robustness"][label] = float(np.mean(list(robustness.values())))

    grid: Dict[str, Dict[str, str]] = {}
    for property_name, per_scheme in measured.items():
        ranked = sorted(per_scheme, key=lambda label: -per_scheme[label])
        grid[property_name] = {
            label: RANK_LABELS[rank] for rank, label in enumerate(ranked)
        }
    return Table4Result(
        scheme_labels=tuple(schemes), measured=measured, grid=grid
    )


def format_table4(result: Table4Result) -> str:
    """Render the derived Table IV with the measured values alongside."""
    rows: List[list] = []
    for property_name in ("persistence", "uniqueness", "robustness"):
        rows.append(
            [property_name]
            + [
                f"{result.grid[property_name][label]} ({result.measured[property_name][label]:.3f})"
                for label in result.scheme_labels
            ]
        )
    return format_table(
        ["property"] + list(result.scheme_labels),
        rows,
        title="Table IV (derived): relative behavior of the signature schemes",
    )


#: The paper's published Table IV, for shape comparison in benches.
PAPER_TABLE4: Dict[str, Dict[str, str]] = {
    "persistence": {"TT": "medium", "UT": "low", "RWR": "high"},
    "uniqueness": {"TT": "medium", "UT": "high", "RWR": "low"},
    "robustness": {"TT": "high", "UT": "low", "RWR": "medium"},
}


def table4_agreement(result: Table4Result) -> Tuple[int, int]:
    """How many of the 9 derived cells match the paper's Table IV."""
    matches = 0
    total = 0
    for property_name, per_scheme in PAPER_TABLE4.items():
        for label, expected in per_scheme.items():
            total += 1
            if result.grid[property_name].get(label) == expected:
                matches += 1
    return matches, total
