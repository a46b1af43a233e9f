"""Auxiliary noise models.

These are not part of the paper's evaluation protocol; they provide extra
failure-injection knobs used by the property-based test suite (e.g. "does
robustness degrade monotonically in noise intensity?") and by users who
want to stress signatures beyond the paper's insert/delete model.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PerturbationError
from repro.graph.comm_graph import CommGraph, edges_in_build_order, rebuilt
from repro.perturb.edge_perturbation import resolve_rng


def jitter_weights(
    graph: CommGraph,
    relative_std: float = 0.1,
    rng: np.random.Generator | int | None = None,
) -> CommGraph:
    """Multiply every edge weight by an independent lognormal factor.

    ``relative_std`` controls the dispersion of the multiplicative noise
    (``0`` keeps every weight).  Weights stay strictly positive so no
    edges are created or destroyed — this perturbs *volumes* only, isolating
    the weighted distances' sensitivity from membership churn.
    """
    if relative_std < 0:
        raise PerturbationError(f"relative_std must be non-negative, got {relative_std}")
    rng = resolve_rng(rng)
    jittered = {}
    for src, dst, weight in graph.edges():
        factor = float(rng.lognormal(mean=0.0, sigma=relative_std)) if relative_std else 1.0
        jittered[src, dst] = weight * factor
    return rebuilt(graph, jittered)


def drop_random_nodes(
    graph: CommGraph,
    fraction: float,
    rng: np.random.Generator | int | None = None,
) -> CommGraph:
    """Remove a random ``fraction`` of nodes (and incident edges).

    Models monitoring outages where some hosts disappear from a window
    entirely — a harsher perturbation than the paper's edge model.
    """
    if not 0 <= fraction <= 1:
        raise PerturbationError(f"fraction must be in [0, 1], got {fraction}")
    rng = resolve_rng(rng)
    nodes = graph.nodes()
    count = round(fraction * len(nodes))
    chosen = rng.choice(len(nodes), size=count, replace=False) if count else []
    victims = {nodes[int(index)] for index in chosen}
    edges = edges_in_build_order(graph).items()
    kept = {edge: weight for edge, weight in edges if victims.isdisjoint(edge)}
    return rebuilt(graph, kept, [node for node in nodes if node not in victims])
