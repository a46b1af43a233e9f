"""Relevance scaling functions for neighbour-novelty weighting.

The Unexpected Talkers scheme downweights universally popular destinations
by a function of the destination's in-degree ``|I(j)|``.  The paper's
primary choice is ``C[i,j] / |I(j)|`` and it mentions the TF-IDF-style
alternative ``C[i,j] * log(|V| / |I(j)|)``, noting "we did not see much
variation in results for different scaling functions" — our ablation bench
(`benchmarks/test_ablations.py`) checks exactly that claim.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from repro.exceptions import SchemeError

#: A novelty scaling: (edge_weight, in_degree_of_dst, num_nodes) -> scaled weight.
ScalingFunction = Callable[[float, int, int], float]


def inverse_indegree(edge_weight: float, in_degree: int, num_nodes: int) -> float:
    """The paper's UT weighting: ``C[i,j] / |I(j)|`` (Definition 4)."""
    if in_degree <= 0:
        return 0.0
    return edge_weight / in_degree


def tfidf(edge_weight: float, in_degree: int, num_nodes: int) -> float:
    """TF-IDF analogue: ``C[i,j] * log(|V| / |I(j)|)``.

    Falls back to zero for degenerate inputs (empty graph, in-degree
    exceeding ``|V|`` cannot happen in simple graphs but is clamped
    defensively so the weight never goes negative).
    """
    if in_degree <= 0 or num_nodes <= 0:
        return 0.0
    ratio = num_nodes / in_degree
    if ratio <= 1.0:
        return 0.0
    return edge_weight * math.log(ratio)


def sqrt_indegree(edge_weight: float, in_degree: int, num_nodes: int) -> float:
    """Milder novelty discount: ``C[i,j] / sqrt(|I(j)|)``.

    Not in the paper; included as an intermediate point for the scaling
    ablation (between raw TT weights and the full inverse discount).
    """
    if in_degree <= 0:
        return 0.0
    return edge_weight / math.sqrt(in_degree)


_SCALINGS: Dict[str, ScalingFunction] = {
    "inverse": inverse_indegree,
    "tfidf": tfidf,
    "sqrt": sqrt_indegree,
}


def _tfidf_columns(weights: np.ndarray, in_degrees: np.ndarray, num_nodes: int) -> np.ndarray:
    # math.log once per distinct in-degree: np.log may round differently.
    distinct, index = np.unique(in_degrees, return_inverse=True)
    logs = [
        math.log(num_nodes / degree) if num_nodes / degree > 1.0 else 0.0
        for degree in distinct.tolist()
    ]
    factors = np.array(logs, dtype=np.float64)[index]
    return np.where(factors > 0, weights * factors, 0.0)


_COLUMN_SCALINGS = {
    "inverse": lambda weights, in_degrees, num_nodes: weights / in_degrees,
    "sqrt": lambda weights, in_degrees, num_nodes: weights / np.sqrt(in_degrees),
    "tfidf": _tfidf_columns,
}


def scale_columns(
    name: str, weights: np.ndarray, in_degrees: np.ndarray, num_nodes: int
) -> np.ndarray:
    """The scaling ``name`` of every ``(weight, in_degree)`` pair, bit for
    bit the scalar function's value; ``in_degrees`` are positive (each
    weighs an out-row entry, whose destination it counts)."""
    return _COLUMN_SCALINGS[name](weights, in_degrees.astype(np.float64), num_nodes)


def available_scalings() -> Tuple[str, ...]:
    """Names of the registered novelty scalings, sorted."""
    return tuple(sorted(_SCALINGS))


def get_scaling(name: str) -> ScalingFunction:
    """Look up a scaling function by name."""
    if name not in _SCALINGS:
        raise SchemeError(
            f"unknown novelty scaling {name!r}; known: {', '.join(sorted(_SCALINGS))}"
        )
    return _SCALINGS[name]
