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
from typing import Tuple

import numpy as np


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
    """The novelty scaling ``name`` of every ``(C[i, j], |I(j)|)`` pair,
    ``in_degrees`` positive (each weighs an out-row entry, whose
    destination it counts):

    - ``"inverse"``: ``C[i, j] / |I(j)|``, the paper's UT weighting
      (Definition 4);
    - ``"sqrt"``: ``C[i, j] / sqrt(|I(j)|)``, a milder discount, not in
      the paper (an intermediate point for the scaling ablation);
    - ``"tfidf"``: ``C[i, j] * log(|V| / |I(j)|)``, zero where
      ``|I(j)| >= |V|`` so a weight never goes negative.
    """
    return _COLUMN_SCALINGS[name](weights, in_degrees.astype(np.float64), num_nodes)


def available_scalings() -> Tuple[str, ...]:
    """Names of the registered novelty scalings, sorted."""
    return tuple(sorted(_COLUMN_SCALINGS))
