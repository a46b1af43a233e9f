"""Unexpected Talkers (UT) signature scheme — Definition 4 of the paper.

``w_ij = C[i, j] / |I(j)|``: one-hop out-neighbours ranked by communication
volume discounted by the destination's popularity (in-degree).  This
factors in neighbour "novelty": a search engine or directory-assistance
number that everyone contacts is a poor discriminator and gets pushed down
the ranking, improving uniqueness at some cost in robustness (popular,
stable destinations are discounted even though they persist).

Alternative scalings (TF-IDF style and a square-root discount) are
available via the ``scaling`` constructor argument; the paper reports
little sensitivity to this choice, which our ablation bench verifies.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.packed import SignaturePack
from repro.core.relevance import available_scalings, scale_columns
from repro.core.scheme import RowEntries, SignatureScheme, register_scheme
from repro.exceptions import SchemeError
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId


@register_scheme
class UnexpectedTalkers(SignatureScheme):
    """Rank one-hop out-neighbours by popularity-discounted volume."""

    name = "ut"
    characteristics = ("novelty", "locality")
    target_properties = ("uniqueness",)

    def __init__(self, k: int = 10, scaling: str = "inverse") -> None:
        super().__init__(k=k)
        if scaling not in available_scalings():
            raise SchemeError(
                f"unknown novelty scaling {scaling!r}; known: {', '.join(available_scalings())}"
            )
        self.scaling_name = scaling

    def _compute_batch(self, graph: CommGraph, targets: List[NodeId]) -> SignaturePack:
        in_degrees, num_nodes = np.diff(graph.in_rows().indptr), graph.num_nodes

        def scaled(entries: RowEntries):
            cols = entries.cols
            weights = scale_columns(self.scaling_name, entries.data, in_degrees[cols], num_nodes)
            weights[entries.own()] = 0.0
            return weights

        return self._compute_rows(graph, targets, scaled)

    def describe(self) -> str:
        return f"{self.name}(k={self.k}, scaling={self.scaling_name})"

