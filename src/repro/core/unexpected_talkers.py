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

from typing import Dict, List, Mapping, Optional, Set

import numpy as np

from repro.core.relevance import get_scaling, scale_columns
from repro.core.scheme import RowEntries, SignatureScheme, register_scheme
from repro.core.signature import Signature
from repro.graph.comm_graph import CommGraph
from repro.graph.delta import WindowDelta
from repro.types import NodeId, Weight

#: Scalings whose value ignores ``num_nodes`` — for these, node churn alone
#: cannot dirty an owner; ``tfidf`` reads ``|V|`` and is excluded.
_SIZE_INDEPENDENT_SCALINGS = frozenset({"inverse", "sqrt"})


@register_scheme
class UnexpectedTalkers(SignatureScheme):
    """Rank one-hop out-neighbours by popularity-discounted volume."""

    name = "ut"
    characteristics = ("novelty", "locality")
    target_properties = ("uniqueness",)

    def __init__(self, k: int = 10, scaling: str = "inverse") -> None:
        super().__init__(k=k)
        self.scaling_name = scaling
        self._scaling = get_scaling(scaling)

    def relevance(self, graph: CommGraph, node: NodeId) -> Mapping[NodeId, Weight]:
        if node not in graph:
            return {}
        num_nodes = graph.num_nodes
        vector = {}
        for dst, weight in graph.out_neighbors(node).items():
            if dst == node:
                continue
            scaled = self._scaling(weight, graph.in_degree(dst), num_nodes)
            if scaled > 0:
                vector[dst] = scaled
        return vector

    def _compute_batch(
        self, graph: CommGraph, targets: List[NodeId]
    ) -> Dict[NodeId, Signature]:
        in_degrees, num_nodes = np.diff(graph.in_rows().indptr), graph.num_nodes

        def scaled(entries: RowEntries):
            cols = entries.cols
            weights = scale_columns(self.scaling_name, entries.data, in_degrees[cols], num_nodes)
            weights[entries.own()] = 0.0
            return weights

        return self._compute_rows(graph, targets, scaled)

    def describe(self) -> str:
        return f"{self.name}(k={self.k}, scaling={self.scaling_name})"

    def dirty_nodes(
        self, graph: CommGraph, delta: WindowDelta
    ) -> Optional[Set[NodeId]]:
        """UT owners are dirtied by their own out-view changes *and* by
        in-degree changes of their destinations.

        A structural change (edge added/removed) alters ``|I(dst)|``, so
        every current in-neighbour of that destination is dirty; old
        in-neighbours that dropped the edge are already sources of a
        change.  Pure reweights leave in-degrees alone.  When the scaling
        reads ``|V|`` (tfidf) and the node set changed, every owner may
        shift — no useful bound.
        """
        if delta.has_node_churn and self.scaling_name not in _SIZE_INDEPENDENT_SCALINGS:
            return None
        dirty = delta.sources() | delta.churned_nodes()
        rows = graph.in_rows()
        destinations = {change.dst for change in delta.structural_changes()}
        entries = RowEntries(rows, graph.row_positions(destinations))
        dirty.update(graph.row_labels(rows, entries.index))
        return dirty
