"""In-Talkers (IT): signatures from *incoming* communication.

The paper's one-hop schemes profile a node by whom it talks *to*; for
servers, sinks and bipartite right-partition nodes (database tables,
popular sites) the informative direction is reversed — who talks *to*
them, and how much.  IT mirrors Top Talkers on the in-neighbourhood:

.. math::

    w_{ij} = C[j, i] \\;/\\; \\textstyle\\sum_v C[v, i]

i.e. the signature of ``i`` is its ``k`` heaviest *sources*, weighted by
share of incoming volume.  Within the paper's framework it exploits
engagement and locality, exactly like TT, just on the transposed graph —
so its property profile matches TT's (Table III row for TT applies).

Not part of the paper's evaluated line-up; provided because real
deployments need to fingerprint destination-side nodes too (e.g. "has
this database table's user community changed?").
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from repro.core.scheme import SignatureScheme, register_scheme
from repro.core.signature import Signature
from repro.core.top_talkers import _row_shares
from repro.graph.comm_graph import CommGraph
from repro.graph.delta import WindowDelta
from repro.types import NodeId, Weight


@register_scheme
class InTalkers(SignatureScheme):
    """Rank one-hop in-neighbours by share of incoming communication volume."""

    name = "it"
    characteristics = ("locality", "engagement")
    target_properties = ("uniqueness", "robustness")

    def relevance(self, graph: CommGraph, node: NodeId) -> Mapping[NodeId, Weight]:
        if node not in graph:
            return {}
        neighbours = graph.in_neighbors(node)
        total = sum(neighbours.values())
        if total == 0:
            return {}
        denominator = total - neighbours.get(node, 0.0)
        if denominator <= 0:
            return {}
        return {
            src: weight / denominator
            for src, weight in neighbours.items()
            if src != node
        }

    def _compute_batch(
        self, graph: CommGraph, targets: List[NodeId]
    ) -> Dict[NodeId, Signature]:
        # TT's row kernel over the in-rows: the shares of the in-row
        # total, summed in in-row order as ``relevance`` sums.
        return self._compute_rows(graph, targets, _row_shares, graph.in_rows())

    def dirty_nodes(
        self, graph: CommGraph, delta: WindowDelta
    ) -> Optional[Set[NodeId]]:
        """IT mirrors TT on the transposed graph: only destinations of
        changed edges (plus churned nodes) see a different in-view."""
        return delta.destinations() | delta.churned_nodes()
