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

from typing import List

from repro.core.packed import SignaturePack
from repro.core.scheme import SignatureScheme, register_scheme
from repro.core.top_talkers import _row_shares
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId


@register_scheme
class InTalkers(SignatureScheme):
    """Rank one-hop in-neighbours by share of incoming communication volume."""

    name = "it"
    characteristics = ("locality", "engagement")
    target_properties = ("uniqueness", "robustness")

    def _compute_batch(self, graph: CommGraph, targets: List[NodeId]) -> SignaturePack:
        # TT's row kernel over the in-rows: the shares of the in-row total.
        return self._compute_rows(graph, targets, _row_shares, graph.in_rows())

