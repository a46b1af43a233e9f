"""Top Talkers (TT) signature scheme — Definition 3 of the paper.

``w_ij = C[i, j] / sum_v C[i, v]``: the signature of ``i`` is its ``k``
heaviest out-neighbours, with weights normalised to out-going volume
fractions.  TT uses only engagement and locality, and is implicit in the
Communities-of-Interest fraud-detection work of Cortes et al.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

import numpy as np

from repro.core.scheme import RowEntries, SignatureScheme, register_scheme
from repro.core.signature import Signature
from repro.graph.comm_graph import CommGraph
from repro.graph.delta import WindowDelta
from repro.types import NodeId, Weight


@register_scheme
class TopTalkers(SignatureScheme):
    """Rank one-hop out-neighbours by share of outgoing communication volume."""

    name = "tt"
    characteristics = ("locality", "engagement")
    target_properties = ("uniqueness", "robustness")

    def relevance(self, graph: CommGraph, node: NodeId) -> Mapping[NodeId, Weight]:
        if node not in graph:
            return {}
        neighbours = graph.out_neighbors(node)
        total = sum(neighbours.values())
        if total == 0:
            return {}
        # Self-loops are excluded downstream (Definition 1, u != v) but we
        # keep them out of the denominator too: the paper's sum runs over
        # edges (i, v), which includes a self-loop if present; communication
        # graphs essentially never contain them, and excluding them keeps
        # weights interpretable as "fraction of talk directed at u".
        denominator = total - neighbours.get(node, 0.0)
        if denominator <= 0:
            return {}
        return {
            dst: weight / denominator
            for dst, weight in neighbours.items()
            if dst != node
        }

    def _compute_batch(
        self, graph: CommGraph, targets: List[NodeId]
    ) -> Dict[NodeId, Signature]:
        return self._compute_rows(graph, targets, _row_shares)

    def dirty_nodes(
        self, graph: CommGraph, delta: WindowDelta
    ) -> Optional[Set[NodeId]]:
        """TT reads only the owner's out-neighbour view: exactly the
        sources of changed edges (plus churned nodes) are affected."""
        return delta.sources() | delta.churned_nodes()


def _row_shares(entries: RowEntries) -> np.ndarray:
    """:meth:`TopTalkers.relevance` of every entry (and, over in-rows,
    :meth:`~repro.core.in_talkers.InTalkers.relevance`), bit for bit: row totals
    are the builtin ``sum`` over the row in order, as ``relevance`` sums
    (compensated since Python 3.12, so no numpy reduction matches it on
    every Python), then one vectorised division."""
    data = entries.data
    values = data.tolist()
    ends = np.cumsum(entries.lengths).tolist()
    totals = np.array(
        [sum(values[lo:hi]) for lo, hi in zip([0] + ends, ends)], dtype=np.float64
    )
    own = entries.own()
    denominators = totals.copy()
    denominators[entries.owner[own]] -= data[own]
    valid = (totals != 0) & (denominators > 0)
    use = valid[entries.owner] & ~own
    shares = np.zeros(len(data))
    shares[use] = data[use] / denominators[entries.owner[use]]
    return shares
