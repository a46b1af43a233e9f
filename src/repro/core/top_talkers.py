"""Top Talkers (TT) signature scheme — Definition 3 of the paper.

``w_ij = C[i, j] / sum_v C[i, v]``: the signature of ``i`` is its ``k``
heaviest out-neighbours, with weights normalised to out-going volume
fractions.  TT uses only engagement and locality, and is implicit in the
Communities-of-Interest fraud-detection work of Cortes et al.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.core.packed import SignaturePack
from repro.core.scheme import RowEntries, SignatureScheme, register_scheme
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId


@register_scheme
class TopTalkers(SignatureScheme):
    """Rank one-hop out-neighbours by share of outgoing communication volume."""

    name = "tt"
    characteristics = ("locality", "engagement")
    target_properties = ("uniqueness", "robustness")

    def _compute_batch(self, graph: CommGraph, targets: List[NodeId]) -> SignaturePack:
        return self._compute_rows(graph, targets, _row_shares)


def _row_shares(entries: RowEntries) -> np.ndarray:
    """TT's relevance of every entry (over in-rows, IT's): the entry's
    share of its row's total to other nodes, zero for the owner's
    self-loop.  Row totals are ``math.fsum`` of the row without its
    self-loop (correctly rounded, so the same on every Python), then one
    vectorised division.

    The self-loop stays out of the denominator too: the paper's sum runs
    over edges ``(i, v)``, which includes a self-loop if present, but
    communication graphs essentially never hold one, and leaving it out
    keeps a weight the "fraction of talk directed at u"."""
    data = entries.data
    own = entries.own()
    values = np.where(own, 0.0, data).tolist()
    ends = np.cumsum(entries.lengths).tolist()
    totals = np.array(
        [math.fsum(values[lo:hi]) for lo, hi in zip([0] + ends, ends)], dtype=np.float64
    )
    use = (totals > 0)[entries.owner] & ~own
    shares = np.zeros(len(data))
    shares[use] = data[use] / totals[entries.owner[use]]
    return shares
