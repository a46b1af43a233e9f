"""Local-push approximate RWR signatures (Section VI's open problem).

The paper notes that for Random Walk with Resets "there is less prior work
to draw on" for scalable computation, pointing to blockwise decompositions
(Sun et al.) and leaving the streaming/local setting open.  The standard
modern answer is the Andersen-Chung-Lang *push* algorithm: personalised
PageRank is computed by locally propagating residual mass from the seed,
touching only the neighbourhood that actually receives non-negligible
probability — no global matrix, no |V|-sized vectors, work bounded by
``O(1 / (c * epsilon))`` pushes per query independent of graph size.

Invariant maintained throughout (for teleport probability ``c``):

.. math::

    \\pi_s = p + \\sum_u r[u] \\, \\pi_u

where ``p`` is the current estimate and ``r`` the residual.  Each *push*
at ``u`` moves ``c * r[u]`` into ``p[u]`` and spreads ``(1 - c) * r[u]``
over ``u``'s out-neighbours proportionally to edge weight; nodes are
pushed while ``r[u] > epsilon * volume(u)``.  Dangling residual returns to
the seed, matching the exact scheme's walk-home semantics.

The result is a *sparse* approximation of the exact
:class:`~repro.core.rwr.RandomWalkWithResets` stationary vector — ideal
for top-k signatures, where only the heavy entries matter.  Registered as
scheme ``"rwr-push"``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.core.packed import SignaturePack
from repro.core.scheme import SignatureScheme, register_scheme
from repro.core.signature import Signature
from repro.exceptions import SchemeError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId

#: A node's walk neighbourhood: neighbour positions, their weights (in
#: the same order) and the weights' ``math.fsum`` volume.
_Neighbourhood = Tuple[List[int], List[float], float]


@register_scheme
class PushRandomWalk(SignatureScheme):
    """Approximate personalised-PageRank relevance via local push."""

    name = "rwr-push"
    characteristics = ("transitivity", "engagement")
    target_properties = ("persistence", "robustness")

    def __init__(
        self,
        k: int = 10,
        reset_probability: float = 0.1,
        epsilon: float = 1e-5,
        max_pushes: int = 500_000,
        symmetrize: str | bool = "auto",
    ) -> None:
        """``epsilon`` is the per-unit-volume residual threshold: smaller
        values push further out for a more accurate (and more expensive)
        approximation.  ``max_pushes`` is a hard safety cap."""
        super().__init__(k=k)
        if not 0 < reset_probability <= 1:
            raise SchemeError(
                f"reset probability c must be in (0, 1], got {reset_probability}"
            )
        if epsilon <= 0:
            raise SchemeError(f"epsilon must be positive, got {epsilon}")
        if max_pushes < 1:
            raise SchemeError(f"max_pushes must be >= 1, got {max_pushes}")
        if symmetrize not in ("auto", True, False):
            raise SchemeError(
                f"symmetrize must be 'auto', True or False, got {symmetrize!r}"
            )
        self.reset_probability = reset_probability
        self.epsilon = epsilon
        self.max_pushes = max_pushes
        self.symmetrize = symmetrize

    def describe(self) -> str:
        return (
            f"{self.name}(k={self.k}, c={self.reset_probability}, "
            f"eps={self.epsilon:g})"
        )

    # ------------------------------------------------------------------
    def _should_symmetrize(self, graph: CommGraph) -> bool:
        if self.symmetrize == "auto":
            return isinstance(graph, BipartiteGraph)
        return bool(self.symmetrize)

    def _neighbourhood(self, graph: CommGraph, position: int) -> _Neighbourhood:
        """The walk's weighted neighbours of the node at ``position``: its
        out-row in row order, then (symmetrised) the in-row's sources not
        already listed, a source in both rows weighing ``out + in``."""
        out = graph.out_rows()
        lo, hi = out.indptr[position], out.indptr[position + 1]
        combined = dict(zip(out.cols[lo:hi].tolist(), out.data[lo:hi].tolist()))
        if self._should_symmetrize(graph):
            rows = graph.in_rows()
            lo, hi = rows.indptr[position], rows.indptr[position + 1]
            for src, weight in zip(rows.cols[lo:hi].tolist(), rows.data[lo:hi].tolist()):
                combined[src] = combined.get(src, 0.0) + weight
        return list(combined), list(combined.values()), math.fsum(combined.values())

    def _push(
        self, graph: CommGraph, start: int, neighbourhoods: Dict[int, _Neighbourhood]
    ) -> Dict[int, float]:
        """Sparse approximate PPR vector from the node at position
        ``start`` via residual pushes: each node's positive estimate, keyed
        by position in first-push order.  ``neighbourhoods`` caches each
        visited node's :meth:`_neighbourhood` across calls on one graph."""
        c = self.reset_probability
        estimate: Dict[int, float] = {}
        residual: Dict[int, float] = {start: 1.0}
        # Queue of nodes that may violate the threshold (lazily validated).
        queue = deque([start])
        queued = {start}
        pushes = 0

        while queue and pushes < self.max_pushes:
            current = queue.popleft()
            queued.discard(current)
            mass = residual.get(current, 0.0)
            if current not in neighbourhoods:
                neighbourhoods[current] = self._neighbourhood(graph, current)
            neighbours, weights, volume = neighbourhoods[current]
            threshold = self.epsilon * max(volume, 1.0)
            if mass <= threshold:
                continue
            pushes += 1
            residual[current] = 0.0
            estimate[current] = estimate.get(current, 0.0) + c * mass
            spread = (1.0 - c) * mass
            if volume > 0:
                for neighbour, weight in zip(neighbours, weights):
                    residual[neighbour] = residual.get(neighbour, 0.0) + (
                        spread * weight / volume
                    )
                    if neighbour not in queued:
                        queue.append(neighbour)
                        queued.add(neighbour)
            else:
                # Dangling: the walk returns home, as in the exact scheme.
                residual[start] = residual.get(start, 0.0) + spread
                if start not in queued:
                    queue.append(start)
                    queued.add(start)
        return {candidate: value for candidate, value in estimate.items() if value > 0}

    def _compute_batch(self, graph: CommGraph, targets: List[NodeId]) -> SignaturePack:
        """One push per owner, each ranked by
        :meth:`~repro.core.signature.Signature.from_relevance`; a ``V1``
        owner of a bipartite graph keeps only ``V2`` candidates, as
        :class:`~repro.core.rwr.RandomWalkWithResets` does."""
        sides = graph.to_arrays().sides if isinstance(graph, BipartiteGraph) else None
        neighbourhoods: Dict[int, _Neighbourhood] = {}
        signatures = {}
        for node, start in zip(targets, graph.row_positions(targets).tolist()):
            estimate = self._push(graph, start, neighbourhoods) if start >= 0 else {}
            if sides is not None and start >= 0 and sides[0][start]:
                estimate = {member: value for member, value in estimate.items() if sides[1][member]}
            members = graph.node_labels(np.fromiter(estimate, dtype=np.int64, count=len(estimate)))
            relevance = dict(zip(members, estimate.values()))
            signatures[node] = Signature.from_relevance(node, relevance, self.k)
        return SignaturePack.from_signatures(signatures)

    def touched_size(self, graph: CommGraph, node: NodeId) -> int:
        """Number of nodes with non-zero estimate for a query (work proxy)."""
        start = int(graph.row_positions([node])[0])
        return len(self._push(graph, start, {})) if start >= 0 else 0
