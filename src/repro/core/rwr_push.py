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

from collections import deque
from typing import Dict, Mapping

from repro.core.scheme import SignatureScheme, register_scheme
from repro.exceptions import SchemeError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId, Weight


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

    def _neighbours(self, graph: CommGraph, node: NodeId) -> Dict[NodeId, float]:
        """The walk's weighted neighbour view of ``node`` (symmetrised or not)."""
        if self._should_symmetrize(graph):
            combined: Dict[NodeId, float] = dict(graph.out_neighbors(node))
            for src, weight in graph.in_neighbors(node).items():
                combined[src] = combined.get(src, 0.0) + weight
            return combined
        return dict(graph.out_neighbors(node))

    def relevance(self, graph: CommGraph, node: NodeId) -> Mapping[NodeId, Weight]:
        """Sparse approximate PPR vector from ``node`` via residual pushes."""
        if node not in graph or graph.num_nodes == 0:
            return {}
        c = self.reset_probability
        estimate: Dict[NodeId, float] = {}
        residual: Dict[NodeId, float] = {node: 1.0}
        # Queue of nodes that may violate the threshold (lazily validated).
        queue = deque([node])
        queued = {node}
        pushes = 0
        neighbour_cache: Dict[NodeId, Dict[NodeId, float]] = {}
        volume_cache: Dict[NodeId, float] = {}

        while queue and pushes < self.max_pushes:
            current = queue.popleft()
            queued.discard(current)
            mass = residual.get(current, 0.0)
            if current not in neighbour_cache:
                neighbour_cache[current] = self._neighbours(graph, current)
                volume_cache[current] = sum(neighbour_cache[current].values())
            volume = volume_cache[current]
            threshold = self.epsilon * max(volume, 1.0)
            if mass <= threshold:
                continue
            pushes += 1
            residual[current] = 0.0
            estimate[current] = estimate.get(current, 0.0) + c * mass
            spread = (1.0 - c) * mass
            if volume > 0:
                neighbours = neighbour_cache[current]
                for neighbour, weight in neighbours.items():
                    residual[neighbour] = residual.get(neighbour, 0.0) + (
                        spread * weight / volume
                    )
                    if neighbour not in queued:
                        queue.append(neighbour)
                        queued.add(neighbour)
            else:
                # Dangling: the walk returns home, as in the exact scheme.
                residual[node] = residual.get(node, 0.0) + spread
                if node not in queued:
                    queue.append(node)
                    queued.add(node)
        return {
            candidate: value for candidate, value in estimate.items() if value > 0
        }

    def touched_size(self, graph: CommGraph, node: NodeId) -> int:
        """Number of nodes with non-zero estimate for a query (work proxy)."""
        return len(self.relevance(graph, node))

