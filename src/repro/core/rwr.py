"""Random Walk with Resets (RWR) signatures — Definition 5 of the paper.

``w_ij`` is the steady-state probability that a random walk started at
``i`` — following edges with probability proportional to edge weight, and
resetting to ``i`` with probability ``c`` at each step — occupies node
``j``.  This is personalised PageRank with the preference vector
concentrated on ``i``, computed by the paper's iterative scheme

.. math::

    \\vec r_i^{\\,t} = (1 - c)\\, P^{\\!\\top} \\vec r_i^{\\,t-1} + c\\, \\vec s_i ,
    \\qquad \\vec r_i^{\\,0} = \\vec s_i ,

where ``P`` is the row-stochastic transition matrix.  The hop-limited
variant ``RWR_c^h`` simply stops after ``h`` iterations, restricting the
walk to nodes at most ``h`` hops from ``i``; with ``c = 0`` and ``h = 1``
it coincides exactly with Top Talkers, and for ``h`` beyond the graph
diameter it converges to the unbounded walk (both facts are covered by
tests).

Two practical details the paper leaves implicit:

* **Dangling nodes** (no outgoing edges) would leak probability mass; we
  return that mass to the start node, which keeps each iterate a proper
  distribution and matches the "walk restarts at i" semantics.
* **Bipartite graphs**: in flow data only V1 -> V2 edges exist, so a
  directed walk dies after one hop.  Multi-hop relevance ("customers who
  rent the same movies") requires traversing edges backwards, as in the
  bipartite relevance-search work the paper cites (Sun et al.).  With
  ``symmetrize="auto"`` (the default) the walk runs on the symmetrised
  weighted graph when the input is a :class:`BipartiteGraph`, and the
  final signature is restricted to V2 per Section II-B.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np
import scipy.sparse as sp

from repro.core.scheme import SignatureScheme, register_scheme
from repro.core.signature import Signature
from repro.exceptions import SchemeError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId, Weight

#: Extra candidates retained around the top-k cut to keep tie-breaking exact.
_TOPK_SLACK = 32

#: Bytes of one dense ``nodes x owners`` float64 array of a walk block.
#: A block holds a few such arrays at once (occupancy, the step and its
#: change, the converged walks), so this bounds a batch's walk memory
#: whatever its owner count.
_BLOCK_BYTES = 2 * 2**20


def _column_sums(array: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered array, each added in row order.

    numpy sums a wide array's columns row by row but a single column
    pairwise; the running sum adds one column in row order too, so a
    column's sum does not depend on how many columns share the array.
    """
    if array.shape[1] == 1:
        return np.cumsum(array[:, 0])[-1:]
    return array.sum(axis=0)


@register_scheme
class RandomWalkWithResets(SignatureScheme):
    """Personalised-PageRank relevance, optionally hop-limited (``RWR_c^h``)."""

    name = "rwr"
    characteristics = ("transitivity", "engagement")
    target_properties = ("persistence", "robustness")

    def __init__(
        self,
        k: int = 10,
        reset_probability: float = 0.1,
        max_hops: int | None = None,
        tolerance: float = 1e-9,
        max_iterations: int = 1000,
        symmetrize: str | bool = "auto",
    ) -> None:
        super().__init__(k=k)
        if not 0 <= reset_probability <= 1:
            raise SchemeError(
                f"reset probability c must be in [0, 1], got {reset_probability}"
            )
        if max_hops is not None and max_hops < 1:
            raise SchemeError(f"max_hops must be >= 1 or None, got {max_hops}")
        if tolerance <= 0:
            raise SchemeError(f"tolerance must be positive, got {tolerance}")
        if max_iterations < 1:
            raise SchemeError(f"max_iterations must be >= 1, got {max_iterations}")
        if symmetrize not in ("auto", True, False):
            raise SchemeError(f"symmetrize must be 'auto', True or False, got {symmetrize!r}")
        self.reset_probability = reset_probability
        self.max_hops = max_hops
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.symmetrize = symmetrize

    # ------------------------------------------------------------------
    # Hop-limited variant metadata (Table III distinguishes RWR / RWR^h)
    # ------------------------------------------------------------------
    @property
    def is_hop_limited(self) -> bool:
        """True for ``RWR_c^h`` with finite ``h``."""
        return self.max_hops is not None

    @property
    def effective_characteristics(self) -> tuple:
        """Table III: RWR exploits transitivity+engagement; RWR^h adds locality."""
        if self.is_hop_limited:
            return ("locality", "transitivity")
        return self.characteristics

    @property
    def effective_target_properties(self) -> tuple:
        """Table III: RWR^h targets all three properties; full RWR drops uniqueness."""
        if self.is_hop_limited:
            return ("persistence", "uniqueness", "robustness")
        return self.target_properties

    def describe(self) -> str:
        hops = self.max_hops if self.max_hops is not None else "inf"
        return f"{self.name}(k={self.k}, c={self.reset_probability}, h={hops})"

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def _should_symmetrize(self, graph: CommGraph) -> bool:
        if self.symmetrize == "auto":
            return isinstance(graph, BipartiteGraph)
        return bool(self.symmetrize)

    def _walk_matrix(self, graph: CommGraph, position: Mapping[NodeId, int]) -> sp.csr_matrix:
        """``P^T`` (column = source) for the walk, after optional symmetrisation.

        Cached on the graph's versioned cache for the default node
        ordering, so repeated signature computation on an unmutated graph
        (e.g. both transitions touching ``G_t`` in the monitor) reuses the
        sparse build.
        """
        symmetrize = self._should_symmetrize(graph)
        if graph._is_default_position(position):
            key = f"rwr.walk_t[sym={symmetrize}]"
            return graph.versioned_cache(
                key, lambda: self._build_walk_matrix(graph, position, symmetrize)
            )
        return self._build_walk_matrix(graph, position, symmetrize)

    @staticmethod
    def _build_walk_matrix(
        graph: CommGraph, position: Mapping[NodeId, int], symmetrize: bool
    ) -> sp.csr_matrix:
        if symmetrize:
            adjacency = graph.to_adjacency_csr(position)
            adjacency = (adjacency + adjacency.T).tocsr()
            row_sums = np.asarray(adjacency.sum(axis=1)).ravel()
            inverse = np.zeros_like(row_sums)
            nonzero = row_sums > 0
            inverse[nonzero] = 1.0 / row_sums[nonzero]
            transition = (sp.diags(inverse) @ adjacency).tocsr()
        else:
            transition = graph.to_transition_csr(position)
        return transition.T.tocsr()

    def _iterate(
        self,
        transition_t: sp.csr_matrix,
        dangling: np.ndarray,
        start_rows: np.ndarray,
        num_nodes: int,
    ) -> np.ndarray:
        """Run the power iteration for a block of start nodes.

        ``start_rows[q]`` is the matrix row of query ``q``'s start node.
        Returns the dense ``num_nodes x num_queries`` occupancy matrix.
        Every column is the walk of its start node alone: the unbounded
        walk stops a column at the first iteration whose own L1 change
        falls below ``tolerance`` (or at ``max_iterations``), converged
        columns leave the active set, and every per-column sum adds in
        row order at any block width.
        """
        num_queries = start_rows.size
        occupancy = np.zeros((num_nodes, num_queries))
        occupancy[start_rows, np.arange(num_queries)] = 1.0
        if self.max_hops is not None:
            for _ in range(self.max_hops):
                occupancy = self._step(transition_t, dangling, occupancy, start_rows)
            return occupancy
        walks = np.empty_like(occupancy)
        active = np.arange(num_queries)
        for _ in range(self.max_iterations):
            updated = self._step(transition_t, dangling, occupancy, start_rows[active])
            done = _column_sums(np.abs(updated - occupancy)) < self.tolerance
            if done.any():
                walks[:, active[done]] = updated[:, done]
                # compress keeps the survivors C-ordered, so their column
                # sums stay row by row.
                updated = updated.compress(~done, axis=1)
                active = active[~done]
                if not active.size:
                    return walks
            occupancy = updated
        walks[:, active] = occupancy
        return walks

    def _step(
        self,
        transition_t: sp.csr_matrix,
        dangling: np.ndarray,
        occupancy: np.ndarray,
        start_rows: np.ndarray,
    ) -> np.ndarray:
        """One step ``(1 - c) P^T r + c s`` of every column of ``occupancy``."""
        stepped = transition_t @ occupancy
        columns = np.arange(start_rows.size)
        if dangling.any():
            # Mass sitting on dangling nodes walks "home" to the start.
            stepped[start_rows, columns] += _column_sums(occupancy[dangling])
        stepped *= 1.0 - self.reset_probability
        stepped[start_rows, columns] += self.reset_probability
        return stepped

    def relevance(self, graph: CommGraph, node: NodeId) -> Mapping[NodeId, Weight]:
        if node not in graph or graph.num_nodes == 0:
            return {}
        ordering, position = graph.node_index()
        transition_t = self._walk_matrix(graph, position)
        dangling = np.asarray(transition_t.sum(axis=0)).ravel() == 0
        occupancy = self._iterate(
            transition_t, dangling, np.asarray([position[node]]), len(ordering)
        )
        column = occupancy[:, 0]
        return {
            ordering[index]: float(column[index])
            for index in np.flatnonzero(column > 0)
        }

    def _compute_batch(
        self, graph: CommGraph, targets: List[NodeId]
    ) -> Dict[NodeId, Signature]:
        """Batched computation: one shared ``P^T``, the owners walked in
        blocks of ``_BLOCK_BYTES`` per dense array, top-k extracted per block.

        Every column is its owner's walk alone (see :meth:`_iterate`), so
        any partition of the targets gives the same bytes as one call and
        as per-node :meth:`compute`; the blocks only bound the dense
        ``nodes x owners`` arrays a batch holds at once.
        """
        if not targets:
            return {}
        missing = [node for node in targets if node not in graph]
        signatures: Dict[NodeId, Signature] = {node: Signature(node, {}) for node in missing}
        present = [node for node in targets if node in graph]
        if not present:
            return signatures

        ordering, position = graph.node_index()
        num_nodes = len(ordering)
        transition_t = self._walk_matrix(graph, position)
        dangling = np.asarray(transition_t.sum(axis=0)).ravel() == 0
        start_rows = np.asarray([position[node] for node in present])

        right_mask = None
        if isinstance(graph, BipartiteGraph):
            right = graph.right_node_set()
            right_mask = np.asarray([node in right for node in ordering])

        width = max(1, _BLOCK_BYTES // (8 * num_nodes))
        for lo in range(0, len(present), width):
            occupancy = self._iterate(
                transition_t, dangling, start_rows[lo : lo + width], num_nodes
            )
            for column, node in enumerate(present[lo : lo + width]):
                weights = occupancy[:, column].copy()
                weights[position[node]] = 0.0
                if right_mask is not None and graph.side(node) == "left":
                    weights = np.where(right_mask, weights, 0.0)
                signatures[node] = self._extract_top_k(node, weights, ordering)
        return signatures

    def _extract_top_k(
        self, owner: NodeId, weights: np.ndarray, node_array: List[NodeId]
    ) -> Signature:
        """Top-k of a dense weight vector with deterministic tie-breaking."""
        positive = np.flatnonzero(weights > 0)
        budget = self.k + _TOPK_SLACK
        if positive.size > budget:
            # Keep every index tied with the weakest of the top `budget`
            # candidates so the subsequent exact tie-break stays correct.
            partition = positive[
                np.argpartition(weights[positive], positive.size - budget)[-budget:]
            ]
            threshold = weights[partition].min()
            positive = positive[weights[positive] >= threshold]
        candidates = {node_array[index]: float(weights[index]) for index in positive}
        return Signature.from_relevance(owner, candidates, self.k)
