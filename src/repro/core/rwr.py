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
        """Run the power iteration for a batch of start nodes.

        ``start_rows[q]`` is the matrix row of query ``q``'s start node.
        Returns the dense ``num_nodes x num_queries`` occupancy matrix.
        """
        num_queries = start_rows.size
        start = np.zeros((num_nodes, num_queries))
        start[start_rows, np.arange(num_queries)] = 1.0
        occupancy = start.copy()
        c = self.reset_probability
        limit = self.max_hops if self.max_hops is not None else self.max_iterations
        for _ in range(limit):
            stepped = transition_t @ occupancy
            if dangling.any():
                # Mass sitting on dangling nodes walks "home" to the start.
                # numpy sums a wide batch's columns row by row, but one
                # column pairwise; the running sum adds one column in row
                # order too, so no owner's walk depends on the batch width.
                if num_queries == 1:
                    lost = np.cumsum(occupancy[dangling, 0])[-1:]
                else:
                    lost = occupancy[dangling].sum(axis=0)
                stepped[start_rows, np.arange(num_queries)] += lost
            updated = (1.0 - c) * stepped + c * start
            if self.max_hops is None:
                delta = np.abs(updated - occupancy).sum(axis=0).max()
                occupancy = updated
                if delta < self.tolerance:
                    break
            else:
                occupancy = updated
        return occupancy

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

    def partition_batch_safe(self, graph: CommGraph) -> bool:
        """Hop-limited walks run a fixed iteration count with column-local
        arithmetic, so any partition of the targets reproduces the full
        batch bit-for-bit.  The unbounded walk's convergence test maxes
        over the whole batch — partitioning would change iteration counts
        — so it must be dispatched as one work item."""
        return self.max_hops is not None

    def _compute_batch(
        self, graph: CommGraph, targets: List[NodeId]
    ) -> Dict[NodeId, Signature]:
        """Batched computation: one shared ``P^T``, all queries iterated together.

        For hop-limited walks each query's occupancy column is computed
        independently (fixed iteration count, column-local arithmetic), so
        batching any subset of queries yields bit-identical columns — the
        property the shared-memory engine relies on when it partitions
        the targets.  The unbounded walk's convergence test couples the
        batch (``max`` over columns decides the iteration count), which is
        why :meth:`partition_batch_safe` refuses to split it.
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
        occupancy = self._iterate(transition_t, dangling, start_rows, num_nodes)

        right_mask = None
        left_side = None
        if isinstance(graph, BipartiteGraph):
            right = graph.right_node_set()
            right_mask = np.asarray([node in right for node in ordering])
            left_side = {node: graph.side(node) == "left" for node in present}

        node_array = ordering
        for query_index, node in enumerate(present):
            weights = occupancy[:, query_index].copy()
            weights[position[node]] = 0.0
            if right_mask is not None and left_side is not None and left_side[node]:
                weights = np.where(right_mask, weights, 0.0)
            signatures[node] = self._extract_top_k(node, weights, node_array)
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
