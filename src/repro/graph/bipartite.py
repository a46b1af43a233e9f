"""Bipartite communication graphs (Section II-B).

Many communication settings split nodes into two disjoint classes — e.g.
local hosts vs. external hosts in enterprise flow data, or users vs.
database tables in query logs.  :class:`BipartiteGraph` enforces that every
directed edge goes from the left partition ``V1`` to the right partition
``V2``, and the signature machinery uses the partition to restrict
signatures of ``V1`` nodes to members of ``V2`` when the graph is declared
bipartite.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, FrozenSet, Iterable, List, Set, Tuple

from repro.exceptions import GraphError
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId, Weight, WeightedEdge


class BipartiteGraph(CommGraph):
    """A :class:`CommGraph` with edges restricted to ``V1 x V2``.

    Membership of the partitions is tracked explicitly so that isolated
    nodes keep their side.  A node may belong to only one partition.
    """

    def __init__(self, edges: Iterable[WeightedEdge] | None = None) -> None:
        self._left: Set[NodeId] = set()
        self._right: Set[NodeId] = set()
        super().__init__(edges)

    # ------------------------------------------------------------------
    # Partition management
    # ------------------------------------------------------------------
    @property
    def left_nodes(self) -> List[NodeId]:
        """``V1`` members in graph insertion order."""
        return [node for node in self.nodes() if node in self._left]

    @property
    def right_nodes(self) -> List[NodeId]:
        """``V2`` members in graph insertion order."""
        return [node for node in self.nodes() if node in self._right]

    def right_node_set(self) -> FrozenSet[NodeId]:
        """``V2`` as a frozen set, cached per graph :attr:`version`.

        The signature machinery restricts left-node signatures to ``V2``
        members; building the set once per version (instead of once per
        node) keeps ``compute_all`` linear in the population.
        """
        return self.versioned_cache("right_node_set", lambda: frozenset(self._right))

    def side(self, node: NodeId) -> str:
        """Return ``"left"`` or ``"right"`` for a known node."""
        if node in self._left:
            return "left"
        if node in self._right:
            return "right"
        raise GraphError(f"node {node!r} has no partition assignment")

    def add_left_node(self, node: NodeId) -> None:
        """Add ``node`` to ``V1`` (no edges)."""
        if node in self._right:
            raise GraphError(f"node {node!r} already in right partition")
        self._left.add(node)
        super().add_node(node)

    def add_right_node(self, node: NodeId) -> None:
        """Add ``node`` to ``V2`` (no edges)."""
        if node in self._left:
            raise GraphError(f"node {node!r} already in left partition")
        self._right.add(node)
        super().add_node(node)

    # ------------------------------------------------------------------
    # Mutation overrides enforcing the bipartite constraint
    # ------------------------------------------------------------------
    def add_edge(self, src: NodeId, dst: NodeId, weight: Weight = 1.0) -> None:
        if src in self._right:
            raise GraphError(
                f"edge source {src!r} is in the right partition; edges must go V1 -> V2"
            )
        if dst in self._left:
            raise GraphError(
                f"edge destination {dst!r} is in the left partition; edges must go V1 -> V2"
            )
        self._left.add(src)
        self._right.add(dst)
        super().add_edge(src, dst, weight)

    def set_edge_weight(self, src: NodeId, dst: NodeId, weight: Weight) -> None:
        if src in self._right:
            raise GraphError(
                f"edge source {src!r} is in the right partition; edges must go V1 -> V2"
            )
        if dst in self._left:
            raise GraphError(
                f"edge destination {dst!r} is in the left partition; edges must go V1 -> V2"
            )
        self._left.add(src)
        self._right.add(dst)
        super().set_edge_weight(src, dst, weight)

    def _load_aggregated(
        self,
        nodes: Iterable[NodeId],
        edges: Collection[Tuple[NodeId, NodeId]],
        weights: Iterable[Weight],
        total_weight: float,
        num_records: int,
    ) -> bool:
        # add_edge puts every record's src in V1 and dst in V2, even for a
        # zero weight; sets filled in edge order.
        left = set(map(itemgetter(0), edges))
        right = set(map(itemgetter(1), edges))
        if not left.isdisjoint(right):
            # An orientation violation or a self-loop: only the per-record
            # path knows which record raises, and a lone self-loop does not.
            return False
        super()._load_aggregated(nodes, edges, weights, total_weight, num_records)
        self._left, self._right = left, right
        return True

    def remove_node(self, node: NodeId) -> None:
        super().remove_node(node)
        self._left.discard(node)
        self._right.discard(node)

    def _clone_state_from(self, other: "CommGraph") -> None:
        super()._clone_state_from(other)
        assert isinstance(other, BipartiteGraph)
        self._left = set(other._left)
        self._right = set(other._right)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V1|={len(self._left)}, |V2|={len(self._right)}, "
            f"|E|={self.num_edges}, total_weight={self.total_weight:g})"
        )
