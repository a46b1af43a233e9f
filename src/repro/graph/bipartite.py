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

from typing import FrozenSet, Iterable, List, Set

from repro.exceptions import GraphError
from repro.graph.comm_graph import CommGraph
from repro.types import NodeId, Weight, WeightedEdge


class BipartiteGraph(CommGraph):
    """A :class:`CommGraph` with edges restricted to ``V1 x V2``.

    Membership of the partitions is tracked explicitly so that isolated
    nodes keep their side.  A node may belong to only one partition.
    """

    _ROW_FIELDS = ("_out", "_in", "_left", "_right")

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

    def _load_columns(self) -> None:
        super()._load_columns()
        # The sides also hold the endpoints of zero-weight records.
        columns = self._columns
        assert columns is not None and columns.sides is not None
        left, right = map(columns.labels.labels_of, columns.sides)
        self._left, self._right = set(left), set(right)

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
