"""Bipartite communication graphs (Section II-B).

Many communication settings split nodes into two disjoint classes — e.g.
local hosts vs. external hosts in enterprise flow data, or users vs.
database tables in query logs.  :class:`BipartiteGraph` holds a graph
whose every directed edge goes from the left partition ``V1`` to the right
partition ``V2`` (a bipartite :class:`~repro.graph.comm_graph.GraphBuilder`
enforces it), and the signature machinery uses the partition to restrict
signatures of ``V1`` nodes to members of ``V2``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.comm_graph import CommGraph, _columns_of
from repro.types import NodeId, WeightedEdge


class BipartiteGraph(CommGraph):
    """A :class:`CommGraph` with edges restricted to ``V1 x V2``.

    Membership of the partitions is held per node, so isolated nodes keep
    their side.
    """

    def __init__(self, edges: Iterable[WeightedEdge] | None = None) -> None:
        self._columns = _columns_of(edges, bipartite=True)

    @cached_property
    def _sides(self) -> Tuple[np.ndarray, np.ndarray]:
        sides = self._columns.sides
        assert sides is not None
        return sides

    @property
    def left_nodes(self) -> List[NodeId]:
        """``V1`` members in node order."""
        return self.node_labels(np.flatnonzero(self._sides[0]))

    @property
    def right_nodes(self) -> List[NodeId]:
        """``V2`` members in node order."""
        return self.node_labels(np.flatnonzero(self._sides[1]))

    def side(self, node: NodeId) -> str:
        """Return ``"left"`` or ``"right"`` for a known node."""
        position = self.node_index()[1].get(node)
        if position is not None:
            if self._sides[0][position]:
                return "left"
            if self._sides[1][position]:
                return "right"
        raise GraphError(f"node {node!r} has no partition assignment")

    def __repr__(self) -> str:
        left, right = self._sides
        return (
            f"{type(self).__name__}(|V1|={int(left.sum())}, |V2|={int(right.sum())}, "
            f"|E|={self.num_edges}, total_weight={self.total_weight:g})"
        )
