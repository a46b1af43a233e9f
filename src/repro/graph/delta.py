"""Edge/node deltas between consecutive window graphs.

The paper's methodology is built on *consecutive* windows: persistence,
identification and monitoring all compare ``G_t`` against ``G_{t+1}``,
which typically share most of their edges.  A :class:`WindowDelta` is the
compact description of what changed between two such graphs — per-edge
``(old_weight, new_weight)`` records plus the node churn — and is the
input contract of the incremental signature engine
(:meth:`repro.core.scheme.SignatureScheme.compute_all` with ``delta=``).

:meth:`WindowDelta.from_graphs` is the one producer: it diffs two built
graphs, at most one :class:`EdgeChange` per ordered pair.  Besides weight
changes it reports order changes, because a signature's float sums run
over adjacency rows (and matrix walks over node positions) in order: an
edge kept at the same weight in an out-row or in-row whose order changed
gets an equal-weight change, and :attr:`WindowDelta.moved_nodes` names
nodes whose order among the surviving nodes changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Dict, FrozenSet, Iterable, Set, Tuple

import numpy as np

from repro.types import NodeId, Weight

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.comm_graph import CommGraph

KIND_ADD = "add"
KIND_REMOVE = "remove"
KIND_REWEIGHT = "reweight"


@dataclass(frozen=True)
class EdgeChange:
    """One coalesced edge mutation: ``C[src, dst]`` went from ``old_weight``
    to ``new_weight`` (zero means "absent")."""

    src: NodeId
    dst: NodeId
    old_weight: Weight
    new_weight: Weight

    @property
    def kind(self) -> str:
        """``"add"`` (absent -> present), ``"remove"`` (present -> absent)
        or ``"reweight"`` (present both sides, weight changed)."""
        if self.old_weight == 0:
            return KIND_ADD
        if self.new_weight == 0:
            return KIND_REMOVE
        return KIND_REWEIGHT

    @property
    def structural(self) -> bool:
        """True when edge *existence* changed (add or remove) — the cases
        that alter degrees, not just weights."""
        return self.old_weight == 0 or self.new_weight == 0


def _moved(old: Collection[NodeId], new: Collection[NodeId]) -> Set[NodeId]:
    """Members of both orders whose place among the common members moved.

    ``old`` and ``new`` hold distinct keys in order (a graph's nodes, a
    row's entries).  The result holds at least one member of every pair
    the two orders put differently, and is empty when they agree.  Either
    the members ranked below some earlier member or those ranked above
    some later one qualify; the smaller set is returned, so one member
    moving far costs one entry.
    """
    if len(old) < 2 or len(new) < 2:
        return set()
    kept_old = [key for key in old if key in new]
    kept_new = [key for key in new if key in old]
    if kept_old == kept_new:
        return set()
    rank = dict(zip(kept_old, range(len(kept_old))))
    ranks = np.fromiter(map(rank.__getitem__, kept_new), dtype=np.intp, count=len(kept_new))
    below = ranks < np.maximum.accumulate(ranks)
    above = ranks > np.minimum.accumulate(ranks[::-1])[::-1]
    pick = below if below.sum() <= above.sum() else above
    return {kept_new[index] for index in np.flatnonzero(pick).tolist()}


@dataclass(frozen=True)
class WindowDelta:
    """The difference ``G_t -> G_{t+1}`` between two window graphs.

    ``changes`` holds one :class:`EdgeChange` per edge whose weight
    differs, or whose place in its out-row or in-row moved (with equal
    weights); ``added_nodes``/``removed_nodes`` record node churn (a node
    may churn without any weighted edge changing, e.g. endpoints of
    zero-weight records), and ``moved_nodes`` the surviving nodes whose
    order among the survivors changed.  An empty delta means the graphs
    are identical, orders included.
    """

    changes: Tuple[EdgeChange, ...] = ()
    added_nodes: FrozenSet[NodeId] = frozenset()
    removed_nodes: FrozenSet[NodeId] = frozenset()
    moved_nodes: FrozenSet[NodeId] = frozenset()

    def __len__(self) -> int:
        return len(self.changes)

    @property
    def is_empty(self) -> bool:
        return (
            not self.changes
            and not self.added_nodes
            and not self.removed_nodes
            and not self.moved_nodes
        )

    @property
    def has_node_churn(self) -> bool:
        return bool(self.added_nodes or self.removed_nodes)

    def sources(self) -> Set[NodeId]:
        """Sources of changed edges (the nodes whose out-view changed)."""
        return {change.src for change in self.changes}

    def destinations(self) -> Set[NodeId]:
        """Destinations of changed edges (the nodes whose in-view changed)."""
        return {change.dst for change in self.changes}

    def endpoints(self) -> Set[NodeId]:
        """Every node incident to a changed edge."""
        return self.sources() | self.destinations()

    def structural_changes(self) -> Iterable[EdgeChange]:
        """Changes that added or removed an edge (degree-affecting)."""
        return (change for change in self.changes if change.structural)

    def churned_nodes(self) -> FrozenSet[NodeId]:
        """Nodes that entered or left ``V`` across the transition."""
        return self.added_nodes | self.removed_nodes

    @classmethod
    def from_graphs(cls, old: "CommGraph", new: "CommGraph") -> "WindowDelta":
        """Diff two graphs into a delta (edge weights compared exactly).

        Change order is deterministic: old-graph edge order first
        (removed, reweighted or moved), then new-graph order for added
        edges.
        """
        # The rows themselves: the diff belongs to the graph package.
        old_out, new_out, new_in = old._out, new._out, new._in
        empty: Dict[NodeId, float] = {}
        moved_in = set()
        for node, row in old._in.items():
            for src in _moved(row, new_in.get(node, empty)):
                moved_in.add((src, node))
        changes = []
        for src, row in old_out.items():
            new_row = new_out.get(src, empty)
            moved_out = _moved(row, new_row)
            for dst, old_weight in row.items():
                new_weight = new_row.get(dst, 0.0)
                if new_weight != old_weight or dst in moved_out or (src, dst) in moved_in:
                    changes.append(EdgeChange(src, dst, old_weight, new_weight))
        for src, new_row in new_out.items():
            row = old_out.get(src, empty)
            for dst, new_weight in new_row.items():
                if dst not in row:
                    changes.append(EdgeChange(src, dst, 0.0, new_weight))
        return cls(
            changes=tuple(changes),
            added_nodes=frozenset(new_out.keys() - old_out.keys()),
            removed_nodes=frozenset(old_out.keys() - new_out.keys()),
            moved_nodes=frozenset(_moved(old_out, new_out)),
        )
