"""Dirty-set helpers for incremental signature recomputation.

Given a :class:`~repro.graph.delta.WindowDelta` describing
``G_t -> G_{t+1}``, each scheme over-approximates the set of owners whose
signatures *may* differ between the two graphs (its "dirty set"); every
other owner's signature is provably byte-identical and can be reused.

The helpers here implement the graph-traversal part shared by the
walk-based schemes: which nodes' *walk views* changed, and reverse
reachability from those nodes over the union of the old and new edge
sets (a walk from a clean owner in either graph can only be affected if
it can reach a changed node, so the union graph bounds both sides).
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Set

from repro.graph.comm_graph import CommGraph
from repro.graph.delta import WindowDelta
from repro.types import NodeId


def walk_changed_nodes(delta: WindowDelta, symmetrize: bool) -> Set[NodeId]:
    """Nodes whose weighted neighbour view changed under the walk's lens.

    Directed walks read only out-neighbour views, so only sources of
    changed edges are affected; symmetrised walks read both directions,
    so both endpoints are.  Node churn always changes views (a node
    appearing or vanishing).
    """
    changed = {change.src for change in delta.changes}
    if symmetrize:
        changed |= {change.dst for change in delta.changes}
    changed |= delta.added_nodes | delta.removed_nodes
    return changed


def position_order_seeds(
    graph: CommGraph, moved: Iterable[NodeId], symmetrize: bool
) -> Set[NodeId]:
    """Nodes whose walk step may sum differently because ``moved`` nodes
    changed position (see :attr:`WindowDelta.moved_nodes`).

    The matrix walk adds each node's incoming mass, each transition row's
    weights and the dangling nodes' mass in node-position order.  Zero
    terms add nothing and two terms add the same either way round, so
    only a sum of three or more terms that includes a moved node can
    change: a moved node feeding a node with three or more walk
    in-neighbours, a node with three or more walk out-neighbours that
    include a moved node, and a moved dangling node among three or more.
    Sums that lost a term to a removed edge are already seeded by that
    edge's change.
    """

    def walk_out(node: NodeId) -> Collection[NodeId]:
        if symmetrize:
            return graph.out_neighbors(node).keys() | graph.in_neighbors(node).keys()
        return graph.out_neighbors(node).keys()

    def walk_in(node: NodeId) -> Collection[NodeId]:
        if symmetrize:
            return walk_out(node)
        return graph.in_neighbors(node).keys()

    seeds: Set[NodeId] = set()
    num_dangling: Optional[int] = None
    for node in moved:
        targets = walk_out(node)
        if any(len(walk_in(target)) >= 3 for target in targets):
            seeds.add(node)
        seeds.update(source for source in walk_in(node) if len(walk_out(source)) >= 3)
        if not targets:
            if num_dangling is None:
                num_dangling = sum(1 for other in graph if not walk_out(other))
            if num_dangling >= 3:
                seeds.add(node)
    return seeds


def _reverse_edges_union(
    graph: CommGraph, delta: WindowDelta, symmetrize: bool
) -> Dict[NodeId, List[NodeId]]:
    """Extra reverse edges present in the *old* graph but not the new one.

    Reverse BFS uses the new graph's in-neighbour (and, symmetrised,
    out-neighbour) maps; edges that were removed across the transition
    must be added back so reachability covers the old graph too.  Added
    edges are already in the new graph.
    """
    extra: Dict[NodeId, List[NodeId]] = {}
    for change in delta.changes:
        if change.new_weight == 0 and change.old_weight > 0:
            extra.setdefault(change.dst, []).append(change.src)
            if symmetrize:
                extra.setdefault(change.src, []).append(change.dst)
    return extra


def reverse_reachable(
    graph: CommGraph,
    seeds: Set[NodeId],
    delta: WindowDelta,
    symmetrize: bool,
    max_depth: Optional[int] = None,
) -> Set[NodeId]:
    """Owners within ``max_depth`` reverse hops of ``seeds`` in old∪new.

    ``None`` depth means unbounded (full reverse closure).  The seeds
    themselves are included: an owner is returned iff a walk from it (of
    length ``<= max_depth`` when bounded) can touch a seed in either the
    old or the new graph.
    """
    extra = _reverse_edges_union(graph, delta, symmetrize)
    visited = set(seeds)
    frontier = list(seeds)
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier: List[NodeId] = []
        for node in frontier:
            predecessors: List[NodeId] = []
            if node in graph:
                predecessors.extend(graph.in_neighbors(node))
                if symmetrize:
                    predecessors.extend(graph.out_neighbors(node))
            predecessors.extend(extra.get(node, ()))
            for predecessor in predecessors:
                if predecessor not in visited:
                    visited.add(predecessor)
                    next_frontier.append(predecessor)
        frontier = next_frontier
    return visited


def dangling_set_changed(graph: CommGraph, delta: WindowDelta) -> bool:
    """Whether any node's dangling status (no out-edges) flipped.

    The matrix RWR scheme redistributes dangling mass with a vectorised
    sum whose floating-point grouping depends on dangling-set membership,
    so a flip forces a full recompute to preserve byte-identity.  Only
    sources of structural changes can flip; their old out-degree is
    reconstructed from the delta (changes are coalesced, so each edge
    appears at most once).  Directed (non-symmetrised) walk view only —
    the symmetrised path falls back to full recompute on any structural
    change before this question arises.
    """
    candidates: Set[NodeId] = set()
    for change in delta.changes:
        if change.structural:
            candidates.add(change.src)
    for node in candidates:
        if node not in graph:
            return True
        degree_now = graph.out_degree(node)
        added = 0
        removed = 0
        for change in delta.changes:
            if not change.structural or change.src != node:
                continue
            if change.new_weight > 0:
                added += 1
            else:
                removed += 1
        degree_old = degree_now - added + removed
        if (degree_old == 0) != (degree_now == 0):
            return True
    return False
