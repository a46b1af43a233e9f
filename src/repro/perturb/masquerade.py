"""Label masquerading simulation (Section V of the paper).

"We simulated masquerading by perturbing ``f|V|`` randomly selected nodes
(denoted ``P``) in ``V``.  We created a bijective mapping between nodes in
``P``, and applied this mapping to the communications."  The mapping
``E_P = {(v, u)}`` means the individual formerly observed at label ``v``
appears at label ``u`` in the later window.

We draw the bijection as a uniformly random *derangement* of ``P`` (no
fixed points), since a fixed point would mean the node did not actually
masquerade; the detection problem is only defined for genuine switches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.exceptions import PerturbationError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, GraphBuilder
from repro.types import NodeId


@dataclass(frozen=True)
class MasqueradePlan:
    """The ground truth of a simulated masquerade.

    ``mapping[v] = u`` means node ``v``'s communications were relabelled
    with ``u`` (the paper's ``E_P`` pairs), i.e. the individual at ``v``
    now answers to label ``u``.  ``perturbed_nodes`` is the set ``P``.
    """

    mapping: Dict[NodeId, NodeId]
    perturbed_nodes: frozenset

    @property
    def pairs(self) -> List[tuple]:
        """``E_P`` as a list of ``(v, u)`` pairs."""
        return list(self.mapping.items())


def _random_derangement(items: Sequence[NodeId], rng: random.Random) -> Dict[NodeId, NodeId]:
    """Uniform random derangement via rejection sampling (fast for small |P|)."""
    if len(items) < 2:
        raise PerturbationError("a derangement needs at least two nodes")
    items = list(items)
    while True:
        shuffled = items[:]
        rng.shuffle(shuffled)
        if all(original != target for original, target in zip(items, shuffled)):
            return dict(zip(items, shuffled))


def relabel_graph(graph: CommGraph, mapping: Dict[NodeId, NodeId]) -> CommGraph:
    """``graph`` with node labels substituted per ``mapping``.

    Labels absent from ``mapping`` are unchanged.  The mapping must be
    injective on its domain and must not collide with unmapped labels
    outside its domain (otherwise two individuals would merge).
    """
    targets = list(mapping.values())
    if len(set(targets)) != len(targets):
        raise PerturbationError("masquerade mapping must be injective")
    domain = set(mapping)
    collisions = (set(targets) - domain) & set(graph.nodes())
    if collisions:
        raise PerturbationError(
            f"mapping targets collide with existing unmapped labels: {sorted(map(str, collisions))[:5]}"
        )

    def rename(node: NodeId) -> NodeId:
        return mapping.get(node, node)

    builder = GraphBuilder(isinstance(graph, BipartiteGraph))
    if isinstance(graph, BipartiteGraph):
        for node in graph.left_nodes:
            builder.add_left_node(rename(node))
        for node in graph.right_nodes:
            builder.add_right_node(rename(node))
    else:
        for node in graph.nodes():
            builder.add_node(rename(node))
    for src, dst, weight in graph.edges():
        builder.add_edge(rename(src), rename(dst), weight)
    return builder.build()


def apply_masquerade(
    graph: CommGraph,
    fraction: float | None = None,
    nodes: Sequence[NodeId] | None = None,
    candidates: Sequence[NodeId] | None = None,
    seed: int | None = None,
) -> tuple[CommGraph, MasqueradePlan]:
    """Simulate masquerading on ``graph``; returns the relabelled graph and plan.

    Either ``fraction`` (select ``round(f * |candidates|)`` nodes at random)
    or an explicit ``nodes`` list must be given.  ``candidates`` restricts
    the selection pool (e.g. to local hosts in bipartite flow graphs, since
    only monitored hosts can meaningfully masquerade); it defaults to the
    left partition for bipartite graphs and all nodes otherwise.
    """
    rng = random.Random(seed)
    if candidates is None:
        if isinstance(graph, BipartiteGraph):
            candidates = graph.left_nodes
        else:
            candidates = graph.nodes()
    candidates = list(candidates)

    if (fraction is None) == (nodes is None):
        raise PerturbationError("specify exactly one of fraction or nodes")
    if nodes is not None:
        selected = list(nodes)
    else:
        assert fraction is not None
        if not 0 <= fraction <= 1:
            raise PerturbationError(f"fraction must be in [0, 1], got {fraction}")
        count = round(fraction * len(candidates))
        if count < 2:
            count = 2 if fraction > 0 else 0
        if count > len(candidates):
            raise PerturbationError(
                f"cannot select {count} masqueraders from {len(candidates)} candidates"
            )
        selected = rng.sample(candidates, count)

    missing = [node for node in selected if node not in graph]
    if missing:
        raise PerturbationError(f"selected nodes not in graph: {missing[:5]}")
    if not selected:
        return graph, MasqueradePlan(mapping={}, perturbed_nodes=frozenset())
    if len(selected) < 2:
        raise PerturbationError("masquerading requires at least two selected nodes")

    mapping = _random_derangement(selected, rng)
    relabelled = relabel_graph(graph, mapping)
    return relabelled, MasqueradePlan(
        mapping=mapping, perturbed_nodes=frozenset(selected)
    )
