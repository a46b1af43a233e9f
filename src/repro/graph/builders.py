"""Building communication graphs from edge records.

The paper aggregates flows "over regular time windows to form communication
graphs", with edge weight = total volume in the window.  This module houses
that aggregation plus the (orthogonal, per the paper) exponential-decay
combination of historical windows used by the Communities-of-Interest line
of work.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Type

from repro.exceptions import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.graph.stream import EdgeRecord
from repro.types import NodeId, Weight, WeightedEdge


def aggregate_records(
    records: Iterable[EdgeRecord],
    bipartite: bool = False,
) -> CommGraph:
    """Aggregate edge records into a single communication graph.

    Every record contributes its ``weight`` to edge ``(src, dst)``.  With
    ``bipartite=True``, a :class:`BipartiteGraph` is built and the records
    must respect the V1 -> V2 orientation.

    The result is exactly what one ``add_edge`` call per record builds
    (the reference loop below): node and row orders, bitwise weights,
    ``total_weight``, version and partition sets.  The batch path sums
    each edge once per record in a dict, then writes the graph per
    distinct edge.  Inputs it cannot shortcut exactly — a zero, negative
    or NaN weight, or on a bipartite graph a node on both sides — take the
    reference loop, so they fail or succeed as before.
    """
    if not isinstance(records, (list, tuple)):
        records = list(records)
    graph: CommGraph = BipartiteGraph() if bipartite else CommGraph()
    summed = _sum_edge_weights(records)
    if summed is None or not graph._load_aggregated(
        (), summed[0].keys(), summed[0].values(), summed[1], len(records)
    ):
        for record in records:
            graph.add_edge(record.src, record.dst, record.weight)
    return graph


def _sum_edge_weights(
    records: Sequence[EdgeRecord],
) -> Optional[Tuple[Dict[Tuple[NodeId, NodeId], Weight], float]]:
    """Per-edge weight sums (keyed in first-occurrence order) and the total,
    each accumulated in record order from ``0.0`` as ``add_edge`` does;
    ``None`` when some record's weight is not positive."""
    weights: Dict[Tuple[NodeId, NodeId], Weight] = {}
    get = weights.get
    total = 0.0
    try:
        for record in records:
            weight = record.weight
            # 0.0, not 0: the interpreter's float-float compare is faster.
            if not weight > 0.0:
                return None
            key = (record.src, record.dst)
            weights[key] = get(key, 0.0) + weight
            total += weight
    except TypeError:
        # An unorderable weight or an unhashable label: the reference
        # loop raises it.
        return None
    return weights, total


def graph_from_edges(
    edges: Iterable[WeightedEdge],
    bipartite: bool = False,
) -> CommGraph:
    """Build a graph from ``(src, dst, weight)`` triples."""
    cls: Type[CommGraph] = BipartiteGraph if bipartite else CommGraph
    return cls(edges)


def combine_with_decay(
    graphs: Sequence[CommGraph],
    decay: float = 0.5,
) -> CommGraph:
    """Exponential-decay combination of a chronological sequence of windows.

    Produces a graph with weights
    ``C'[i, j] = sum_t decay^(T - 1 - t) * C_t[i, j]``
    where ``graphs[T - 1]`` is the most recent window.  This mirrors the
    age-weighted Communities-of-Interest signature of Cortes et al.; the
    paper treats it as orthogonal, so no experiment depends on it, but it
    is exposed for users who want history-aware signatures.

    ``decay`` must lie in ``(0, 1]``; ``decay=1`` is a plain sum.
    """
    if not graphs:
        raise GraphError("combine_with_decay requires at least one graph")
    if not 0 < decay <= 1:
        raise GraphError(f"decay must be in (0, 1], got {decay}")
    bipartite = all(isinstance(graph, BipartiteGraph) for graph in graphs)
    combined: CommGraph = BipartiteGraph() if bipartite else CommGraph()
    horizon = len(graphs)
    for age_index, graph in enumerate(graphs):
        factor = decay ** (horizon - 1 - age_index)
        for node in graph.nodes():
            combined.add_node(node)
        for src, dst, weight in graph.edges():
            combined.add_edge(src, dst, weight * factor)
    return combined
