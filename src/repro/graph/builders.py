"""Building communication graphs from edge records.

The paper aggregates flows "over regular time windows to form communication
graphs", with edge weight = total volume in the window.  This module houses
that aggregation plus the (orthogonal, per the paper) exponential-decay
combination of historical windows used by the Communities-of-Interest line
of work.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Type, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graph.batch import LabelTable, RecordBatch, first_occurrence
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, GraphBuilder, WindowColumns
from repro.graph.stream import EdgeRecord
from repro.types import WeightedEdge

_LOW32 = (1 << 32) - 1


def aggregate_records(
    records: Union[RecordBatch, Iterable[EdgeRecord]],
    bipartite: bool = False,
) -> CommGraph:
    """Aggregate edge records into a single communication graph.

    Every record contributes its ``weight`` to edge ``(src, dst)``.  With
    ``bipartite=True``, a :class:`BipartiteGraph` is built and the records
    must respect the V1 -> V2 orientation.

    ``records`` is a :class:`RecordBatch`, or records (duck-typed:
    ``time``, ``src``, ``dst`` and ``weight``) that are converted into one
    over a fresh :class:`LabelTable`.  The result is exactly what one
    :meth:`GraphBuilder.add_edge` call per record builds: node and row
    orders, bitwise weights and partition sets.  It is built from the
    batch's columns (see :class:`WindowColumns`), and every label is the
    table's object: the one interned first among equal labels.  Inputs
    the columns cannot build exactly — a negative or NaN weight, on a
    bipartite graph a node on both sides, or records that do not convert
    (no ``time``, a weight that is not a float, an int or a bool, an
    unhashable label) — take the per-record builder, so they fail or
    succeed as it does.
    """
    batch: Optional[RecordBatch] = None
    if isinstance(records, RecordBatch):
        batch = records
    else:
        if not isinstance(records, (list, tuple)):
            records = list(records)
        try:
            batch = RecordBatch.from_records(records, LabelTable())
        except (AttributeError, TypeError, ValueError, OverflowError):
            pass
    graph = None if batch is None else _column_graph(batch, bipartite)
    if graph is not None:
        return graph
    if records is batch:
        labels_of = batch.labels.labels_of
        edges = zip(labels_of(batch.src), labels_of(batch.dst), batch.weight.tolist())
    else:
        edges = ((record.src, record.dst, record.weight) for record in records)
    return graph_from_edges(edges, bipartite)


def _column_graph(batch: RecordBatch, bipartite: bool) -> Optional[CommGraph]:
    """The graph of ``batch``, built from its columns, or ``None`` when
    only the per-record builder builds it exactly.

    Nodes come in first-occurrence order (source before destination) and
    edges in first-positive-record order, the order ``add_edge`` inserts
    them in.  ``np.add.at`` adds unbuffered in record order, so every edge
    total is bitwise the sequential ``+=`` of the per-record builder.
    """
    weight = batch.weight
    if not np.all(weight >= 0):
        # A negative or NaN weight: the per-record builder decides.
        return None
    ends = np.empty(2 * len(batch), dtype=np.int32)
    ends[0::2], ends[1::2] = batch.src, batch.dst
    nodes, position = first_occurrence(ends)
    sources, targets = position[0::2], position[1::2]
    sides = None
    if bipartite:
        # add_edge puts every record's src in V1 and dst in V2, even for a
        # zero weight.
        left = np.zeros(len(nodes), dtype=bool)
        right = np.zeros(len(nodes), dtype=bool)
        left[sources] = right[targets] = True
        if (left & right).any():
            # An orientation violation or a self-loop: only the per-record
            # builder knows which record raises, and a lone self-loop does not.
            return None
        sides = left, right
    edges, edge_of = np.unique((sources << 32) | targets, return_inverse=True)
    totals = np.zeros(len(edges))
    np.add.at(totals, edge_of, weight)
    # Each edge's first positive record; an edge of zero weights has none.
    positive = np.flatnonzero(weight > 0)
    first = np.full(len(edges), len(batch))
    np.minimum.at(first, edge_of[positive], positive)
    rows = np.flatnonzero(first < len(batch))
    rows = rows[np.argsort(first[rows])]
    keys = edges[rows]
    columns = WindowColumns(
        labels=batch.labels,
        nodes=nodes,
        src=keys >> 32,
        dst=keys & _LOW32,
        weight=totals[rows],
        sides=sides,
    )
    return (BipartiteGraph if bipartite else CommGraph)._of(columns)


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

    ``decay`` must lie in ``(0, 1]``; ``decay=1`` is a plain sum.  The
    result is bipartite iff every window is, with each node on its side.
    """
    if not graphs:
        raise GraphError("combine_with_decay requires at least one graph")
    if not 0 < decay <= 1:
        raise GraphError(f"decay must be in (0, 1], got {decay}")
    bipartite = all(isinstance(graph, BipartiteGraph) for graph in graphs)
    builder = GraphBuilder(bipartite)
    horizon = len(graphs)
    for age_index, graph in enumerate(graphs):
        factor = decay ** (horizon - 1 - age_index)
        # A bipartite result keeps every node on its side, edgeless ones too.
        left = set(graph.left_nodes) if bipartite else set()
        right = set(graph.right_nodes) if bipartite else set()
        for node in graph.nodes():
            if node in left:
                builder.add_left_node(node)
            elif node in right:
                builder.add_right_node(node)
            else:
                builder.add_node(node)
        for src, dst, weight in graph.edges():
            builder.add_edge(src, dst, weight * factor)
    return builder.build()
