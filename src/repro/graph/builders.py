"""Building communication graphs from edge records.

The paper aggregates flows "over regular time windows to form communication
graphs", with edge weight = total volume in the window.  This module houses
that aggregation plus the (orthogonal, per the paper) exponential-decay
combination of historical windows used by the Communities-of-Interest line
of work.
"""

from __future__ import annotations

import operator
from typing import Iterable, List, Optional, Sequence, Type, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graph.batch import LabelTable, RecordBatch, first_occurrence
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, WindowColumns
from repro.graph.stream import EdgeRecord
from repro.types import WeightedEdge

_SRC = operator.attrgetter("src")
_DST = operator.attrgetter("dst")
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
    ``add_edge`` call per record builds: node and row orders, bitwise
    weights, ``total_weight``, version and partition sets.  It is built
    from the batch's columns and backed by them (see
    :class:`WindowColumns`).  Inputs the columns cannot build exactly — a
    negative or NaN weight, on a bipartite graph a node on both sides, or
    records that do not convert (no ``time``, a weight that is not a
    float, an int or a bool, an unhashable label) — take the per-record
    loop, so they fail or succeed as it does.
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
    graph = None if batch is None else _column_graph(batch, bipartite, records)
    if graph is not None:
        return graph
    if records is batch:
        labels_of = batch.labels.labels_of
        edges = zip(labels_of(batch.src), labels_of(batch.dst), batch.weight.tolist())
    else:
        edges = ((record.src, record.dst, record.weight) for record in records)
    return graph_from_edges(edges, bipartite)


def _column_graph(
    batch: RecordBatch, bipartite: bool, records: Union[RecordBatch, Sequence[EdgeRecord]]
) -> Optional[CommGraph]:
    """The graph of ``batch``, backed by its columns, or ``None`` when only
    the per-record loop builds it exactly (``records``: the input).

    Nodes come in first-occurrence order (source before destination) and
    edges in first-positive-record order, the order ``add_edge`` inserts
    them in.  ``np.add.at`` adds unbuffered in record order, so every edge
    total is bitwise the sequential ``+=`` of the per-record loop, and the
    running ``np.cumsum`` is its ``total_weight`` (``+ 0.0`` turns an
    all-zero ``-0.0`` sum into the loop's ``0.0``).
    """
    weight = batch.weight
    if not np.all(weight >= 0):
        # A negative or NaN weight: the per-record loop decides.
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
            # loop knows which record raises, and a lone self-loop does not.
            return None
        sides = nodes[left], nodes[right]
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
        total_weight=float(np.cumsum(weight)[-1]) + 0.0 if len(batch) else 0.0,
        num_records=len(positive),
        sides=sides,
        edge_labels=None if records is batch else _edge_labels(records, first[rows]),
    )
    return (BipartiteGraph if bipartite else CommGraph)._from_columns(columns)


def _edge_labels(records: Sequence[EdgeRecord], firsts: np.ndarray) -> Optional[List[tuple]]:
    """The ``(src, dst)`` objects of each edge's first positive record
    (``firsts``), the keys ``add_edge`` gives its row entries, when labels
    of several types could hold equal objects of different types (``1``
    and ``True``); ``None`` when all labels share one type, so the label
    table's objects are those keys."""
    types = set(map(type, map(_SRC, records))).union(map(type, map(_DST, records)))
    if len(types) < 2:
        return None
    return [(records[index].src, records[index].dst) for index in firsts.tolist()]


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
