"""Persisting and loading windowed graph sequences as CSV.

The interchange format is a single CSV of edge records whose ``time`` field
is the integer window index; it round-trips through the generic
:mod:`repro.graph.stream` record format, so any external trace in that
format can be windowed and analysed by the library.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.exceptions import DatasetError, GraphError
from repro.graph.builders import aggregate_records
from repro.graph.stream import EdgeRecord, read_edge_records, write_edge_records
from repro.graph.windows import GraphSequence, bucket_records


def save_graph_sequence_csv(sequence: GraphSequence, path: str | Path) -> int:
    """Flatten a :class:`GraphSequence` into an edge-record CSV.

    Each edge of window ``t`` becomes a record with ``time = t``.  Isolated
    nodes are not representable in the edge format and are dropped (a
    documented limitation of CSV interchange).  The write is atomic (it
    delegates to :func:`~repro.graph.stream.write_edge_records`), so a crash
    mid-save never leaves a half-written sequence file.  Returns records
    written.
    """
    records: List[EdgeRecord] = []
    for window_index, graph in enumerate(sequence.graphs):
        for src, dst, weight in graph.edges():
            records.append(
                EdgeRecord(time=float(window_index), src=src, dst=dst, weight=weight)
            )
    return write_edge_records(records, path)


def load_graph_sequence_csv(
    path: str | Path, bipartite: bool = False, errors: str = "strict"
) -> GraphSequence:
    """Load a :class:`GraphSequence` saved by :func:`save_graph_sequence_csv`.

    Window indices must be non-negative integers stored in ``time``; gaps
    produce empty windows so indices stay aligned.  ``errors`` is forwarded
    to :func:`~repro.graph.stream.read_edge_records`, so dirty interchange
    files can be loaded with ``errors="skip"`` instead of aborting.
    """
    records = read_edge_records(path, errors=errors)
    if not records:
        raise DatasetError(f"{path}: no records found")
    try:
        buckets = bucket_records(records)
    except GraphError as exc:
        raise DatasetError(f"{path}: time field must hold non-negative window indices") from exc
    graphs = [aggregate_records(bucket, bipartite=bipartite) for bucket in buckets]
    return GraphSequence(graphs=graphs)
