"""Communication-graph substrate.

This subpackage implements the graph model from Section II of the paper:
weighted directed communication graphs :math:`G_t = \\langle V, E_t \\rangle`
aggregated over time windows, a bipartite specialisation, edge-record
streams, window splitting and summary statistics.
"""

from repro.graph.comm_graph import CommGraph, GraphBuilder, edges_in_build_order, rebuilt
from repro.graph.bipartite import BipartiteGraph
from repro.graph.stream import (
    EdgeRecord,
    ReadReport,
    RejectedRow,
    read_edge_records,
    write_edge_records,
    write_quarantine_rows,
)
from repro.graph.builders import (
    aggregate_records,
    combine_with_decay,
    graph_from_edges,
)
from repro.graph.windows import (
    GraphSequence,
    SlidingWindowAggregator,
    split_records_into_windows,
    window_index_of,
)
from repro.graph.stats import GraphSummary, estimate_effective_diameter, summarize_graph

__all__ = [
    "CommGraph",
    "BipartiteGraph",
    "GraphBuilder",
    "edges_in_build_order",
    "rebuilt",
    "EdgeRecord",
    "ReadReport",
    "RejectedRow",
    "read_edge_records",
    "write_edge_records",
    "write_quarantine_rows",
    "aggregate_records",
    "combine_with_decay",
    "graph_from_edges",
    "GraphSequence",
    "SlidingWindowAggregator",
    "split_records_into_windows",
    "window_index_of",
    "GraphSummary",
    "summarize_graph",
    "estimate_effective_diameter",
]
