"""Communication-graph substrate.

This subpackage implements the graph model from Section II of the paper:
weighted directed communication graphs :math:`G_t = \\langle V, E_t \\rangle`
aggregated over time windows, a bipartite specialisation, edge-record
streams, window splitting and summary statistics.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".comm_graph": ("CommGraph", "GraphBuilder", "edges_in_build_order", "rebuilt"),
        ".bipartite": ("BipartiteGraph",),
        ".stream": (
            "EdgeRecord", "ReadReport", "RejectedRow", "read_edge_records", "write_edge_records",
            "write_quarantine_rows",
        ),
        ".builders": ("aggregate_records", "combine_with_decay", "graph_from_edges"),
        ".windows": (
            "GraphSequence", "SlidingWindowAggregator", "split_records_into_windows",
            "window_index_of",
        ),
        ".stats": ("GraphSummary", "estimate_effective_diameter", "summarize_graph"),
    },
)
