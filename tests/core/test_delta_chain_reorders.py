"""Window graphs and signatures under record reorders.

A window that repeats the last window's edges and weights in another
order has the same weights but other row and node orders, and signatures
sum floats over those orders (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).  The
pipeline's signatures must still equal per-owner computation on each
window's own graph, and the sliding aggregator's graph must be fresh
aggregation of the window's records.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import create_scheme
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records, graph_from_edges
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.graph.windows import SlidingWindowAggregator
from repro.pipeline import CheckpointStore, CsvRecordSource, PipelineConfig, SignaturePipeline

ROW = [("a", "x", 0.1), ("a", "y", 0.2), ("a", "z", 0.3)]
IN_ROW = [("x", "a", 0.1), ("y", "a", 0.2), ("z", "a", 0.3)]


def reversed_trace(edges):
    """Two windows: ``edges``, then the same edges reversed, at strictly
    increasing times (so canonical ordering keeps them as they are)."""
    windows = [edges, edges[::-1]]
    return [
        EdgeRecord(window + 0.1 * position, src, dst, weight)
        for window, rows in enumerate(windows)
        for position, (src, dst, weight) in enumerate(rows)
    ]


class TestReversedRows:
    @pytest.mark.parametrize("name", ["tt", "it"])
    def test_pipeline_equals_per_owner_compute(self, name, tmp_path):
        # a's out-row and in-row both come back reversed.
        records = reversed_trace(ROW + IN_ROW)
        trace = tmp_path / "trace.csv"
        write_edge_records(records, trace)
        store = CheckpointStore(tmp_path / "ckpt")
        SignaturePipeline(
            CsvRecordSource(trace),
            store,
            PipelineConfig(scheme=name, k=3, window_length=1.0),
        ).run()
        scheme = create_scheme(name, k=3)
        for window in (0, 1):
            graph = graph_from_edges(
                (record.src, record.dst, record.weight)
                for record in records
                if int(record.time) == window
            )
            expected = {owner: scheme.compute(graph, owner) for owner in graph.senders()}
            assert store.load_window(window)[0] == expected


def graph_state(graph):
    """Node order, row orders, weight bits, counts and bipartite sides."""

    def bits(value):
        return struct.pack("<d", value)

    state = {
        "nodes": graph.nodes(),
        "out": [[(d, bits(w)) for d, w in graph.out_neighbors(n).items()] for n in graph],
        "in": [[(s, bits(w)) for s, w in graph.in_neighbors(n).items()] for n in graph],
        "total_weight": bits(graph.total_weight),
        "num_edges": graph.num_edges,
    }
    if isinstance(graph, BipartiteGraph):
        state["sides"] = (graph.left_nodes, graph.right_nodes)
    return state


@st.composite
def reordered_traces(draw):
    """Buckets drawn from a small pool of edges and weights; a bucket may
    repeat the previous one's records shuffled."""
    bipartite = draw(st.booleans())
    srcs, dsts = ("abc", "xyz") if bipartite else ("abcx", "abcx")
    pool = draw(
        st.lists(
            st.tuples(
                st.sampled_from(srcs),
                st.sampled_from(dsts),
                st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1e16]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    buckets = []
    for _ in range(draw(st.integers(2, 6))):
        if buckets and draw(st.booleans()):
            buckets.append(draw(st.permutations(buckets[-1])))
        else:
            buckets.append(draw(st.lists(st.sampled_from(pool), max_size=12)))
    return bipartite, buckets


@settings(max_examples=200, deadline=None)
@given(reordered_traces())
def test_window_graph_is_fresh(trace):
    bipartite, buckets = trace
    aggregator, labels = SlidingWindowAggregator(bipartite=bipartite), LabelTable()
    for bucket in buckets:
        records = [EdgeRecord(0.0, src, dst, weight) for src, dst, weight in bucket]
        aggregator.advance(RecordBatch.from_records(records, labels))
        assert graph_state(aggregator.graph) == graph_state(
            aggregate_records(records, bipartite=bipartite)
        )
