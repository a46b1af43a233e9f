"""Delta chains and window graphs under record reorders.

A window that repeats the last window's edges and weights in another
order has the same weights but other row and node orders, and signatures
sum floats over those orders (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).  The
delta chain — ``compute_all`` with ``delta=`` and ``previous=`` — must
still equal a full recompute on the same graph, and the sliding
aggregator's graph must be fresh aggregation of the retained records at
every ``window_buckets``.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import create_scheme
from repro.graph.batch import RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records, graph_from_edges
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.graph.windows import GraphSequence, SlidingWindowAggregator
from repro.pipeline import CheckpointStore, CsvRecordSource, PipelineConfig, SignaturePipeline

ROW = [("a", "x", 0.1), ("a", "y", 0.2), ("a", "z", 0.3)]
IN_ROW = [("x", "a", 0.1), ("y", "a", 0.2), ("z", "a", 0.3)]

#: Schemes with a dirty-set bound (unbounded RWR always recomputes).
SCHEMES = {
    "tt": {},
    "ut": {},
    "it": {},
    "rwr": {"max_hops": 2},
    "rwr-push": {},
}


def reversed_trace(edges):
    """Two windows: ``edges``, then the same edges reversed, at strictly
    increasing times (so canonical ordering keeps them as they are)."""
    windows = [edges, edges[::-1]]
    return [
        EdgeRecord(window + 0.1 * position, src, dst, weight)
        for window, rows in enumerate(windows)
        for position, (src, dst, weight) in enumerate(rows)
    ]


def chain_equals_full(scheme, sequence):
    previous = scheme.compute_all(sequence[0])
    for index in range(1, len(sequence)):
        graph = sequence[index]
        chained = scheme.compute_all(
            graph, delta=sequence.delta_for(index - 1), previous=previous
        )
        assert chained == scheme.compute_all(graph)
        previous = chained


class TestReversedRows:
    @pytest.mark.parametrize("name,edges", [("tt", ROW), ("it", IN_ROW)])
    def test_sliding_delta_chain(self, name, edges):
        sequence = GraphSequence.from_sliding_records(
            reversed_trace(edges), window_length=1.0
        )
        assert len(sequence) == 2
        chain_equals_full(create_scheme(name, k=3), sequence)

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


def test_moved_nodes_dirty_the_matrix_walk():
    # A zero-weight record moves i3 and j ahead of q: no edge changes, but
    # RWR's walk from q adds i1, i2 and i3's mass into j in node-position
    # order, and that order changed.
    edges = [
        ("q", "i1", 0.9), ("q", "i2", 0.8), ("q", "i3", 0.5),
        ("i1", "j", 0.3), ("i2", "j", 0.6), ("i3", "j", 0.5),
    ]
    records = [EdgeRecord(0.1 * p, s, d, w) for p, (s, d, w) in enumerate(edges)]
    records.append(EdgeRecord(1.0, "i3", "j", 0.0))
    records += [EdgeRecord(1.1 + 0.1 * p, s, d, w) for p, (s, d, w) in enumerate(edges)]
    sequence = GraphSequence.from_sliding_records(records, window_length=1.0)
    delta = sequence.delta_for(0)
    assert not delta.changes and not delta.has_node_churn and delta.moved_nodes
    scheme = create_scheme("rwr", k=3, max_hops=2)
    assert scheme.compute_all(sequence[0])["q"] != scheme.compute_all(sequence[1])["q"]
    assert "q" in scheme.dirty_nodes(sequence[1], delta)
    chain_equals_full(scheme, sequence)


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
@given(reordered_traces(), st.integers(1, 3), st.sampled_from(sorted(SCHEMES)))
def test_window_graph_is_fresh_and_delta_chain_is_full_recompute(trace, window_buckets, name):
    bipartite, buckets = trace
    scheme = create_scheme(name, k=3, **SCHEMES[name])
    aggregator = SlidingWindowAggregator(window_buckets=window_buckets, bipartite=bipartite)
    previous = None
    for index, bucket in enumerate(buckets):
        records = [EdgeRecord(0.0, src, dst, weight) for src, dst, weight in bucket]
        delta = aggregator.advance(RecordBatch.from_records(records, aggregator.labels))
        retained = [
            EdgeRecord(0.0, src, dst, weight)
            for part in buckets[max(0, index - window_buckets + 1):index + 1]
            for src, dst, weight in part
        ]
        graph = aggregator.graph
        assert graph_state(graph) == graph_state(aggregate_records(retained, bipartite=bipartite))
        full = scheme.compute_all(graph)
        if previous is not None:
            assert scheme.compute_all(graph, delta=delta, previous=previous) == full
        previous = full
