"""The sliding-window builder against the per-record calls.

``SlidingWindowAggregator.advance`` builds each window graph with
``aggregate_records`` of the retained buckets' columns.  One
``GraphBuilder.add_edge`` call per retained record is the reference (and
the fallback when the columns cannot build the graph exactly); both must
agree on every order, bit, count, label object and partition set — and
on errors, after which the aggregator is left as it was.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.batch import RecordBatch
from repro.graph.builders import aggregate_records, graph_from_edges
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import GraphBuilder
from repro.graph.stream import EdgeRecord
from repro.graph.windows import SlidingWindowAggregator

#: Equal labels of different types (1/True, 2/2.0) share one label-table
#: id, represented by the object interned first.
LEFT = ["a", "b", 1, True]
RIGHT = ["x", "y", 2, 2.0]
WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 1e16, 1e-300, 3]),
    st.floats(min_value=0.0, max_value=1e6),
)


def bits(value):
    return type(value), struct.pack("<d", value)


def typed(labels):
    return [(label, type(label)) for label in labels]


def graph_state(graph):
    """Node order, row orders, weight bits, counts, partition sets and the
    label objects throughout."""
    nodes = graph.nodes()
    state = {
        "out": [
            (node, type(node), [(dst, type(dst), bits(w)) for dst, w in graph.out_neighbors(node).items()])
            for node in nodes
        ],
        "in": [
            (node, type(node), [(src, type(src), bits(w)) for src, w in graph.in_neighbors(node).items()])
            for node in nodes
        ],
        "total_weight": bits(graph.total_weight),
        "num_edges": graph.num_edges,
    }
    if isinstance(graph, BipartiteGraph):
        state["left"] = typed(graph.left_nodes)
        state["right"] = typed(graph.right_nodes)
    return state


def per_record(batches, bipartite):
    """The reference: one ``add_edge`` call per retained record."""
    builder = GraphBuilder(bipartite)
    for batch in batches:
        for record in batch.records():
            builder.add_edge(record.src, record.dst, record.weight)
    return builder.build()


def outcome(build):
    try:
        return "ok", graph_state(build())
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "error", (type(exc), str(exc))


def assert_same(buckets, window_buckets, bipartite):
    """Advance through ``buckets``; after each, the aggregator's graph is
    the reference's, or both raise the same error and the aggregator
    keeps its graph and buckets.  Returns the outcome kinds."""
    aggregator = SlidingWindowAggregator(window_buckets=window_buckets, bipartite=bipartite)
    retained, kinds = [], []
    for bucket in buckets:
        batch = RecordBatch.from_records(bucket, aggregator.labels)
        window = (retained + [batch])[-window_buckets:]
        expected = outcome(lambda: per_record(window, bipartite))
        before = graph_state(aggregator.graph), aggregator.buckets_held

        def advanced():
            aggregator.advance(batch)
            return aggregator.graph

        assert outcome(advanced) == expected
        if expected[0] == "ok":
            retained = window
        else:
            assert (graph_state(aggregator.graph), aggregator.buckets_held) == before
        kinds.append(expected[0])
    return kinds


def buckets_of(srcs, dsts, weights=WEIGHT):
    record = st.builds(lambda s, d, w: EdgeRecord(0.0, s, d, w), srcs, dsts, weights)
    return st.lists(st.lists(record, max_size=12), min_size=1, max_size=6)


class TestAdvanceEqualsPerEdgeCalls:
    @settings(max_examples=150, deadline=None)
    @given(
        buckets_of(st.sampled_from(LEFT + RIGHT), st.sampled_from(LEFT + RIGHT)),
        st.integers(1, 3),
    )
    def test_comm_graph(self, buckets, window_buckets):
        assert set(assert_same(buckets, window_buckets, bipartite=False)) == {"ok"}

    @settings(max_examples=150, deadline=None)
    @given(buckets_of(st.sampled_from(LEFT), st.sampled_from(RIGHT)), st.integers(1, 3))
    def test_bipartite_oriented(self, buckets, window_buckets):
        assert set(assert_same(buckets, window_buckets, bipartite=True)) == {"ok"}

    @settings(max_examples=150, deadline=None)
    @given(
        buckets_of(st.sampled_from(LEFT + RIGHT), st.sampled_from(LEFT + RIGHT)),
        st.integers(1, 3),
    )
    def test_bipartite_violations_and_self_loops(self, buckets, window_buckets):
        # The writer declines a node on both sides; the per-record loop
        # then raises at the same record (or, for a lone self-loop, not).
        assert_same(buckets, window_buckets, bipartite=True)

    @pytest.mark.parametrize("window_buckets", [1, 2, 3])
    def test_order_sensitive_sums_and_row_moves(self, window_buckets):
        # 1e16 + 1.0 rounds back to 1e16, so any reordering shows; rows
        # and nodes follow the retained records, whatever came before.
        buckets = [
            [EdgeRecord(0.0, "a", "x", w) for w in (1e16, 1.0, 1.0)]
            + [EdgeRecord(0.0, "a", "y", 2.0), EdgeRecord(0.0, "b", "x", 0.0)],
            [EdgeRecord(0.0, "a", "y", 1.0), EdgeRecord(0.0, "a", "x", 1.0)],
            [],
            [EdgeRecord(0.0, "c", "z", 0.5)],
            [],
        ]
        for bipartite in (False, True):
            assert set(assert_same(buckets, window_buckets, bipartite)) == {"ok"}

    def test_orientation_error_is_the_per_edge_error(self):
        buckets = [[EdgeRecord(0.0, "a", "x", 1.0)], [EdgeRecord(0.0, "x", "b", 1.0)]]
        assert assert_same(buckets, 2, bipartite=True) == ["ok", "error"]
        aggregator = SlidingWindowAggregator(window_buckets=2, bipartite=True)
        aggregator.advance(RecordBatch.from_records(buckets[0], aggregator.labels))
        with pytest.raises(GraphError, match="source .x. is in the right partition"):
            aggregator.advance(RecordBatch.from_records(buckets[1], aggregator.labels))


def test_window_graph_pickles_as_its_rows():
    import pickle

    aggregator = SlidingWindowAggregator(bipartite=True)
    # Labels of an earlier bucket stay in the shared table.
    aggregator.advance(RecordBatch.from_records([EdgeRecord(0.0, "old", "gone", 1.0)], aggregator.labels))
    records = [EdgeRecord(0.0, "a", "x", 1.0), EdgeRecord(0.0, "b", "y", 0.0)]
    aggregator.advance(RecordBatch.from_records(records, aggregator.labels))
    payload = pickle.dumps(aggregator.graph)
    # The graph ships its own labels, never the shard's shared table.
    assert b"old" not in payload and b"gone" not in payload
    clone = pickle.loads(payload)
    assert graph_state(clone) == graph_state(aggregator.graph)


def test_row_keys_are_the_nodes_own_labels():
    # 1 and True are equal labels of different types: the node is the
    # object met first, and every row entry is keyed by that same object.
    records = [EdgeRecord(0.0, "a", 1, 1.0), EdgeRecord(0.0, "b", True, 2.0)]
    edges = [(record.src, record.dst, record.weight) for record in records]
    for graph in (aggregate_records(records), graph_from_edges(edges)):
        (node,) = [node for node in graph.nodes() if node == 1]
        assert type(node) is int
        for src in ("a", "b"):
            (key,) = graph.out_neighbors(src)
            assert key is node
        assert [type(key) for key in graph.in_neighbors(1)] == [str, str]
        assert all(dst is node for _, dst, _ in graph.edges())
