"""The sliding-window builder against the per-record calls.

``SlidingWindowAggregator.advance`` builds each window graph with
``aggregate_records`` of the retained buckets' columns; reading its dict
rows writes them through ``CommGraph._load_columns``.  One ``add_edge``
call per retained record is the reference (and the fallback when the
columns cannot build the graph exactly); both must agree on every order,
bit, count and partition set — and on errors, after which the aggregator
is left as it was.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.batch import RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
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
    """Node order, row orders, weight bits, counts and partition sets."""
    state = {
        "out": [
            (node, type(node), [(dst, type(dst), bits(w)) for dst, w in row.items()])
            for node, row in graph._out.items()
        ],
        "in": [
            (node, type(node), [(src, type(src), bits(w)) for src, w in row.items()])
            for node, row in graph._in.items()
        ],
        "total_weight": bits(graph.total_weight),
        "num_edges": graph.num_edges,
        "version": graph.version,
    }
    if isinstance(graph, BipartiteGraph):
        state["left"] = sorted(typed(graph._left), key=repr)
        state["right"] = sorted(typed(graph._right), key=repr)
    return state


def per_record(batches, bipartite):
    """The reference: one ``add_edge`` call per retained record."""
    graph = BipartiteGraph() if bipartite else CommGraph()
    for batch in batches:
        for record in batch.records():
            graph.add_edge(record.src, record.dst, record.weight)
    return graph


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
    records = [EdgeRecord(0.0, "a", "x", 1.0), EdgeRecord(0.0, "b", "y", 0.0)]
    aggregator.advance(RecordBatch.from_records(records, aggregator.labels))
    # The label table does not pickle; the copy carries dict rows.
    clone = pickle.loads(pickle.dumps(aggregator.graph))
    assert graph_state(clone) == graph_state(aggregator.graph)
