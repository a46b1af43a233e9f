"""The sliding-window bulk writer against the per-edge calls.

``SlidingWindowAggregator.advance`` applies each window's re-accumulated
edge totals through ``CommGraph._set_edge_weights``, which inlines what one
``set_edge_weight`` (or ``remove_edge``) call per affected edge does.  The
per-edge calls stay in ``advance`` as the reference and the fallback; here
an aggregator forced onto them is the reference, and both must agree on
every order, bit, count and delta — and on errors.
"""

import struct
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.batch import RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.graph.stream import EdgeRecord
from repro.graph.windows import SlidingWindowAggregator

#: Equal labels of different types (1/True, 2/2.0) must keep the first
#: occurrence's object, as the per-edge calls keep it.
LEFT = ["a", "b", 1, True]
RIGHT = ["x", "y", 2, 2.0]
WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 1e16, 1e-300, 3]),
    st.floats(min_value=0.0, max_value=1e6),
)

#: Records are duck-typed; this stand-in carries weights EdgeRecord refuses.
Raw = namedtuple("Raw", "src dst weight")


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


def delta_state(delta):
    return (
        [(c.src, c.dst, bits(c.old_weight), bits(c.new_weight)) for c in delta.changes],
        sorted(typed(delta.added_nodes), key=repr),
        sorted(typed(delta.removed_nodes), key=repr),
    )


def per_edge(aggregator):
    """An aggregator whose graph refuses the bulk writer."""
    aggregator.graph._set_edge_weights = lambda updates: False
    return aggregator


def trajectory(aggregator, buckets):
    """Per advance: the delta (or the error) and the graph state after it."""
    steps = []
    for bucket in buckets:
        batch = RecordBatch.from_records(bucket, aggregator.labels)
        try:
            outcome = ("ok", delta_state(aggregator.advance(batch)))
        except Exception as exc:  # noqa: BLE001 - the error itself is compared
            outcome = ("error", (type(exc), str(exc)))
        steps.append((outcome, graph_state(aggregator.graph)))
    return steps


def assert_same(buckets, window_buckets, bipartite):
    """Compare the two paths; returns the bulk writer's verdict per advance."""

    def make():
        return SlidingWindowAggregator(window_buckets=window_buckets, bipartite=bipartite)

    bulk, wrote = make(), []
    writer = bulk.graph._set_edge_weights

    def recording_writer(updates):
        wrote.append(writer(updates))
        return wrote[-1]

    bulk.graph._set_edge_weights = recording_writer
    assert trajectory(bulk, buckets) == trajectory(per_edge(make()), buckets)
    return wrote


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
        assert all(assert_same(buckets, window_buckets, bipartite=False))

    @settings(max_examples=150, deadline=None)
    @given(buckets_of(st.sampled_from(LEFT), st.sampled_from(RIGHT)), st.integers(1, 3))
    def test_bipartite_oriented(self, buckets, window_buckets):
        assert all(assert_same(buckets, window_buckets, bipartite=True))

    @settings(max_examples=150, deadline=None)
    @given(
        buckets_of(st.sampled_from(LEFT + RIGHT), st.sampled_from(LEFT + RIGHT)),
        st.integers(1, 3),
    )
    def test_bipartite_violations_and_self_loops(self, buckets, window_buckets):
        # Orientation errors surface from the per-edge calls at the same
        # edge, leaving the same partial graph behind.
        assert_same(buckets, window_buckets, bipartite=True)

    @pytest.mark.parametrize("window_buckets", [1, 2, 3])
    def test_order_sensitive_sums_and_row_moves(self, window_buckets):
        # 1e16 + 1.0 rounds back to 1e16, so any reordering shows; edges
        # that survive a slide move to the end of their rows.
        buckets = [
            [EdgeRecord(0.0, "a", "x", w) for w in (1e16, 1.0, 1.0)]
            + [EdgeRecord(0.0, "a", "y", 2.0), EdgeRecord(0.0, "b", "x", 0.0)],
            [EdgeRecord(0.0, "a", "y", 1.0), EdgeRecord(0.0, "a", "x", 1.0)],
            [],
            [EdgeRecord(0.0, "c", "z", 0.5)],
            [],
        ]
        for bipartite in (False, True):
            assert_same(buckets, window_buckets, bipartite)

    def test_orientation_error_is_the_per_edge_error(self):
        buckets = [[EdgeRecord(0.0, "a", "x", 1.0)], [EdgeRecord(0.0, "x", "b", 1.0)]]
        steps = trajectory(SlidingWindowAggregator(window_buckets=2, bipartite=True), buckets)
        assert steps[1][0][0] == "error"
        assert steps[1][0][1][0] is GraphError
        assert_same(buckets, 2, bipartite=True)


def apply_per_edge(graph, updates):
    for (src, dst), weight in updates:
        if weight is not None:
            graph.set_edge_weight(src, dst, weight)
        elif graph.has_edge(src, dst):
            graph.remove_edge(src, dst)


def writer_outcome(initial, updates, bipartite, bulk):
    graph = BipartiteGraph() if bipartite else CommGraph()
    for src, dst, weight in initial:
        graph.add_edge(src, dst, weight)
    graph.begin_delta_journal()
    try:
        if not (bulk and graph._set_edge_weights(updates)):
            apply_per_edge(graph, updates)
        result = "ok", None
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        result = "error", (type(exc), str(exc))
    delta = graph.end_delta_journal()
    return result, delta_state(delta), graph_state(graph)


class TestWriterEqualsPerEdgeCalls:
    """``_set_edge_weights`` on any graph and update list, not only the
    updates an aggregator produces: absent edges, repeated edges, NaN and
    negative weights."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(LEFT), st.sampled_from(RIGHT), st.floats(1e-3, 1e3)
            ),
            max_size=8,
        ),
        st.lists(
            st.tuples(
                st.tuples(st.sampled_from(LEFT + RIGHT), st.sampled_from(LEFT + RIGHT)),
                st.one_of(
                    st.none(),
                    WEIGHT,
                    st.sampled_from([float("nan"), -1.0]),
                ),
            ),
            max_size=10,
        ),
        st.booleans(),
    )
    def test_same_state_delta_and_errors(self, initial, updates, bipartite):
        assert writer_outcome(initial, updates, bipartite, bulk=True) == writer_outcome(
            initial, updates, bipartite, bulk=False
        )
        if not bipartite and not any(w is not None and w < 0 for _edge, w in updates):
            # A CommGraph declines only negative weights, so the comparison
            # above exercised the writer, not the fallback.
            assert CommGraph()._set_edge_weights(updates)

    def test_negative_weight_writes_nothing(self):
        graph = CommGraph()
        graph.add_edge("a", "x", 1.0)
        version = graph.version
        assert not graph._set_edge_weights([(("a", "x"), 2.0), (("b", "y"), -1.0)])
        assert graph.weight("a", "x") == 1.0 and graph.version == version

    def test_writes_without_a_journal(self):
        bulk, reference = CommGraph(), CommGraph()
        updates = [(("a", "x"), 1.0), (("a", "y"), 0.0), (("a", "x"), None)]
        assert bulk._set_edge_weights(updates)
        apply_per_edge(reference, updates)
        assert graph_state(bulk) == graph_state(reference)
