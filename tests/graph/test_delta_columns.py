"""The columnar window diff against the dict-row diff it replaced.

``WindowDelta.from_graphs`` keys edges as ``src id << 32 | dst id`` over
one label table and finds moved rows with segmented running max/min.
The reference below walks the graphs' dict rows, as the diff did before
it ran over columns; both must give the same ``changes`` tuple, in
order, and the same added, removed and moved nodes.  A TT shard never
needs dict rows at all (``tests/service/test_shard.py``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.comm_graph import CommGraph
from repro.graph.delta import EdgeChange, WindowDelta
from repro.graph.stream import EdgeRecord
from repro.graph.windows import SlidingWindowAggregator

LABELS = ["a", "b", "c", "d", 1, "1", 2.5]
WEIGHT = st.sampled_from([0.0, 1.0, 2.0, 0.5, 1e16])


def reference_moved(old, new):
    """Members of both orders whose place among the common members moved."""
    if len(old) < 2 or len(new) < 2:
        return set()
    kept_old = [key for key in old if key in new]
    kept_new = [key for key in new if key in old]
    if kept_old == kept_new:
        return set()
    rank = dict(zip(kept_old, range(len(kept_old))))
    ranks = np.fromiter(map(rank.__getitem__, kept_new), dtype=np.intp, count=len(kept_new))
    below = ranks < np.maximum.accumulate(ranks)
    above = ranks > np.minimum.accumulate(ranks[::-1])[::-1]
    pick = below if below.sum() <= above.sum() else above
    return {kept_new[index] for index in np.flatnonzero(pick).tolist()}


def reference_delta(old, new):
    """The dict-row diff: old edges in old row order, then added edges."""
    old_out, new_out, new_in = old._out, new._out, new._in
    moved_in = set()
    for node, row in old._in.items():
        for src in reference_moved(row, new_in.get(node, {})):
            moved_in.add((src, node))
    changes = []
    for src, row in old_out.items():
        new_row = new_out.get(src, {})
        moved_out = reference_moved(row, new_row)
        for dst, old_weight in row.items():
            new_weight = new_row.get(dst, 0.0)
            if new_weight != old_weight or dst in moved_out or (src, dst) in moved_in:
                changes.append(EdgeChange(src, dst, old_weight, new_weight))
    for src, new_row in new_out.items():
        row = old_out.get(src, {})
        for dst, new_weight in new_row.items():
            if dst not in row:
                changes.append(EdgeChange(src, dst, 0.0, new_weight))
    return WindowDelta(
        changes=tuple(changes),
        added_nodes=frozenset(new_out.keys() - old_out.keys()),
        removed_nodes=frozenset(old_out.keys() - new_out.keys()),
        moved_nodes=frozenset(reference_moved(old_out, new_out)),
    )


def assert_same_delta(old, new):
    delta = WindowDelta.from_graphs(old, new)
    # Read off the columns before the dict rows exist.
    sources, destinations, churned = delta.sources(), delta.destinations(), delta.churned_nodes()
    expected = reference_delta(old, new)
    assert delta.changes == expected.changes
    assert [(type(c.src), type(c.dst)) for c in delta.changes] == [
        (type(c.src), type(c.dst)) for c in expected.changes
    ]
    assert delta == expected
    assert len(delta) == len(expected)
    assert sources == expected.sources()
    assert destinations == expected.destinations()
    assert churned == expected.churned_nodes()
    assert list(delta.structural_changes()) == list(expected.structural_changes())


record = st.builds(
    lambda s, d, w: EdgeRecord(0.0, s, d, w), st.sampled_from(LABELS), st.sampled_from(LABELS), WEIGHT
)


class TestColumnarDiffEqualsDictDiff:
    @settings(max_examples=200, deadline=None)
    @given(
        buckets=st.lists(st.lists(record, max_size=14), min_size=2, max_size=6),
        window_buckets=st.integers(1, 3),
    )
    def test_window_pairs_over_one_table(self, buckets, window_buckets):
        aggregator = SlidingWindowAggregator(window_buckets=window_buckets)
        for bucket in buckets:
            old = aggregator.graph
            aggregator.advance(RecordBatch.from_records(bucket, aggregator.labels))
            new = aggregator.graph
            assert WindowDelta.from_graphs(old, new) == reference_delta(old, new)

    @settings(max_examples=200, deadline=None)
    @given(
        old_edges=st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS), WEIGHT)),
        new_edges=st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS), WEIGHT)),
        data=st.data(),
    )
    def test_mutated_dict_graphs(self, old_edges, new_edges, data):
        old, new = CommGraph(old_edges), CommGraph(new_edges)
        for graph in (old, new):
            for _ in range(data.draw(st.integers(0, 3))):
                op = data.draw(st.sampled_from(["set", "remove_node", "add_node"]))
                label = data.draw(st.sampled_from(LABELS))
                if op == "set":
                    graph.set_edge_weight(label, data.draw(st.sampled_from(LABELS)), data.draw(WEIGHT))
                elif op == "remove_node" and label in graph:
                    graph.remove_node(label)
                else:
                    graph.add_node(label)
        assert_same_delta(old, new)

    @settings(max_examples=100, deadline=None)
    @given(
        first=st.lists(record, max_size=14),
        second=st.lists(record, max_size=14),
        edges=st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS), WEIGHT)),
    )
    def test_column_and_dict_graphs_mixed(self, first, second, edges):
        # Windows over two different tables, and a window against a dict
        # graph, diff through a table of their own.
        windows = []
        for bucket in (first, second):
            aggregator = SlidingWindowAggregator(labels=LabelTable())
            aggregator.advance(RecordBatch.from_records(bucket, aggregator.labels))
            windows.append(aggregator.graph)
        assert_same_delta(*windows)
        assert_same_delta(windows[0], CommGraph(edges))
        assert_same_delta(CommGraph(edges), windows[1])

