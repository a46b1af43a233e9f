"""The batch record path against its per-record references.

``aggregate_records`` converts records into a ``RecordBatch`` and builds the
graph from its columns; it must build exactly what one
``GraphBuilder.add_edge`` call per record builds, from records and from a
batch alike.  ``window_indices`` / ``bucket_records``
bucket a whole trace with numpy; every index must equal the scalar
``window_index_of``.
"""

import math
import struct
from collections import namedtuple
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph import builders
from repro.graph.builders import aggregate_records
from repro.graph.comm_graph import GraphBuilder
from repro.graph.stream import EdgeRecord
from repro.graph.windows import bucket_records, window_index_of, window_indices

#: Left and right label pools; equal labels of different types (1/True,
#: 2/2.0) must keep the first occurrence's object, as add_edge keeps it.
LEFT = [0, 1, True, "a", "b"]
RIGHT = [2, 2.0, "x", "y", "1"]
POSITIVE = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300),
    st.sampled_from([1.0, 1e-300, 0.1, 3]),
    st.integers(min_value=1, max_value=5),
)
ANY_WEIGHT = st.one_of(POSITIVE, st.sampled_from([0.0, 0, float("nan"), -1.0]))

#: Records are duck-typed; this stand-in carries weights EdgeRecord refuses.
Raw = namedtuple("Raw", "src dst weight")
Timed = namedtuple("Timed", "time src dst weight")


def reference(records, bipartite):
    """The per-record path: one ``add_edge`` call per record."""
    builder = GraphBuilder(bipartite)
    for record in records:
        builder.add_edge(record.src, record.dst, record.weight)
    return builder.build()


def bits(value):
    return type(value), struct.pack("<d", value)


def typed(labels):
    return [(label, type(label)) for label in labels]


def state(graph):
    """Everything the two paths must agree on, order and bits included."""
    nodes = graph.nodes()
    snapshot = {
        "nodes": typed(nodes),
        "out": [
            [(dst, type(dst), bits(w)) for dst, w in graph.out_neighbors(n).items()]
            for n in nodes
        ],
        "in": [
            [(src, type(src), bits(w)) for src, w in graph.in_neighbors(n).items()]
            for n in nodes
        ],
        "total_weight": bits(graph.total_weight),
        "num_edges": graph.num_edges,
    }
    if isinstance(graph, BipartiteGraph):
        snapshot["left"] = typed(graph.left_nodes)
        snapshot["right"] = typed(graph.right_nodes)
    return snapshot


def outcome(build):
    try:
        return "ok", state(build())
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "error", (type(exc), str(exc))


def assert_same(records, bipartite):
    expected = outcome(lambda: reference(records, bipartite))
    assert outcome(lambda: aggregate_records(records, bipartite=bipartite)) == expected
    assert outcome(lambda: aggregate_records(iter(records), bipartite=bipartite)) == expected
    if all(isinstance(record, EdgeRecord) for record in records):
        # A batch holds one object per label, the first one interned: its
        # reference is the loop over the batch's own records.
        batch = RecordBatch.from_records(records, LabelTable())
        assert outcome(lambda: aggregate_records(batch, bipartite=bipartite)) == outcome(
            lambda: reference(batch.records(), bipartite)
        )


def columns_only():
    """Refuse ``aggregate_records``' per-record fallback: what it builds
    inside comes from the batch's columns."""
    return mock.patch.object(builders, "graph_from_edges", side_effect=AssertionError)


def records_of(srcs, dsts, weights, raw=False):
    make = Raw if raw else (lambda s, d, w: EdgeRecord(0.0, s, d, w))
    return st.lists(st.builds(make, srcs, dsts, weights), max_size=40)


class TestAggregateEqualsPerRecord:
    @settings(max_examples=150, deadline=None)
    @given(records_of(st.sampled_from(LEFT + RIGHT), st.sampled_from(LEFT + RIGHT), POSITIVE))
    def test_comm_graph_positive_weights_take_the_batch_path(self, records):
        with columns_only():
            assert_same(records, bipartite=False)

    @settings(max_examples=150, deadline=None)
    @given(records_of(st.sampled_from(LEFT), st.sampled_from(RIGHT), POSITIVE))
    def test_bipartite_oriented_records(self, records):
        with columns_only():
            assert_same(records, bipartite=True)

    @settings(max_examples=150, deadline=None)
    @given(
        records_of(st.sampled_from(LEFT + RIGHT), st.sampled_from(LEFT + RIGHT), ANY_WEIGHT, raw=True),
        st.booleans(),
    )
    def test_any_input_same_graph_or_same_error(self, records, bipartite):
        # Zero, NaN and negative weights, orientation violations and
        # self-loops: the per-record path decides, so errors match too.
        assert_same(records, bipartite)

    @pytest.mark.parametrize("bipartite", [False, True])
    def test_duplicates_sum_in_record_order(self, bipartite):
        # 1e16 + 1.0 rounds back to 1e16: any other order sums differently.
        records = [EdgeRecord(0.0, "a", "x", w) for w in (1e16, 1.0, 1.0, 3.0)]
        records.insert(2, EdgeRecord(0.0, "b", "x", 1.0))
        assert_same(records, bipartite)
        assert aggregate_records(records, bipartite=bipartite).weight("a", "x") == 1e16 + 4.0

    def test_lone_self_loop_on_bipartite_graph(self):
        records = [EdgeRecord(0.0, "a", "a", 1.0)]
        assert_same(records, bipartite=True)
        graph = aggregate_records(records, bipartite=True)
        assert graph.side("a") == "left" and graph.right_nodes == ["a"]

    @pytest.mark.parametrize(
        "records,bipartite",
        [
            ([Raw("a", "x", 1.0), Raw("x", "b", 1.0)], True),
            ([Raw("a", "x", 1.0), Raw("b", "a", 1.0)], True),
            ([Raw("a", "x", 1.0), Raw("b", "y", -2.0)], False),
            ([Raw("a", "x", 1.0), Raw("b", "y", -2.0)], True),
            ([Raw("a", "x", 1.0), Raw("b", "y", "heavy")], False),
            ([Raw("a", ["unhashable"], 1.0)], False),
            ([Raw("a", ["unhashable"], 1.0)], True),
            # Weights that convert to float64 but that add_edge refuses.
            ([Timed(0.0, "a", "x", 1.0), Timed(0.0, "b", "y", "1.5")], False),
            ([Timed(0.0, "a", "x", Decimal("1.5"))], True),
        ],
    )
    def test_errors_are_the_per_record_errors(self, records, bipartite):
        kind, detail = outcome(lambda: aggregate_records(records, bipartite=bipartite))
        assert kind == "error"
        assert (kind, detail) == outcome(lambda: reference(records, bipartite))


class TestVectorizedWindowIndex:
    BOUNDARY_CASES = [
        (0.0, 0.7, 6),
        (84.4421851525048, 0.21201704712207997, 32),
        (0.0, 0.7, 29),
        (49.35778664653247, 0.3, 46),
    ]

    @pytest.mark.parametrize("start,width,index", BOUNDARY_CASES)
    def test_boundary_goes_to_later_window(self, start, width, index):
        boundary = start + index * width
        times = np.array([boundary, math.nextafter(boundary, -math.inf)])
        assert window_indices(times, start, width).tolist() == [
            window_index_of(time, start, width) for time in times.tolist()
        ]
        assert window_indices(times, start, width)[0] == index

    def test_time_just_below_a_boundary_whose_quotient_rounds_up(self):
        start, width = -87.37863562245813, 0.36257692397647256
        time = math.nextafter(start + 195 * width, -math.inf)
        assert int((time - start) / width) == 195
        assert window_indices(np.array([time]), start, width).tolist() == [194]
        assert window_index_of(time, start, width) == 194

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-3, 1e3),
        st.lists(st.integers(0, 200), min_size=1, max_size=30),
        st.lists(st.floats(0, 2e5), max_size=30),
    )
    def test_equals_scalar(self, start, width, boundaries, offsets):
        edges = [start + i * width for i in boundaries]
        times = [start + o for o in offsets] + edges
        times += [math.nextafter(t, direction) for t in edges for direction in (-math.inf, math.inf)]
        times = [t for t in times if t >= start]
        expected = [window_index_of(t, start, width) for t in times]
        assert window_indices(np.array(times, dtype=float), start, width).tolist() == expected

    def test_non_positive_width_is_window_zero(self):
        assert window_indices(np.array([1.0, 5.0]), 0.0, 0.0).tolist() == [0, 0]

    def test_nan_time_raises_the_scalar_error(self):
        with pytest.raises(ValueError) as scalar:
            window_index_of(float("nan"), 0.0, 1.0)
        with pytest.raises(ValueError) as vector:
            window_indices(np.array([1.0, float("nan")]), 0.0, 1.0)
        assert str(vector.value) == str(scalar.value)


def scalar_buckets(records, start, width, count):
    """The per-record bucketing loop the vectorised function replaces."""
    buckets = [[] for _ in range(count)]
    for record in records:
        buckets[min(window_index_of(record.time, start, width), count - 1)].append(record)
    return buckets


class TestBucketRecords:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=40),
        st.integers(1, 9),
        st.booleans(),
    )
    def test_num_windows_equals_scalar(self, times, count, ordered):
        if ordered:
            times = sorted(times)
        records = [EdgeRecord(t, f"s{i}", "d") for i, t in enumerate(times)]
        start, span = min(times), max(times) - min(times)
        width = span / count if span > 0 else 1.0
        expected = scalar_buckets(records, start, width, count)
        assert bucket_records(records, num_windows=count) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40), st.floats(0.05, 20))
    def test_window_length_equals_scalar(self, times, length):
        records = [EdgeRecord(t, f"s{i}", "d") for i, t in enumerate(times)]
        start, span = min(times), max(times) - min(times)
        count = max(1, math.ceil(span / length)) if span > 0 else 1
        expected = scalar_buckets(records, start, length, count)
        assert bucket_records(records, window_length=length) == expected

    def test_final_record_on_the_last_boundary_closes_the_last_window(self):
        times = [0.0, 0.7, 1.4, 2.1, 6 * 0.7]
        records = [EdgeRecord(t, "s", "d") for t in times]
        buckets = bucket_records(records, num_windows=6)
        assert [len(bucket) for bucket in buckets] == [1, 1, 1, 1, 0, 1]
        assert buckets == scalar_buckets(records, 0.0, (6 * 0.7) / 6, 6)

    def test_window_indices_mode_keeps_gaps(self):
        records = [EdgeRecord(t, "s", "d") for t in (2.0, 0.0, 2.0, 5.0)]
        buckets = bucket_records(records)
        assert [[r.time for r in bucket] for bucket in buckets] == [
            [0.0], [], [2.0, 2.0], [], [], [5.0]
        ]

    @pytest.mark.parametrize("time", [0.5, -1.0, float("nan"), float("inf")])
    def test_window_indices_mode_rejects_other_times(self, time):
        with pytest.raises(GraphError):
            bucket_records([EdgeRecord(0.0, "s", "d"), EdgeRecord(time, "s", "d")])

    def test_empty_trace_has_no_buckets(self):
        assert bucket_records([], num_windows=3) == []

    def test_both_window_specs_rejected(self):
        with pytest.raises(GraphError):
            bucket_records([EdgeRecord(0.0, "s", "d")], num_windows=2, window_length=1.0)
