"""Bulk ``observe_batch`` against the per-record ``observe`` loop.

The column path groups a batch's records by source, hashes each distinct
destination once and fills every source's Count-Min table with one
``np.add.at``.  It must leave exactly the state one ``observe`` call per
record leaves: table bits, totals, SpaceSaving entries with their
sequence numbers (and so the next evictions), out-volumes, FM bitmaps.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StreamingError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.stream import EdgeRecord
from repro.streaming.countmin import CountMinSketch
from repro.streaming.fm import FlajoletMartin
from repro.streaming.hashing import shared_hash_family, stable_hash64
from repro.streaming.spacesaving import SpaceSaving
from repro.streaming.stream_schemes import StreamingTopTalkers, StreamingUnexpectedTalkers

NODES = ["a", "b", "c", "d", "e", "f", 1, True]
BUILDERS = [StreamingTopTalkers, StreamingUnexpectedTalkers]


def exact(value):
    """Type and bits: 1 and 1.0, or 0.0 and -0.0, are different states."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def counter_state(counter):
    return (
        [
            (entry.item, exact(entry.count), exact(entry.error), entry.sequence)
            for entry in counter._entries.values()
        ],
        exact(counter.total),
    )


def builder_state(builder):
    """Everything observable about a builder, orders included."""
    state = {
        "sources": list(builder._sketches),
        "tables": [(s, cm._table.tobytes(), exact(cm.total)) for s, cm in builder._sketches.items()],
        "candidates": [(s, counter_state(ss)) for s, ss in builder._candidates.items()],
        "volumes": [(s, exact(v)) for s, v in builder._out_volume.items()],
    }
    if isinstance(builder, StreamingUnexpectedTalkers):
        state["indegree"] = [(d, fm._bitmaps.tobytes()) for d, fm in builder._indegree.items()]
    return state


def future_state(builder):
    """The state after the same further updates: the next sequence numbers
    and which entries SpaceSaving evicts next."""
    for source, counter in builder._candidates.items():
        for index in range(3):
            counter.update(("late", index), 0.5 + index)
    return builder_state(builder)


def make_builder(cls, capacity):
    return cls(k=min(3, capacity), candidate_capacity=capacity, epsilon=0.2, delta=0.1, seed=5)


def observed(cls, records, capacity):
    """The state one ``observe`` call per record builds."""
    builder = make_builder(cls, capacity)
    for record in records:
        builder.observe(record.src, record.dst, record.weight)
    return builder_state(builder), future_state(builder)


def batch_observed(cls, records, capacity):
    labels = LabelTable()
    labels.intern(["unrelated", "f"])  # ids need not start at the batch's labels
    builder = make_builder(cls, capacity)
    builder.observe_batch(RecordBatch.from_records(records, labels))
    return builder_state(builder), future_state(builder)


#: Labels that are equal exactly when they hash alike: the service's and
#: the CSV reader's strings, and ints (never ``True`` or ``1.0`` beside 1).
ALIKE_NODES = ["a", "b", "c", "d", "e", "f", "hôte-ü", "节点", "1", 1, 7, -3]
FLOAT_WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 1e16, 1e-300, 3.0]),
    st.floats(min_value=0.0, max_value=1e6),
)


class TestObserveBatchEqualsObserveRecords:
    """The column path against one ``observe`` call per record."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                lambda s, d, w: EdgeRecord(0.0, s, d, w),
                st.sampled_from(ALIKE_NODES),
                st.sampled_from(ALIKE_NODES),
                FLOAT_WEIGHT,
            ),
            max_size=60,
        ),
        st.sampled_from(BUILDERS),
        st.integers(1, 12),
    )
    def test_same_state(self, records, cls, capacity):
        # Small capacities send some sources through SpaceSaving.update.
        assert batch_observed(cls, records, capacity) == observed(cls, records, capacity)

    @pytest.mark.parametrize("cls", BUILDERS)
    def test_order_sensitive_sums(self, cls):
        # 1e16 + 1.0 rounds back to 1e16: any other order sums differently
        # in the Count-Min cells, the totals and the SpaceSaving counts.
        records = [EdgeRecord(0.0, "a", "x", w) for w in (1e16, 1.0, 1.0, 3.0)]
        records.insert(2, EdgeRecord(0.0, "a", "y", 1.0))
        records.append(EdgeRecord(0.0, "b", "b", 2.0))  # a self-loop
        assert batch_observed(cls, records, 8) == observed(cls, records, 8)

    @pytest.mark.parametrize("cls", BUILDERS)
    def test_needs_an_empty_builder_and_valid_weights(self, cls):
        labels = LabelTable()
        builder = cls()
        builder.observe_batch(RecordBatch.from_records([EdgeRecord(0.0, "a", "b")], labels))
        with pytest.raises(StreamingError, match="empty builder"):
            builder.observe_batch(RecordBatch.from_records([EdgeRecord(0.0, "a", "c")], labels))
        for weight in (float("nan"), -1.0):
            batch = RecordBatch.from_records([EdgeRecord(0.0, "a", "b")], labels)
            batch.weight[0] = weight
            with pytest.raises(StreamingError, match="non-negative"):
                cls().observe_batch(batch)


class TestSpaceSavingUpdateMany:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(NODES), st.floats(1e-3, 1e3)), max_size=30),
        st.lists(st.tuples(st.sampled_from(NODES), st.floats(1e-3, 1e3)), max_size=30),
        st.integers(1, 10),
    )
    def test_equals_update_loop(self, before, pairs, capacity):
        bulk, loop = SpaceSaving(capacity), SpaceSaving(capacity)
        for item, count in before:
            bulk.update(item, count)
            loop.update(item, count)
        bulk._update_many([item for item, _ in pairs], [count for _, count in pairs])
        for item, count in pairs:
            loop.update(item, count)
        assert counter_state(bulk) == counter_state(loop)
        for index in range(capacity + 2):
            bulk.update(("next", index), 0.25)
            loop.update(("next", index), 0.25)
            assert counter_state(bulk) == counter_state(loop)

    def test_fits_without_eviction_writes_directly(self, monkeypatch):
        counter = SpaceSaving(3)
        monkeypatch.setattr(SpaceSaving, "update", pytest.fail)
        counter._update_many(["a", "b", "a", "c"], [1.0, 2.0, 3.0, 4.0])
        assert counter.items() == [("a", 4.0, 0.0), ("b", 2.0, 0.0), ("c", 4.0, 0.0)]


class TestSharedHashFamily:
    def test_one_instance_per_configuration(self):
        assert CountMinSketch(seed=3)._hashes is CountMinSketch(seed=3)._hashes
        assert CountMinSketch(seed=3)._hashes is not CountMinSketch(seed=4)._hashes
        assert FlajoletMartin(seed=3)._hashes is FlajoletMartin(seed=3)._hashes
        assert shared_hash_family(2, 10, 1) is shared_hash_family(2, 10, 1)

    def test_same_functions_as_a_fresh_family(self):
        from repro.streaming.hashing import HashFamily

        shared = shared_hash_family(5, 544, 9)
        fresh = HashFamily(5, 544, seed=9)
        assert [shared.hash_all(item) for item in NODES] == [
            fresh.hash_all(item) for item in NODES
        ]

    def test_columns_match_update(self):
        # observe_batch adds each record into its fingerprint's kernel columns.
        sketch, reference = CountMinSketch(seed=2), CountMinSketch(seed=2)
        items, counts = ["a", "b", "a", 7], [1.0, 2.0, 0.5, 1e16]
        columns = sketch._hashes.hash_columns([stable_hash64(item) for item in items])
        np.add.at(sketch._table, (np.arange(sketch.depth)[:, None], columns.astype(np.intp)), counts)
        sketch._total = sum(counts)
        for item, count in zip(items, counts):
            reference.update(item, count)
        assert np.array_equal(sketch._table, reference._table)
        assert sketch.total == reference.total
