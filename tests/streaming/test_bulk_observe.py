"""Bulk ``observe_records`` against the per-record ``observe`` loop.

The batch path groups records by source, hashes each distinct destination
once and updates each source's Count-Min table with one ``np.add.at`` and
its SpaceSaving counter in one pass.  It must leave exactly the state one
``observe`` call per record leaves: table bits, totals, SpaceSaving entries
with their sequence numbers (and so the next evictions), out-volumes, FM
bitmaps — and, for inputs it hands to the loop, the same error and the
same partial state.
"""

import struct
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StreamingError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.stream import EdgeRecord
from repro.streaming.countmin import CountMinSketch
from repro.streaming.fm import FlajoletMartin
from repro.streaming.hashing import shared_hash_family
from repro.streaming.spacesaving import SpaceSaving
from repro.streaming.stream_schemes import StreamingTopTalkers, StreamingUnexpectedTalkers

NODES = ["a", "b", "c", "d", "e", "f", 1, True]
WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 1e16, 1e-300, 3]),
    st.floats(min_value=0.0, max_value=1e6),
)
BUILDERS = [StreamingTopTalkers, StreamingUnexpectedTalkers]

#: Records are duck-typed; this stand-in carries weights EdgeRecord refuses.
Raw = namedtuple("Raw", "src dst weight")


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


def observed(cls, chunks, capacity, per_record):
    builder = cls(k=min(3, capacity), candidate_capacity=capacity, epsilon=0.2, delta=0.1, seed=5)
    try:
        for chunk in chunks:
            if per_record:
                for record in chunk:
                    builder.observe(record.src, record.dst, record.weight)
            else:
                builder.observe_records(chunk)
        result = "ok", None
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        result = "error", (type(exc), str(exc))
    return result, builder_state(builder), future_state(builder)


def assert_same(cls, chunks, capacity):
    assert observed(cls, chunks, capacity, per_record=False) == observed(
        cls, chunks, capacity, per_record=True
    )


def records(weights=WEIGHT, make=lambda s, d, w: EdgeRecord(0.0, s, d, w)):
    return st.lists(
        st.builds(make, st.sampled_from(NODES), st.sampled_from(NODES), weights), max_size=40
    )


def chunked(draw_records):
    """One to three consecutive observe_records calls on one builder."""
    return st.lists(draw_records, min_size=1, max_size=3)


class TestObserveRecordsEqualsObserveLoop:
    @settings(max_examples=150, deadline=None)
    @given(chunked(records()), st.sampled_from(BUILDERS), st.integers(1, 12))
    def test_same_state(self, chunks, cls, capacity):
        # Small capacities evict; zero weights and self-loops are skipped
        # (UT still counts a self-loop's source in the in-degree).
        assert all(cls()._group(chunk) is not None for chunk in chunks)
        assert_same(cls, chunks, capacity)

    @settings(max_examples=100, deadline=None)
    @given(
        chunked(records(st.one_of(WEIGHT, st.just(-1.0)), make=Raw)),
        st.sampled_from(BUILDERS),
        st.integers(1, 12),
    )
    def test_negative_weight_same_error_and_partial_state(self, chunks, cls, capacity):
        assert_same(cls, chunks, capacity)

    @pytest.mark.parametrize("cls", BUILDERS)
    @pytest.mark.parametrize(
        "weight", [float("nan"), "heavy", None], ids=["nan", "unorderable", "none"]
    )
    def test_other_weights_take_the_loop(self, cls, weight):
        chunk = [Raw("a", "b", 1.0), Raw("a", "c", weight), Raw("b", "c", 2.0)]
        assert_same(cls, [chunk], capacity=4)

    @pytest.mark.parametrize("cls", BUILDERS)
    def test_unhashable_label_takes_the_loop(self, cls):
        chunk = [Raw("a", "b", 1.0), Raw("a", ["unhashable"], 1.0), Raw("b", "c", 2.0)]
        outcome = observed(cls, [chunk], 4, per_record=False)
        assert outcome[0][0] == "error"
        assert outcome == observed(cls, [chunk], 4, per_record=True)

    @pytest.mark.parametrize("cls", BUILDERS)
    def test_order_sensitive_sums(self, cls):
        # 1e16 + 1.0 rounds back to 1e16: any other order sums differently
        # in the Count-Min cells, the totals and the SpaceSaving counts.
        chunk = [EdgeRecord(0.0, "a", "x", w) for w in (1e16, 1.0, 1.0, 3.0)]
        chunk.insert(2, EdgeRecord(0.0, "a", "y", 1.0))
        assert_same(cls, [chunk, chunk], capacity=8)

    def test_generators_are_accepted(self):
        chunk = [EdgeRecord(0.0, "a", "b", 1.0), EdgeRecord(0.0, "a", "c", 2.0)]
        via_list, via_iter = StreamingTopTalkers(), StreamingTopTalkers()
        via_list.observe_records(chunk)
        via_iter.observe_records(iter(chunk))
        assert builder_state(via_list) == builder_state(via_iter)


#: The service's labels: strings, equal exactly when they hash alike.
STR_NODES = ["a", "b", "c", "d", "e", "f", "hôte-ü", "节点"]
FLOAT_WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 1e16, 1e-300, 3.0]),
    st.floats(min_value=0.0, max_value=1e6),
)


def batch_observed(cls, records, capacity):
    labels = LabelTable()
    labels.intern(["unrelated", "f"])  # ids need not start at the batch's labels
    builder = cls(k=min(3, capacity), candidate_capacity=capacity, epsilon=0.2, delta=0.1, seed=5)
    builder.observe_batch(RecordBatch.from_records(records, labels))
    return ("ok", None), builder_state(builder), future_state(builder)


class TestObserveBatchEqualsObserveRecords:
    """The service's column path against the record path it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                lambda s, d, w: EdgeRecord(0.0, s, d, w),
                st.sampled_from(STR_NODES),
                st.sampled_from(STR_NODES),
                FLOAT_WEIGHT,
            ),
            max_size=60,
        ),
        st.sampled_from(BUILDERS),
        st.integers(1, 12),
    )
    def test_same_state(self, records, cls, capacity):
        # Small capacities send some sources through SpaceSaving.update.
        assert batch_observed(cls, records, capacity) == observed(
            cls, [records], capacity, per_record=False
        )

    @pytest.mark.parametrize("cls", BUILDERS)
    def test_order_sensitive_sums(self, cls):
        records = [EdgeRecord(0.0, "a", "x", w) for w in (1e16, 1.0, 1.0, 3.0)]
        records.insert(2, EdgeRecord(0.0, "a", "y", 1.0))
        records.append(EdgeRecord(0.0, "b", "b", 2.0))  # a self-loop
        assert batch_observed(cls, records, 8) == observed(cls, [records], 8, per_record=False)

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
        sketch, reference = CountMinSketch(seed=2), CountMinSketch(seed=2)
        items = ["a", "b", "a", 7]
        sketch._add_columns(sketch._columns(items), [1.0, 2.0, 0.5, 1e16])
        for item, count in zip(items, [1.0, 2.0, 0.5, 1e16]):
            reference.update(item, count)
        assert np.array_equal(sketch._table, reference._table)
        assert sketch.total == reference.total
