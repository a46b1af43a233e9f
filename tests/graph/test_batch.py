"""Record batches and the shared label table."""

import random
from collections import namedtuple
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DatasetError
from repro.graph.batch import LabelTable, RecordBatch, first_occurrence
from repro.graph.stream import EdgeRecord
from repro.graph.windows import canonical_order
from repro.streaming.hashing import stable_hash64

#: Labels that exercise the ``str`` ranking: prefixes, case, accents and
#: characters outside the BMP.
Timed = namedtuple("Timed", "time src dst weight")

LABELS = ["a", "ab", "b", "B", "é", "e", "É", "节点", "emoji-🛰", "ключ", "a b", ""]


class TestLabelTable:
    def test_ids_are_dense_and_stable(self):
        labels = LabelTable()
        assert labels.intern(["x", "y", "x"]).tolist() == [0, 1, 0]
        assert labels.intern(["y", "z"]).tolist() == [1, 2]
        assert labels.intern([]).dtype == np.int32
        assert len(labels) == 3
        assert labels.labels_of(np.array([2, 0])) == ["z", "x"]

    def test_fingerprints_extend_as_labels_arrive(self):
        labels = LabelTable()
        labels.intern(["x", "y"])
        first = labels.fingerprints()
        labels.intern(["z"])
        second = labels.fingerprints()
        assert first.tolist() == [stable_hash64("x"), stable_hash64("y")]
        assert second.tolist() == [stable_hash64(label) for label in ("x", "y", "z")]
        assert second.dtype == np.uint64

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([1, True, 1.0, 0, False, 0.0, "1", "a", (1, "a"), (True, "a")]),
                max_size=20,
            ),
            max_size=5,
        )
    )
    def test_intern_equals_the_per_label_loop(self, calls):
        # 1, True and 1.0 are one label: the object met first keeps it,
        # within one call and across calls.
        labels, ids, stored = LabelTable(), {}, []
        for call in calls:
            expected = []
            for label in call:
                if label not in ids:
                    ids[label] = len(stored)
                    stored.append(label)
                expected.append(ids[label])
            assert labels.intern(call).tolist() == expected
            kept = labels.labels_of(np.arange(len(labels)))
            assert [(label, type(label)) for label in kept] == [
                (label, type(label)) for label in stored
            ]

    def test_a_call_that_raises_adds_no_label(self):
        labels = LabelTable()
        labels.intern(["x"])
        with pytest.raises(TypeError):
            labels.intern(["y", "x", ["unhashable"], "z"])
        assert len(labels) == 1
        assert labels.ids_of(["y", "z"]).tolist() == [-1, -1]
        # The ids the failed call took are issued again, densely.
        assert labels.intern(["z", "y", "x"]).tolist() == [1, 2, 0]
        assert labels.labels_of(np.arange(len(labels))) == ["x", "z", "y"]

    @pytest.mark.parametrize("round_", range(5))
    def test_concurrent_interning_issues_each_id_once(self, round_):
        universe = [f"10.{i // 256}.{i % 256}.{i % 7}" for i in range(20000)]
        labels, results, start = LabelTable(), {}, threading.Barrier(10)
        done, reads = threading.Event(), []

        def worker(seed):
            rng = random.Random(seed)
            order = universe[:]
            rng.shuffle(order)
            start.wait()
            results[seed] = [
                (chunk, labels.intern(chunk).tolist())
                for chunk in (order[i:i + 31] for i in range(0, len(order), 31))
            ]

        def reader():
            # A reader never sees an id before its label is stored.
            start.wait()
            while not done.is_set():
                ids = labels.ids_of(universe)
                stored = len(labels)
                known = np.flatnonzero(ids >= 0)
                reads.append(
                    bool((ids[known] < stored).all())
                    and labels.labels_of(ids[known]) == [universe[i] for i in known]
                )

        writers = [
            threading.Thread(target=worker, args=(8 * round_ + seed,)) for seed in range(8)
        ]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert reads and all(reads)
        assert len(labels) == len(universe)
        # No id was issued twice: the ids are exactly 0..n-1, one per label.
        assert sorted(labels.labels_of(np.arange(len(labels)))) == sorted(universe)
        for chunks in results.values():
            for chunk, ids in chunks:
                assert labels.labels_of(np.array(ids)) == chunk


class TestRecordBatch:
    def records(self):
        return [
            EdgeRecord(2.0, "b", "a", 1.5),
            EdgeRecord(1.0, "a", "c", 0.0),
            EdgeRecord(1.0, "a", "b", 2.0),
        ]

    def test_round_trip(self):
        batch = RecordBatch.from_records(self.records(), LabelTable())
        assert batch.records() == self.records()
        assert len(batch) == 3 and batch.nbytes == 3 * 24
        assert batch.src.dtype == np.int32 and batch.time.dtype == np.float64

    def test_labels_are_interned_source_before_destination(self):
        # As add_edge meets them: True (record 0's destination) comes
        # before 1 (record 1's source), so True represents the label.
        records = [EdgeRecord(0.0, "a", True, 1.0), EdgeRecord(0.0, 1, "b", 2)]
        batch = RecordBatch.from_records(records, LabelTable())
        assert batch.src.tolist() == [0, 1] and batch.dst.tolist() == [1, 2]
        assert [type(label) for label in batch.labels.labels_of(batch.dst)] == [bool, str]
        assert batch.weight.tolist() == [1.0, 2.0] and batch.weight.dtype == np.float64

    @pytest.mark.parametrize("weight", ["1.5", [1.0], np.float32(0.5), None])
    def test_a_weight_add_edge_would_not_add_as_a_float_raises(self, weight):
        with pytest.raises(TypeError):
            RecordBatch.from_records([Timed(0.0, "a", "c", weight)], LabelTable())

    def test_take_and_concat(self):
        labels = LabelTable()
        batch = RecordBatch.from_records(self.records(), labels)
        head, tail = batch.take(slice(0, 1)), batch.take(np.array([2, 1]))
        joined = RecordBatch.concat([head, tail])
        assert joined.records() == [self.records()[i] for i in (0, 2, 1)]
        with pytest.raises(DatasetError):
            RecordBatch.concat([head, RecordBatch.from_records(self.records(), LabelTable())])

    def test_validate_names_the_first_bad_record(self):
        batch = RecordBatch.from_records(self.records() * 2, LabelTable())
        assert batch.validate() is batch
        batch.weight[4] = -1.0
        batch.time[5] = float("nan")
        with pytest.raises(DatasetError, match="record 4"):
            batch.validate()

    def test_canonical_is_the_identity_on_increasing_times(self):
        batch = RecordBatch.from_records(
            [EdgeRecord(float(t), "b", "a") for t in range(5)], LabelTable()
        )
        assert batch.canonical() is batch

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(
                EdgeRecord,
                st.sampled_from([0.0, -0.0, 1.0, 2.5, 3.0]),
                st.sampled_from(LABELS),
                st.sampled_from(LABELS),
                st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0]),
            ),
            max_size=40,
        ),
        st.lists(st.sampled_from(LABELS), max_size=5),
    )
    def test_canonical_sorts_as_canonical_order(self, records, interned_first):
        labels = LabelTable()
        labels.intern(interned_first)  # ids in an order unrelated to str order
        canonical = RecordBatch.from_records(records, labels).canonical().records()
        expected = canonical_order(records)
        assert [(r.time, r.src, r.dst, r.weight) for r in canonical] == [
            (r.time, r.src, r.dst, r.weight) for r in expected
        ]
        # Equal keys keep their input order, -0.0 and 0.0 included.
        assert [str(r) for r in canonical] == [str(r) for r in expected]


def test_first_occurrence():
    distinct, rank = first_occurrence(np.array([7, 3, 7, 5, 3]))
    assert distinct.tolist() == [7, 3, 5]
    assert rank.tolist() == [0, 1, 0, 2, 1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 6), max_size=30))
def test_first_occurrence_equals_the_dict_loop(values):
    # Values interned in order (0, then each new one max + 1) take a
    # shortcut; every array must give what a first-seen dict gives.
    seen = {}
    rank = [seen.setdefault(value, len(seen)) for value in values]
    distinct, got = first_occurrence(np.array(values, dtype=np.int32))
    assert distinct.tolist() == list(seen) and got.tolist() == rank
    interned = LabelTable().intern(values)
    distinct, got = first_occurrence(interned)
    assert distinct.tolist() == list(range(len(seen))) and got.tolist() == rank
