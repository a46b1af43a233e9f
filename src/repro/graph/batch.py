"""Edge records as columns over one shared label table.

A :class:`RecordBatch` holds records as four arrays — float64 ``time`` and
``weight``, int32 ``src`` and ``dst`` — whose ids index a
:class:`LabelTable`.  The service parses ``/ingest`` straight into
batches and routes, logs, aggregates and sketches them without a Python
object per record; the pipeline converts each window's records with
:meth:`RecordBatch.from_records`.  :class:`~repro.graph.stream.EdgeRecord`
stays the reference representation: :meth:`RecordBatch.records` turns a
batch back into records.
"""

from __future__ import annotations

import operator
import threading
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, DefaultDict, Hashable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import DatasetError
from repro.graph.stream import EdgeRecord

_TIME = operator.attrgetter("time")
_SRC = operator.attrgetter("src")
_DST = operator.attrgetter("dst")
_WEIGHT = operator.attrgetter("weight")


def first_occurrence(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, rank)``: the distinct ``values`` in first-occurrence
    order, and for each value the position of its distinct value there."""
    if len(values) and values[0] == 0 and values.min() >= 0:
        seen = np.maximum.accumulate(values)
        if np.all(values[1:] <= seen[:-1] + 1):
            # Every new value is one more than all before it (ids of a
            # table the values were interned into in order): the distinct
            # values are 0..max, already in first-occurrence order.
            return np.arange(seen[-1] + 1, dtype=values.dtype), values.astype(np.intp)
    unique, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(unique), dtype=np.intp)
    rank[order] = np.arange(len(unique))
    return unique[order], rank[inverse]


def dense_ranks(values: np.ndarray, keys_of: Callable[[np.ndarray], List]) -> np.ndarray:
    """For each of ``values`` (ids), the rank of its key among the keys of
    the distinct values (``keys_of(ids)`` lists the keys of ``ids``);
    equal keys share a rank."""
    ids, inverse = np.unique(values, return_inverse=True)
    keys = keys_of(ids)
    rank_of = dict(zip(sorted(set(keys)), range(len(keys))))
    return np.fromiter(map(rank_of.__getitem__, keys), dtype=np.intp, count=len(keys))[inverse]


class LabelTable:
    """Append-only mapping between node labels and dense int32 ids.

    Labels that compare equal share one id, represented by the object
    interned first (as a dict keeps its first key).  Any number of threads
    may intern at once: each call runs under a lock, and a label is stored
    before any reader can see its id, so every id a reader can see maps
    back to its label.  A call that raises adds no label.
    :meth:`fingerprints` adds each label's
    ``stable_hash64`` (8 B per label), computed on first use.  A table
    never forgets a label; :meth:`RecordBatch.interned_into` moves a batch
    into another table, such as a fresh one.
    """

    def __init__(self) -> None:
        # A missing label takes the next id as it is looked up, so one
        # lookup per label both assigns and finds its id.
        self._ids: DefaultDict[Hashable, int] = defaultdict(count().__next__)
        self._labels: List[Hashable] = []
        self._lock = threading.Lock()
        self._fingerprint_lock = threading.Lock()
        self._fingerprints = np.zeros(0, dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, ident: int) -> Hashable:
        return self._labels[ident]

    def __iter__(self) -> Iterator[Hashable]:
        """The labels in id order."""
        return iter(self._labels)

    def labels_of(self, ids: np.ndarray) -> List[Hashable]:
        """The labels of ``ids``, in order."""
        return list(map(self._labels.__getitem__, ids.tolist()))

    def ids_of(self, labels: Iterable[Hashable]) -> np.ndarray:
        """The ids of ``labels`` (int64, in order), ``-1`` for a label not
        in the table; adds nothing."""
        stored = len(self._labels)
        get = self._ids.get
        ids = np.array([get(label, -1) for label in labels], dtype=np.int64)
        # An id past the labels stored before the lookups belongs to a
        # call still interning: its label is not in the table yet.
        ids[ids >= stored] = -1
        return ids

    def intern(self, labels: Iterable[Hashable]) -> np.ndarray:
        """The ids of ``labels`` (int32, in order), adding new labels in
        first-occurrence order."""
        if not isinstance(labels, (list, tuple)):
            labels = list(labels)
        ids = self._ids
        with self._lock:
            start = len(self._labels)
            try:
                found = np.fromiter(
                    map(ids.__getitem__, labels), dtype=np.int32, count=len(labels)
                )
            except BaseException:
                # Forget the labels this call added and reuse their ids.
                for _ in range(len(ids) - start):
                    ids.popitem()
                ids.default_factory = count(start).__next__
                raise
            # The labels this call added are the map's newest keys.
            self._labels.extend(reversed(list(islice(reversed(ids), len(ids) - start))))
        return found

    def fingerprints(self) -> np.ndarray:
        """Every label's ``stable_hash64`` as a uint64 array indexed by id.

        The column is extended for labels interned since the last call and
        replaced, never written in place, so a returned array stays valid.
        """
        from repro.streaming.hashing import stable_hash64

        with self._fingerprint_lock:
            done, count = len(self._fingerprints), len(self._labels)
            if done < count:
                fresh = np.fromiter(
                    map(stable_hash64, self._labels[done:count]),
                    dtype=np.uint64,
                    count=count - done,
                )
                self._fingerprints = np.concatenate([self._fingerprints, fresh])
            return self._fingerprints


def _weight_column(weights: List) -> np.ndarray:
    column = np.array(weights)
    if column.ndim != 1 or column.dtype != np.float64 and column.dtype.kind not in "biu":
        raise TypeError("record weights must be floats, ints or bools")
    return column.astype(np.float64, copy=False)


def validate_columns(time: np.ndarray, weight: np.ndarray) -> None:
    """Raise :class:`DatasetError` naming the first record whose time is
    not finite or whose weight is not finite and non-negative."""
    bad = ~(np.isfinite(time) & np.isfinite(weight) & (weight >= 0))
    if bad.any():
        row = int(np.argmax(bad))
        raise DatasetError(
            f"record {row}: time must be finite and weight finite and "
            f"non-negative, got time={time[row]!r} weight={weight[row]!r}"
        )


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """Edge records as columns: ``time``/``weight`` float64, ``src``/``dst``
    int32 ids into ``labels``."""

    time: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    labels: LabelTable

    def __len__(self) -> int:
        return len(self.time)

    @property
    def nbytes(self) -> int:
        """Bytes held by the four columns (24 per record)."""
        return self.time.nbytes + self.src.nbytes + self.dst.nbytes + self.weight.nbytes

    @classmethod
    def from_records(cls, records: Sequence[EdgeRecord], labels: LabelTable) -> "RecordBatch":
        """The batch of ``records`` (duck-typed: ``time``, ``src``, ``dst``
        and ``weight`` attributes), in order, interned into ``labels``.

        Labels are interned in record order, each source before its
        destination, as ``add_edge`` meets them.  A weight that is not a
        float, an int or a bool raises ``TypeError``: ``add_edge`` would
        not add it as a float.
        """
        if not isinstance(records, (list, tuple)):
            records = list(records)
        count = len(records)
        ends: List[Hashable] = [None] * (2 * count)
        ends[0::2] = map(_SRC, records)
        ends[1::2] = map(_DST, records)
        ids = labels.intern(ends)
        return cls(
            time=np.fromiter(map(_TIME, records), dtype=np.float64, count=count),
            src=ids[0::2].copy(),
            dst=ids[1::2].copy(),
            weight=_weight_column(list(map(_WEIGHT, records))),
            labels=labels,
        )

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """The batches' records one after another (one shared table)."""
        if len(batches) == 1:
            return batches[0]
        labels = batches[0].labels
        if any(batch.labels is not labels for batch in batches):
            raise DatasetError("cannot concatenate batches of different label tables")
        return cls(
            *(
                np.concatenate([getattr(batch, name) for batch in batches])
                for name in ("time", "src", "dst", "weight")
            ),
            labels=labels,
        )

    def take(self, index) -> "RecordBatch":
        """The records at ``index`` (a slice or an index array), in its order."""
        return RecordBatch(
            self.time[index], self.src[index], self.dst[index], self.weight[index], self.labels
        )

    def interned_into(self, labels: LabelTable) -> "RecordBatch":
        """The batch over ``labels``: itself when it already is, else with
        its labels interned there."""
        if self.labels is labels:
            return self
        ends, inverse = np.unique(np.concatenate([self.src, self.dst]), return_inverse=True)
        ids = labels.intern(self.labels.labels_of(ends))[inverse]
        return RecordBatch(self.time, ids[: len(self)], ids[len(self) :], self.weight, labels)

    def records(self) -> List[EdgeRecord]:
        """The batch as :class:`EdgeRecord` objects (the reference form)."""
        return [
            EdgeRecord(time, src, dst, weight)
            for time, src, dst, weight in zip(
                self.time.tolist(),
                self.labels.labels_of(self.src),
                self.labels.labels_of(self.dst),
                self.weight.tolist(),
            )
        ]

    def validate(self) -> "RecordBatch":
        """The batch itself, once every time is finite and every weight
        finite and non-negative; else :class:`DatasetError` names the
        first record that is not."""
        validate_columns(self.time, self.weight)
        return self

    def canonical(self) -> "RecordBatch":
        """The records in :class:`EdgeRecord` order, as ``canonical_order``
        sorts a record list (for valid records, see :meth:`validate`).

        Float aggregation is order-sensitive, so this makes window output
        invariant to delivery order.  When times strictly increase the
        batch is already in order and comes back as it is.  Otherwise the
        records are lexsorted by (time, src label, dst label, weight), with
        labels ranked in their own (``str``) order; the sort is stable, as
        ``sorted`` is.
        """
        time = self.time
        if np.all(time[1:] > time[:-1]):
            return self
        rank = dense_ranks(np.concatenate([self.src, self.dst]), self.labels.labels_of)
        order = np.lexsort((self.weight, rank[len(self) :], rank[: len(self)], time))
        return self.take(order)
