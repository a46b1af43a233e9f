"""Edge records as columns over one shared label table.

A :class:`RecordBatch` holds records as four arrays — float64 ``time`` and
``weight``, int32 ``src`` and ``dst`` — whose ids index a
:class:`LabelTable`.  The service parses ``/ingest`` straight into
batches and routes, logs, aggregates and sketches them without a Python
object per record; the incremental pipeline converts its window buckets
with :meth:`RecordBatch.from_records`.  :class:`~repro.graph.stream.EdgeRecord`
stays the reference representation: :meth:`RecordBatch.records` turns a
batch back into records.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

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
    unique, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(unique), dtype=np.intp)
    rank[order] = np.arange(len(unique))
    return unique[order], rank[inverse]


class LabelTable:
    """Append-only mapping between node labels and dense int32 ids.

    Labels that compare equal share one id, represented by the object
    interned first (as a dict keeps its first key).  Any number of threads
    may intern at once: new labels are added under a lock, and a label is
    stored before its id is published, so every id a reader can see maps
    back to its label.  :meth:`fingerprints` adds each label's
    ``stable_hash64`` (8 B per label), computed on first use.
    """

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []
        self._lock = threading.Lock()
        self._fingerprint_lock = threading.Lock()
        self._fingerprints = np.zeros(0, dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, ident: int) -> Hashable:
        return self._labels[ident]

    def labels_of(self, ids: np.ndarray) -> List[Hashable]:
        """The labels of ``ids``, in order."""
        return list(map(self._labels.__getitem__, ids.tolist()))

    def ids_of(self, labels: Iterable[Hashable]) -> np.ndarray:
        """The ids of ``labels`` (int64, in order), ``-1`` for a label not
        in the table; adds nothing."""
        get = self._ids.get
        return np.array([get(label, -1) for label in labels], dtype=np.int64)

    def intern(self, labels: Iterable[Hashable]) -> np.ndarray:
        """The ids of ``labels`` (int32, in order), adding new labels."""
        if not isinstance(labels, (list, tuple)):
            labels = list(labels)
        ids = list(map(self._ids.get, labels))
        missing = [index for index, ident in enumerate(ids) if ident is None]
        if missing:
            with self._lock:
                for index in missing:
                    label = labels[index]
                    ident = self._ids.get(label)
                    if ident is None:
                        ident = len(self._labels)
                        self._labels.append(label)
                        self._ids[label] = ident
                    ids[index] = ident
        return np.array(ids, dtype=np.int32)

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
        and ``weight`` attributes), in order, interned into ``labels``."""
        if not isinstance(records, (list, tuple)):
            records = list(records)
        count = len(records)
        return cls(
            time=np.fromiter(map(_TIME, records), dtype=np.float64, count=count),
            src=labels.intern(list(map(_SRC, records))),
            dst=labels.intern(list(map(_DST, records))),
            weight=np.fromiter(map(_WEIGHT, records), dtype=np.float64, count=count),
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
        bad = ~(np.isfinite(self.time) & np.isfinite(self.weight) & (self.weight >= 0))
        if bad.any():
            row = int(np.argmax(bad))
            raise DatasetError(
                f"record {row}: time must be finite and weight finite and "
                f"non-negative, got time={self.time[row]!r} weight={self.weight[row]!r}"
            )
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
        ids = np.unique(np.concatenate([self.src, self.dst]))
        ranked = sorted(ids.tolist(), key=self.labels.__getitem__)
        rank = np.empty(len(ids), dtype=np.intp)
        rank[np.searchsorted(ids, ranked)] = np.arange(len(ids))
        order = np.lexsort(
            (
                self.weight,
                rank[np.searchsorted(ids, self.dst)],
                rank[np.searchsorted(ids, self.src)],
                time,
            )
        )
        return self.take(order)
