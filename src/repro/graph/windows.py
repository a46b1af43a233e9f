"""Time-window splitting and graph sequences.

The paper splits a trace into consecutive windows (five-day windows for the
flow data, "five consecutive time periods" for the query logs) and builds
one communication graph per window; persistence is always measured between
*consecutive* windows.  :class:`GraphSequence` is the ordered container the
rest of the library consumes.

Two construction paths exist:

- :func:`split_records_into_windows` re-aggregates every bucket from
  scratch (simple, stateless);
- :meth:`GraphSequence.from_sliding_records` drives a
  :class:`SlidingWindowAggregator` that advances ``G_t -> G_{t+1}`` by
  applying only the expiring and arriving records, and records the
  per-transition :class:`WindowDelta` so downstream signature computation
  can run incrementally.  Both paths produce identical graphs.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.batch import LabelTable, RecordBatch, first_occurrence
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records
from repro.graph.comm_graph import CommGraph
from repro.graph.delta import WindowDelta
from repro.graph.stream import EdgeRecord
from repro.types import NodeId

_TIME = operator.attrgetter("time")
_RECORD_ORDER = operator.attrgetter(*(spec.name for spec in fields(EdgeRecord)))
_LOW32 = (1 << 32) - 1


def window_index_of(time: float, start: float, width: float) -> int:
    """Bucket index of a record at ``time`` for windows ``[start + i*width,
    start + (i+1)*width)``.

    Boundary-safe: the naive ``int((time - start) / width)`` can round the
    quotient below an integer (e.g. ``start=0, width=0.7, time=6*0.7``
    gives ``5.999...`` -> bucket 5), dropping a record that sits exactly on
    a window's float-evaluated start boundary into the earlier window.
    This computes the index consistent with the boundary values
    ``start + i*width`` as actually evaluated in float arithmetic, so the
    documented "boundary goes to the later window" rule holds.
    """
    if width <= 0:
        return 0
    index = int((time - start) / width)
    # The division is only a first guess; correct it against the real
    # (float-evaluated, monotone in i) boundary positions.
    while index > 0 and start + index * width > time:
        index -= 1
    while start + (index + 1) * width <= time:
        index += 1
    return index


def record_times(records: Sequence[EdgeRecord]) -> np.ndarray:
    """The records' ``time`` fields as one float64 array."""
    return np.fromiter(map(_TIME, records), dtype=np.float64, count=len(records))


def canonical_order(records: Sequence[EdgeRecord]) -> Sequence[EdgeRecord]:
    """The window's records sorted: float aggregation is order-sensitive, so
    this makes the output invariant to delivery order (and byte-stable
    across resumes and rebuilds).

    The order is :class:`EdgeRecord`'s own (its fields in declaration
    order, time first), so when times strictly increase the sort is the
    identity and ``records`` come back as they are.  Otherwise the sort
    key builds each record's field tuple once, where comparing records
    builds two per comparison; the comparisons, and so the order, are the
    same.
    """
    times = record_times(records)
    if np.all(times[1:] > times[:-1]):
        return records
    return sorted(records, key=_RECORD_ORDER)


def window_indices(times: np.ndarray, start: float, width: float) -> np.ndarray:
    """:func:`window_index_of` of every time in ``times``, as an int64 array.

    Element for element the same float evaluation — the quotient guess,
    then the corrections against the float-evaluated boundaries
    ``start + i*width`` — so every index equals the scalar function's.
    """
    if width <= 0:
        return np.zeros(len(times), dtype=np.int64)
    quotient = (times - start) / width
    finite = np.isfinite(quotient)
    if not finite.all():
        # int() of a NaN or infinite quotient: raise the scalar error.
        window_index_of(float(times[~finite][0]), start, width)
    index = quotient.astype(np.int64)  # truncates toward zero, as int()
    while True:
        over = (index > 0) & (start + index * width > times)
        if not over.any():
            break
        index[over] -= 1
    while True:
        under = start + (index + 1) * width <= times
        if not under.any():
            break
        index[under] += 1
    return index


def bucket_records(
    records: Sequence[EdgeRecord],
    num_windows: int | None = None,
    window_length: float | None = None,
) -> List[List[EdgeRecord]]:
    """Split records into consecutive time windows, in record order.

    ``num_windows`` splits the observed time span into equal-width
    windows; ``window_length`` cuts fixed-length windows from the earliest
    time.  Records on a boundary go to the later window (by
    :func:`window_index_of`), except the final boundary, which closes the
    last window.  With neither given, times must be non-negative integer
    window indices (the interchange convention) and bucket ``i`` holds the
    records at time ``i``; gaps give empty buckets.  An empty input gives
    no buckets.
    """
    if num_windows is not None and window_length is not None:
        raise GraphError("specify at most one of num_windows or window_length")
    if not records:
        return []
    if not isinstance(records, list):
        records = list(records)
    times = record_times(records)
    if num_windows is None and window_length is None:
        if not (np.isfinite(times) & (times >= 0) & (times == np.floor(times))).all():
            raise GraphError("record times must be non-negative integer window indices")
        start, width, count = 0.0, 1.0, int(times.max()) + 1
    else:
        start, end = float(times.min()), float(times.max())
        span = end - start
        if num_windows is not None:
            if num_windows < 1:
                raise GraphError(f"num_windows must be >= 1, got {num_windows}")
            count = num_windows
            width = span / count if span > 0 else 1.0
        else:
            assert window_length is not None
            if window_length <= 0:
                raise GraphError(f"window_length must be positive, got {window_length}")
            width = window_length
            count = max(1, math.ceil(span / width)) if span > 0 else 1
    index = np.minimum(window_indices(times, start, width), count - 1)
    if np.all(index[1:] >= index[:-1]):
        # A time-ordered trace: every window is one slice of it.
        bounds = np.searchsorted(index, np.arange(count + 1)).tolist()
        return [records[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    order = np.argsort(index, kind="stable")
    bounds = np.searchsorted(index[order], np.arange(count + 1)).tolist()
    return [[records[i] for i in order[lo:hi].tolist()] for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class GraphSequence:
    """A chronological sequence of per-window communication graphs.

    ``labels`` are human-readable window names (e.g. ``"week-1"``); when
    omitted they default to ``"window-0"``, ``"window-1"``, ...

    ``deltas``, when present, holds one :class:`WindowDelta` per
    *transition*: ``deltas[i]`` describes ``graphs[i] -> graphs[i+1]``.
    Sequences built by :meth:`from_sliding_records` carry them; manually
    assembled sequences may leave them ``None``.
    """

    graphs: List[CommGraph]
    labels: List[str] = field(default_factory=list)
    deltas: Optional[List[WindowDelta]] = None

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = [f"window-{i}" for i in range(len(self.graphs))]
        if len(self.labels) != len(self.graphs):
            raise GraphError(
                f"{len(self.labels)} labels supplied for {len(self.graphs)} graphs"
            )
        if self.deltas is not None and len(self.deltas) != max(0, len(self.graphs) - 1):
            raise GraphError(
                f"{len(self.deltas)} deltas supplied for {len(self.graphs)} graphs "
                f"(expected one per consecutive transition)"
            )

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[CommGraph]:
        return iter(self.graphs)

    def __getitem__(self, index: int) -> CommGraph:
        return self.graphs[index]

    def consecutive_pairs(self) -> Iterator[Tuple[CommGraph, CommGraph]]:
        """Yield ``(G_t, G_{t+1})`` pairs, the unit of persistence measurement."""
        for index in range(len(self.graphs) - 1):
            yield self.graphs[index], self.graphs[index + 1]

    def delta_for(self, transition: int) -> Optional[WindowDelta]:
        """The :class:`WindowDelta` for ``graphs[transition] ->
        graphs[transition + 1]``, or ``None`` when deltas are not tracked."""
        if self.deltas is None:
            return None
        if not 0 <= transition < len(self.deltas):
            return None
        return self.deltas[transition]

    def common_nodes(self) -> List[NodeId]:
        """Nodes present in every window (a natural evaluation population).

        For delta-tracked (sliding) sequences this is maintained from the
        journal: a node misses some window iff it was removed at one of
        the recorded transitions, so the common set is the first window's
        nodes minus everything any delta removed — no per-window set
        intersections.
        """
        if not self.graphs:
            return []
        if self.deltas is not None and len(self.deltas) == len(self.graphs) - 1:
            dropped = set()
            for delta in self.deltas:
                dropped |= delta.removed_nodes
            return [node for node in self.graphs[0].nodes() if node not in dropped]
        common = set(self.graphs[0].nodes())
        for graph in self.graphs[1:]:
            common &= set(graph.nodes())
        # Preserve first-window ordering for determinism.
        return [node for node in self.graphs[0].nodes() if node in common]

    @classmethod
    def from_sliding_records(
        cls,
        records: Sequence[EdgeRecord],
        num_windows: int | None = None,
        window_length: float | None = None,
        bipartite: bool = False,
        window_buckets: int = 1,
    ) -> "GraphSequence":
        """Build a delta-tracked sequence by sliding over the record trace.

        Bucketing matches :func:`split_records_into_windows` exactly; each
        window graph covers the most recent ``window_buckets`` buckets
        (ramping up at the start).  With the default ``window_buckets=1``
        the graphs are identical to the stateless splitter's, but every
        transition additionally carries its :class:`WindowDelta`.
        """
        buckets, labels = _bucketize(records, num_windows, window_length)
        aggregator = SlidingWindowAggregator(
            window_buckets=window_buckets, bipartite=bipartite
        )
        graphs: List[CommGraph] = []
        deltas: List[WindowDelta] = []
        for index, bucket in enumerate(buckets):
            delta = aggregator.advance(RecordBatch.from_records(bucket, aggregator.labels))
            graphs.append(aggregator.graph.copy())
            if index > 0:
                # The first advance is empty-graph -> window 0, not a
                # window-to-window transition.
                deltas.append(delta)
        return cls(graphs=graphs, labels=labels, deltas=deltas)


class _Bucket(NamedTuple):
    """One bucket of a sliding window, as the aggregator needs it."""

    #: Per record, its edge as ``src << 32 | dst`` (int64), and its weight.
    keys: np.ndarray
    weight: np.ndarray
    #: Distinct edge keys in first-occurrence order.
    edges: np.ndarray
    #: Distinct node ids in first-occurrence order (source before
    #: destination), and the record endpoints touching each.
    nodes: np.ndarray
    node_counts: np.ndarray


def _bucket(batch: RecordBatch) -> _Bucket:
    keys = (batch.src.astype(np.int64) << 32) | batch.dst
    ends = np.empty(2 * len(batch), dtype=np.int32)
    ends[0::2], ends[1::2] = batch.src, batch.dst
    nodes, node_of = first_occurrence(ends)
    counts = np.bincount(node_of, minlength=len(nodes))
    return _Bucket(keys, batch.weight, first_occurrence(keys)[0], nodes, counts)


class SlidingWindowAggregator:
    """Advance ``G_t -> G_{t+1}`` by applying expiring and arriving records.

    Maintains a live graph over the ``window_buckets`` most recent record
    buckets, each a :class:`~repro.graph.batch.RecordBatch` interned into
    :attr:`labels` (pass one ``LabelTable`` to share it).  :meth:`advance`
    pushes the next bucket, expires the oldest, and updates only the
    affected edges — while journalling the mutations into a
    :class:`WindowDelta`.

    Exactness contract: the maintained graph is *identical* (same node
    set, same edge weights bit-for-bit) to re-aggregating the in-window
    records from scratch.  Floating-point subtraction cannot guarantee
    that, so instead of subtracting expired weights the aggregator keeps
    every in-window bucket's columns and re-accumulates affected edges in
    record order — the same ``+=`` sequence
    :func:`repro.graph.builders.aggregate_records` performs.
    """

    def __init__(
        self,
        window_buckets: int = 1,
        bipartite: bool = False,
        labels: Optional[LabelTable] = None,
    ) -> None:
        if window_buckets < 1:
            raise GraphError(f"window_buckets must be >= 1, got {window_buckets}")
        self.window_buckets = window_buckets
        self.bipartite = bipartite
        self.labels = labels if labels is not None else LabelTable()
        self.graph: CommGraph = BipartiteGraph() if bipartite else CommGraph()
        self._buckets: Deque[_Bucket] = deque()
        # In-window record-endpoint counts by node id; a node leaves V
        # when its count returns to 0.
        self._node_refs = np.zeros(0, dtype=np.int64)

    @property
    def buckets_held(self) -> int:
        """Number of buckets currently inside the window (ramp-up aware)."""
        return len(self._buckets)

    def advance(self, batch: RecordBatch) -> WindowDelta:
        """Slide the window forward by one bucket of records.

        Returns the :class:`WindowDelta` describing the transition of
        :attr:`graph` (old state -> new state).
        """
        if batch.labels is not self.labels:
            raise GraphError("the batch is interned into another label table")
        arriving = _bucket(batch)
        # Arriving edges by first *positive* contribution: fresh
        # aggregation inserts an edge into its adjacency rows at its first
        # positive-weight record (zero-weight records only materialise
        # endpoints), so this — not first occurrence — is the row position
        # the rebuild below must reproduce.
        first_positive = first_occurrence(arriving.keys[batch.weight > 0])[0]
        expiring = None
        if len(self._buckets) == self.window_buckets:
            expiring = self._buckets.popleft()
        self._buckets.append(arriving)

        # Expiring-only edges first, then arriving edges in
        # first-positive-contribution order (zero-only arrivals last —
        # they create no row entry).  ``set_edge_weight`` repositions an
        # edge to the end of its adjacency rows, so with
        # ``window_buckets=1`` (where every surviving edge is arriving) the
        # rebuilt rows list destinations in exactly the insertion order
        # fresh aggregation produces, keeping even order-sensitive float
        # reductions over the rows bitwise identical across the two
        # construction paths.
        affected = [
            first_positive,
            arriving.edges[~np.isin(arriving.edges, first_positive)],
        ]
        if expiring is not None:
            affected.insert(0, expiring.edges[~np.isin(expiring.edges, arriving.edges)])
        affected_edges = np.concatenate(affected)
        updates = list(
            zip(
                zip(
                    self.labels.labels_of(affected_edges >> 32),
                    self.labels.labels_of(affected_edges & _LOW32),
                ),
                self._window_totals(affected_edges),
            )
        )

        graph = self.graph
        graph.begin_delta_journal()
        try:
            if not graph._set_edge_weights(updates):
                # The per-edge calls: the reference, and the path that
                # raises at the right edge.
                for (src, dst), total in updates:
                    if total is not None:
                        graph.set_edge_weight(src, dst, total)
                    elif graph.has_edge(src, dst):
                        graph.remove_edge(src, dst)

            refs = self._node_refs
            if len(refs) < len(self.labels):
                refs = self._node_refs = np.pad(refs, (0, len(self.labels) - len(refs)))
            if expiring is not None:
                # Clamped: a bucket whose advance raised never counted.
                refs[expiring.nodes] = np.maximum(
                    refs[expiring.nodes] - expiring.node_counts, 0
                )
            refs[arriving.nodes] += arriving.node_counts
            if expiring is not None:
                gone = expiring.nodes[refs[expiring.nodes] == 0]
                for node in self.labels.labels_of(gone):
                    if node in graph:
                        # Every record touching the node expired; all its
                        # edges were removed above, so this only drops the
                        # (now isolated) node from V.
                        graph.remove_node(node)
        finally:
            delta = graph.end_delta_journal()
        return delta

    def _window_totals(self, edges: np.ndarray) -> List[Optional[float]]:
        """Each edge's in-window total, or ``None`` for an edge with no
        in-window record (the update that removes it).

        Every edge sums its records' weights from ``0.0`` in bucket and
        record order; ``np.add.at`` adds unbuffered in index order, so each
        total is bitwise the sequential ``+=`` of fresh aggregation.
        Zero-weight records still count: their edge stays, with weight 0.
        """
        window_edges, edge_of = np.unique(
            np.concatenate([bucket.keys for bucket in self._buckets]), return_inverse=True
        )
        sums = np.zeros(len(window_edges))
        np.add.at(sums, edge_of, np.concatenate([bucket.weight for bucket in self._buckets]))
        found = np.isin(edges, window_edges)
        totals = np.zeros(len(edges))
        totals[found] = sums[np.searchsorted(window_edges, edges[found])]
        return [
            total if present else None
            for total, present in zip(totals.tolist(), found.tolist())
        ]


def _bucketize(
    records: Sequence[EdgeRecord],
    num_windows: int | None,
    window_length: float | None,
) -> Tuple[List[List[EdgeRecord]], List[str]]:
    """Shared bucketing for the stateless and sliding window builders."""
    if (num_windows is None) == (window_length is None):
        raise GraphError("specify exactly one of num_windows or window_length")
    if not records:
        raise GraphError("cannot window an empty record trace")
    buckets = bucket_records(records, num_windows, window_length)
    return buckets, [f"window-{i}" for i in range(len(buckets))]


def split_records_into_windows(
    records: Sequence[EdgeRecord],
    num_windows: int | None = None,
    window_length: float | None = None,
    bipartite: bool = False,
) -> GraphSequence:
    """Split a record trace into consecutive time windows and aggregate each.

    Exactly one of ``num_windows`` (equal-width split of the observed time
    span) or ``window_length`` (fixed-duration windows from the earliest
    timestamp) must be given.  Records on a boundary go to the later
    window, except the final boundary which closes the last window.
    """
    buckets, labels = _bucketize(records, num_windows, window_length)
    graphs = [aggregate_records(bucket, bipartite=bipartite) for bucket in buckets]
    return GraphSequence(graphs=graphs, labels=labels)
