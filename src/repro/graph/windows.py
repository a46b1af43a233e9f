"""Time-window splitting and graph sequences.

The paper splits a trace into consecutive windows (five-day windows for the
flow data, "five consecutive time periods" for the query logs) and builds
one communication graph per window; persistence is always measured between
*consecutive* windows.  :class:`GraphSequence` is the ordered container the
rest of the library consumes.

Every window graph is built by ``aggregate_records``, two ways round:

- :func:`split_records_into_windows` aggregates every bucket on its own
  (simple, stateless);
- :class:`SlidingWindowAggregator` builds each window graph as its
  bucket arrives (the service shards advance one per window close).

Both produce identical graphs, node and row orders included.  A window's
graph, and so its signatures, depend only on that window's records;
combining several windows is :func:`~repro.graph.builders.combine_with_decay`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.batch import RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records
from repro.graph.comm_graph import CommGraph
from repro.graph.stream import EdgeRecord
from repro.types import NodeId

_TIME = operator.attrgetter("time")
_RECORD_ORDER = operator.attrgetter(*(spec.name for spec in fields(EdgeRecord)))


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
    same.  The program sorts windows as columns
    (:meth:`~repro.graph.batch.RecordBatch.canonical`); this is the
    reference that method is tested against.
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
    """

    graphs: List[CommGraph]
    labels: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = [f"window-{i}" for i in range(len(self.graphs))]
        if len(self.labels) != len(self.graphs):
            raise GraphError(
                f"{len(self.labels)} labels supplied for {len(self.graphs)} graphs"
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

    def common_nodes(self) -> List[NodeId]:
        """Nodes present in every window (a natural evaluation population)."""
        if not self.graphs:
            return []
        common = set(self.graphs[0].nodes())
        for graph in self.graphs[1:]:
            common &= set(graph.nodes())
        # Preserve first-window ordering for determinism.
        return [node for node in self.graphs[0].nodes() if node in common]


class SlidingWindowAggregator:
    """The graph of the latest window, built from that window's bucket alone.

    Each bucket is a :class:`~repro.graph.batch.RecordBatch`; :meth:`advance`
    builds the window's graph afresh with ``aggregate_records`` of its
    columns, so :attr:`graph` is identical to one
    :meth:`~repro.graph.comm_graph.GraphBuilder.add_edge` call per record,
    in record order — node order, out-row and in-row order, weights bit
    for bit, edge count and bipartite sides — and never depends on the
    windows before it.
    """

    # A class with ``advance``: the end-to-end benchmark's tracer wraps it as ``graph.advance``.

    def __init__(self, bipartite: bool = False) -> None:
        self.bipartite = bipartite
        self.graph: CommGraph = BipartiteGraph() if bipartite else CommGraph()

    def advance(self, batch: RecordBatch) -> None:
        """Build the next window's :attr:`graph` from its bucket.

        When a record cannot be added (a bipartite orientation violation,
        a negative weight), the error is the one the per-record builder
        raises, and :attr:`graph` is left as it was.
        """
        self.graph = aggregate_records(batch, self.bipartite)


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
    if (num_windows is None) == (window_length is None):
        raise GraphError("specify exactly one of num_windows or window_length")
    if not records:
        raise GraphError("cannot window an empty record trace")
    buckets = bucket_records(records, num_windows, window_length)
    return GraphSequence(
        graphs=[aggregate_records(bucket, bipartite=bipartite) for bucket in buckets],
        labels=[f"window-{i}" for i in range(len(buckets))],
    )
