"""Semi-streaming signature builders (Section VI of the paper).

Both builders consume a one-pass stream of ``(src, dst, weight)``
observations, keeping only constant-size summary state per *node*:

* :class:`StreamingTopTalkers` — per source: a Count-Min sketch of its
  outgoing edge weights plus a SpaceSaving candidate set (the CM sketch
  estimates any candidate's weight; SpaceSaving bounds which candidates we
  can enumerate), and the exact scalar out-volume.
* :class:`StreamingUnexpectedTalkers` — additionally one Flajolet-Martin
  sketch per *destination* to estimate its in-degree ``|I(j)|``; the
  signature weight is the paper's ``~C[i,j] / ~|I(j)|`` combination of the
  two estimates.

Both expose ``signature(node)`` returning a
:class:`~repro.core.signature.Signature` compatible with the exact schemes,
so every downstream distance/property/application works unchanged on
streamed signatures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.core.signature import Signature
from repro.exceptions import StreamingError
from repro.graph.batch import RecordBatch, first_occurrence
from repro.streaming.countmin import CountMinSketch
from repro.streaming.fm import FlajoletMartin
from repro.streaming.spacesaving import SpaceSaving
from repro.types import NodeId, Weight


class StreamingTopTalkers:
    """One-pass approximate Top Talkers signatures.

    ``candidate_capacity`` bounds the per-source candidate set; it should
    comfortably exceed ``k`` (default: ``8 * k``) so SpaceSaving churn
    cannot evict a genuine top-k destination.
    """

    def __init__(
        self,
        k: int = 10,
        epsilon: float = 0.005,
        delta: float = 0.01,
        candidate_capacity: int | None = None,
        seed: int = 0,
    ) -> None:
        if k < 1:
            raise StreamingError(f"k must be >= 1, got {k}")
        self.k = k
        self.epsilon = epsilon
        self.delta = delta
        self.candidate_capacity = candidate_capacity or 8 * k
        if self.candidate_capacity < k:
            raise StreamingError("candidate_capacity must be >= k")
        self.seed = seed
        self._sketches: Dict[NodeId, CountMinSketch] = {}
        self._candidates: Dict[NodeId, SpaceSaving] = {}
        self._out_volume: Dict[NodeId, float] = {}

    # ------------------------------------------------------------------
    def observe(self, src: NodeId, dst: NodeId, weight: Weight = 1.0) -> None:
        """Process one communication observation."""
        if weight < 0:
            raise StreamingError(f"weight must be non-negative, got {weight}")
        if weight == 0 or src == dst:
            return
        if src not in self._sketches:
            self._sketches[src] = CountMinSketch(
                epsilon=self.epsilon, delta=self.delta, seed=self.seed
            )
            self._candidates[src] = SpaceSaving(self.candidate_capacity)
            self._out_volume[src] = 0.0
        self._sketches[src].update(dst, weight)
        self._candidates[src].update(dst, weight)
        self._out_volume[src] += weight

    def observe_stream(
        self, stream: Iterable[Tuple[NodeId, NodeId, Weight]]
    ) -> None:
        """Process a whole stream of ``(src, dst, weight)`` triples."""
        for src, dst, weight in stream:
            self.observe(src, dst, weight)

    def observe_records(self, records: Iterable) -> None:
        """Process :class:`~repro.graph.stream.EdgeRecord` objects, one
        :meth:`observe` call per record, in order.

        Duck-typed: anything with ``src``/``dst``/``weight`` works.  This
        is the reference the bulk :meth:`observe_batch` is checked
        against; the service's sketch tier and the pipeline's degraded
        windows build through :meth:`observe_batch`.
        """
        for record in records:
            self.observe(record.src, record.dst, record.weight)

    def observe_batch(self, batch) -> None:
        """Build this empty builder's state from a column batch
        (:class:`~repro.graph.batch.RecordBatch`): exactly the state one
        :meth:`observe` call per record builds, for labels that are equal
        only when they hash alike (``str`` labels, as the service's and
        the CSV reader's are).  Labels that compare equal share one id in
        the label table, so ``1``, ``1.0`` and ``True`` are one Count-Min
        column here, as they are one node of an exact graph.  Weights must
        be non-negative numbers.

        Records are grouped by source with a stable argsort on each
        source's first-record rank, so every source keeps its records in
        order.  One ``np.add.at`` fills every source's Count-Min table from
        the label table's fingerprints, and each source's total (its
        Count-Min total, SpaceSaving total and out-volume) and each of its
        destinations' SpaceSaving count are sums from ``0.0`` in record
        order, also by ``np.add.at``.  A source with more distinct
        destinations than ``candidate_capacity`` updates its SpaceSaving
        counter one record at a time, as :meth:`observe` does.
        """
        if self._sketches:
            raise StreamingError("observe_batch needs an empty builder")
        if not (batch.weight >= 0).all():
            raise StreamingError("weights must be non-negative numbers")
        labels = batch.labels
        counted = (batch.weight != 0) & (batch.src != batch.dst)
        dst, weight = batch.dst[counted], batch.weight[counted]
        sources, group = first_occurrence(batch.src[counted])
        if not len(sources):
            return
        totals = np.zeros(len(sources))
        np.add.at(totals, group, weight)
        sketches = [self._empty_sketch() for _source in sources]
        family, depth = sketches[0]._hashes, sketches[0].depth
        hashed, column_of = np.unique(dst, return_inverse=True)
        columns = family.hash_columns(labels.fingerprints()[hashed]).astype(np.intp)
        tables = np.zeros((len(sources), depth, sketches[0].width))
        np.add.at(tables, (group, np.arange(depth)[:, None], columns[:, column_of]), weight)
        # Each source's distinct destinations, first-record order, summed.
        pairs, pair_of = first_occurrence((group.astype(np.int64) << 32) | dst)
        pair_sums = np.zeros(len(pairs))
        np.add.at(pair_sums, pair_of, weight)
        by_source = np.argsort(pairs >> 32, kind="stable")
        pair_bounds = np.searchsorted((pairs >> 32)[by_source], np.arange(len(sources) + 1))
        pair_labels = labels.labels_of((pairs & 0xFFFFFFFF)[by_source])
        pair_sums = pair_sums[by_source].tolist()
        records = np.argsort(group, kind="stable")
        record_bounds = np.searchsorted(group[records], np.arange(len(sources) + 1))
        capacity = self.candidate_capacity
        for index, (source, total) in enumerate(zip(labels.labels_of(sources), totals.tolist())):
            sketch = sketches[index]
            sketch._table, sketch._total = tables[index], total
            candidates = SpaceSaving(capacity)
            lo, hi = pair_bounds[index], pair_bounds[index + 1]
            if hi - lo <= capacity:
                candidates._load_distinct(pair_labels[lo:hi], pair_sums[lo:hi], total)
            else:
                rows = records[record_bounds[index]:record_bounds[index + 1]]
                candidates._update_many(labels.labels_of(dst[rows]), weight[rows].tolist())
            self._sketches[source] = sketch
            self._candidates[source] = candidates
            self._out_volume[source] = total

    # ------------------------------------------------------------------
    def estimated_edge_weight(self, src: NodeId, dst: NodeId) -> float:
        """CM estimate of ``C[src, dst]`` (0 when the source is unknown)."""
        sketch = self._sketches.get(src)
        return sketch.estimate(dst) if sketch is not None else 0.0

    def signature(self, node: NodeId) -> Signature:
        """Approximate TT signature of ``node`` from the summaries."""
        if node not in self._sketches:
            return Signature(node, {})
        volume = self._out_volume[node]
        if volume <= 0:
            return Signature(node, {})
        sketch = self._sketches[node]
        relevance = {
            candidate: sketch.estimate(candidate) / volume
            for candidate, _count, _error in self._candidates[node].items()
            if candidate != node
        }
        return Signature.from_relevance(node, relevance, self.k)

    def memory_cells(self) -> int:
        """Total counters/slots held across all per-node summaries."""
        cells = 0
        for sketch in self._sketches.values():
            cells += sketch.memory_cells()
        for candidates in self._candidates.values():
            cells += candidates.memory_cells()
        return cells + len(self._out_volume)

    @property
    def sources(self) -> Tuple[NodeId, ...]:
        """All sources seen so far."""
        return tuple(self._sketches)

    # ------------------------------------------------------------------
    def _empty_sketch(self) -> CountMinSketch:
        return CountMinSketch(epsilon=self.epsilon, delta=self.delta, seed=self.seed)


class StreamingUnexpectedTalkers(StreamingTopTalkers):
    """One-pass approximate Unexpected Talkers signatures.

    Extends the TT state with a per-destination FM sketch of distinct
    sources; the signature weight for candidate ``j`` is
    ``CM_estimate(C[i, j]) / FM_estimate(|I(j)|)``.
    """

    def __init__(
        self,
        k: int = 10,
        epsilon: float = 0.005,
        delta: float = 0.01,
        candidate_capacity: int | None = None,
        fm_registers: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(
            k=k,
            epsilon=epsilon,
            delta=delta,
            candidate_capacity=candidate_capacity,
            seed=seed,
        )
        if fm_registers < 1:
            raise StreamingError(f"fm_registers must be >= 1, got {fm_registers}")
        self.fm_registers = fm_registers
        self._indegree: Dict[NodeId, FlajoletMartin] = {}

    def observe(self, src: NodeId, dst: NodeId, weight: Weight = 1.0) -> None:
        super().observe(src, dst, weight)
        if weight == 0:
            return
        # Self-loops are excluded from the numerator (Definition 1) by the
        # base class, but a self-loop source *does* count toward the
        # destination's in-degree — matching exact ``CommGraph.in_degree``.
        if dst not in self._indegree:
            self._indegree[dst] = self._empty_fm()
        self._indegree[dst].add(src)

    def observe_batch(self, batch) -> None:
        if self._indegree:
            raise StreamingError("observe_batch needs an empty builder")
        super().observe_batch(batch)
        # Each distinct (src, dst) pair of a non-zero record, self-loops
        # included, is added once; destinations in first-pair order.
        nonzero = batch.weight != 0
        pairs = first_occurrence(
            (batch.src[nonzero].astype(np.int64) << 32) | batch.dst[nonzero]
        )[0]
        destinations, destination_of = first_occurrence(pairs & 0xFFFFFFFF)
        if not len(destinations):
            return
        registers, bits = self._empty_fm()._cells(batch.labels.fingerprints()[pairs >> 32])
        bitmaps = np.zeros((len(destinations), self.fm_registers), dtype=np.uint64)
        np.bitwise_or.at(bitmaps, (destination_of, registers), bits)
        for index, dst in enumerate(batch.labels.labels_of(destinations)):
            sketch = self._indegree[dst] = self._empty_fm()
            sketch._bitmaps = bitmaps[index]

    def estimated_in_degree(self, node: NodeId) -> float:
        """FM estimate of ``|I(node)|`` (0 when never seen as a destination)."""
        sketch = self._indegree.get(node)
        return sketch.estimate() if sketch is not None else 0.0

    def signature(self, node: NodeId) -> Signature:
        if node not in self._sketches:
            return Signature(node, {})
        sketch = self._sketches[node]
        relevance = {}
        for candidate, _count, _error in self._candidates[node].items():
            if candidate == node:
                continue
            in_degree = self.estimated_in_degree(candidate)
            if in_degree <= 0:
                continue
            relevance[candidate] = sketch.estimate(candidate) / in_degree
        return Signature.from_relevance(node, relevance, self.k)

    def memory_cells(self) -> int:
        cells = super().memory_cells()
        for sketch in self._indegree.values():
            cells += sketch.memory_cells()
        return cells

    # ------------------------------------------------------------------
    def _empty_fm(self) -> FlajoletMartin:
        return FlajoletMartin(num_registers=self.fm_registers, seed=self.seed)


#: Schemes with a streaming builder of their own; :func:`streaming_builder`
#: approximates every other scheme with Top Talkers.
SKETCHABLE_SCHEMES = ("tt", "ut")


def streaming_builder(scheme: str, **sizing) -> StreamingTopTalkers:
    """The one-pass builder approximating the scheme named ``scheme``:
    Unexpected Talkers for ``"ut"``, Top Talkers for every other scheme.

    ``sizing`` is the caller's constructor arguments; ``fm_registers``
    sizes the UT in-degree sketches and is dropped for Top Talkers.
    """
    if scheme == "ut":
        return StreamingUnexpectedTalkers(**sizing)
    sizing.pop("fm_registers", None)
    return StreamingTopTalkers(**sizing)


def sketch_window(
    scheme: str, buckets: Sequence[RecordBatch], **sizing
) -> StreamingTopTalkers:
    """The one-pass sketch of one window, the degraded tier of both the
    pipeline and the service: one :func:`streaming_builder` (``sizing`` as
    there) and one ``observe_batch`` over the window's records.

    ``buckets`` are the window's record batches, each in canonical order
    (:meth:`~repro.graph.batch.RecordBatch.canonical`) and interned into
    one label table; their records are observed with the buckets
    concatenated in order, the order in which the exact tier aggregates
    them.
    """
    builder = streaming_builder(scheme, **sizing)
    builder.observe_batch(RecordBatch.concat(buckets))
    return builder
