"""Memory-budgeted sketch tier: exact hot set, sketched long tail.

The paper's Section VI semi-streaming tier promoted from a degradation
fallback to a first-class compute engine:
``scheme.compute_all(graph, nodes, engine=SketchTierEngine(...))``, or
``make_engine("sketch", ...)`` from :mod:`repro.core.execution`.

The engine answers the same question as the serial and shared-memory
strategies (signatures for a target population) under a different
contract:

* ``"serial"`` / ``"shm"`` — **byte-identical** results.
* ``"sketch"`` — an **accuracy contract**: signatures for a hot set of
  sources (greedy knapsack over :class:`SpaceSaving`-tracked out-volume,
  ranked by volume per retained byte) are computed exactly; the long
  tail gets sketch-backed
  signatures from :class:`StreamingTopTalkers` /
  :class:`StreamingUnexpectedTalkers` builders whose Count-Min width is
  *derived from the byte budget* — so total tier state stays within
  ``budget_bytes`` regardless of how many distinct nodes the stream
  touches.  Accuracy degrades gracefully as the budget shrinks; the
  ``tools/bench.py --stage sketch`` harness maps the curve and CI gates
  top-k overlap at the default budget.

Memory accounting is explicit and inspectable (:attr:`SketchTierEngine.
last_stats`): sketch counters and SpaceSaving slots cost
:data:`CELL_BYTES` each; a hot node is charged :data:`HOT_ENTRY_BYTES`
per retained adjacency entry (the exact tier must hold its out-edges to
compute an exact signature).  All of it is surfaced through the obs layer
as ``sketch.{hot_nodes,tail_nodes,bytes_budgeted,bytes_used}``.

Only the one-hop sketchable schemes (``tt``, ``ut``) have streaming
builders; other schemes (random-walk families) fall back to the exact
path with a ``sketch.fallback`` counter so mixed-scheme callers (e.g.
``fig1 --strategy sketch``) keep working.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro import obs
from repro.core.execution import DEFAULT_BUDGET_BYTES
from repro.exceptions import StreamingError
from repro.streaming.spacesaving import SpaceSaving
from repro.streaming.stream_schemes import (
    SKETCHABLE_SCHEMES,
    StreamingUnexpectedTalkers,
    streaming_builder,
)
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scheme import SignatureScheme
    from repro.core.signature import Signature
    from repro.graph.comm_graph import CommGraph

#: Cost of one sketch counter / SpaceSaving slot (a float64 cell).
CELL_BYTES = 8

#: Cost of one adjacency entry a hot node's exact computation retains
#: (node key + weight in a compact map).
HOT_ENTRY_BYTES = 16

#: Narrowest Count-Min row the sizing will produce under tiny budgets.
MIN_CM_WIDTH = 8


class SketchTierEngine:
    """Budgeted two-tier signature engine (exact hot set + sketched tail).

    A :class:`~repro.core.execution.ComputeEngine` like
    :class:`repro.parallel.shm.ShmEngine`, so
    :meth:`~repro.core.scheme.SignatureScheme.compute_all` takes it as
    ``engine=``.  Stateless between calls apart from :attr:`last_stats`;
    safe to share across schemes and graphs, and picklable.
    """

    #: Answers under an accuracy contract, not byte-identity.
    exact = False

    def __init__(
        self,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        *,
        hot_fraction: float = 0.5,
        sketch_delta: float = 0.05,
        fm_registers: int = 32,
        hot_tracker_capacity: int = 4096,
        seed: int = 0,
    ) -> None:
        if budget_bytes < 1:
            raise StreamingError(f"budget_bytes must be >= 1, got {budget_bytes}")
        if not 0.0 <= hot_fraction <= 1.0:
            raise StreamingError(
                f"hot_fraction must be in [0, 1], got {hot_fraction}"
            )
        if not 0 < sketch_delta < 1:
            raise StreamingError(
                f"sketch_delta must be in (0, 1), got {sketch_delta}"
            )
        self.budget_bytes = int(budget_bytes)
        self.hot_fraction = hot_fraction
        self.sketch_delta = sketch_delta
        self.fm_registers = fm_registers
        self.hot_tracker_capacity = hot_tracker_capacity
        self.seed = seed
        #: Accounting of the most recent :meth:`compute_batch` call.
        self.last_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release; here so every owner closes what it built."""

    def compute_batch(
        self,
        scheme: "SignatureScheme",
        graph: "CommGraph",
        targets: Optional[Sequence[NodeId]] = None,
    ) -> Dict[NodeId, "Signature"]:
        """Signatures for ``targets`` under the tier's accuracy contract.

        ``targets=None`` means every node, as in ``compute_all``.
        """
        target_list: List[NodeId] = (
            list(targets) if targets is not None else graph.nodes()
        )
        name = getattr(scheme, "name", "")
        if name not in SKETCHABLE_SCHEMES:
            # No streaming builder for this scheme: answer exactly so
            # mixed-scheme callers keep working, and say so in metrics.
            obs.counter("sketch.fallback", scheme=name or "unknown").inc()
            return scheme._compute_batch(graph, target_list)
        with obs.span("sketch.compute", scheme=name):
            return self._compute(scheme, graph, target_list)

    def _compute(
        self,
        scheme: "SignatureScheme",
        graph: "CommGraph",
        targets: List[NodeId],
    ) -> Dict[NodeId, "Signature"]:
        target_set = set(targets)
        hot, hot_bytes, tracker = self._select_hot(graph, target_set)
        tail = [node for node in targets if node not in hot]
        builder = self._build_tail(scheme, graph, tail)
        results: Dict[NodeId, "Signature"] = {}
        if hot:
            results.update(scheme._compute_batch(graph, [n for n in targets if n in hot]))
        for node in tail:
            results[node] = builder.signature(node)
        bytes_used = (
            hot_bytes
            + builder.memory_cells() * CELL_BYTES
            + tracker.memory_cells() * CELL_BYTES
        )
        self.last_stats = {
            "hot_nodes": len(hot),
            "tail_nodes": len(tail),
            "bytes_budgeted": self.budget_bytes,
            "bytes_used": bytes_used,
            "cm_width": builder._empty_sketch().width,
        }
        obs.counter("sketch.hot_nodes").inc(len(hot))
        obs.counter("sketch.tail_nodes").inc(len(tail))
        obs.gauge("sketch.bytes_budgeted").set(self.budget_bytes)
        obs.gauge("sketch.bytes_used").set(bytes_used)
        return {node: results[node] for node in targets}

    # ------------------------------------------------------------------
    def _select_hot(self, graph, target_set):
        """Greedy-knapsack hot set: most exactly-covered volume per byte.

        Candidates come from a SpaceSaving pass over the edge stream (not
        a sort of exact volumes) so the selection itself honours the
        semi-streaming model; its slots are charged to the tier.  Among
        the tracked candidates, admission is greedy by *volume per
        retained byte* — a scanner spraying one-off probes at half the
        address space has enormous volume but terrible density, and must
        not starve hundreds of cheap repeat-talker hosts whose exact
        adjacencies together cover more traffic.  Nodes that do not fit
        the remaining budget are skipped, not a stop signal: the scan
        continues so smaller candidates can fill the gap (bounded by the
        tracker's capacity).
        """
        hot_budget = int(self.budget_bytes * self.hot_fraction)
        # The tracker's slots are tier state too: cap them at half the hot
        # budget so a tiny budget does not hide a fat selection structure.
        capacity = max(
            64, min(self.hot_tracker_capacity, hot_budget // (2 * CELL_BYTES))
        )
        tracker = SpaceSaving(capacity)
        for src, dst, weight in graph.edges():
            if weight > 0 and src != dst:
                tracker.update(src, weight)
        hot: set = set()
        hot_bytes = 0
        if len(tracker) and hot_budget > 0:
            candidates = []
            for node, volume in tracker.top(len(tracker)):
                if node not in target_set:
                    continue
                cost = max(1, graph.out_degree(node)) * HOT_ENTRY_BYTES
                candidates.append((volume / cost, node, cost))
            candidates.sort(key=lambda entry: (-entry[0], entry[1]))
            for _density, node, cost in candidates:
                if hot_bytes + cost > hot_budget:
                    continue
                hot.add(node)
                hot_bytes += cost
        return hot, hot_bytes, tracker

    def _build_tail(self, scheme, graph, tail: List[NodeId]):
        """One-pass tail builder whose sketch width is sized to the budget."""
        tail_budget = max(0, self.budget_bytes - int(self.budget_bytes * self.hot_fraction))
        builder = self._make_builder(scheme, len(tail), tail_budget)
        tail_set = set(tail)
        needs_in_degree = isinstance(builder, StreamingUnexpectedTalkers)
        for src, dst, weight in graph.edges():
            if src in tail_set:
                builder.observe(src, dst, weight)
            elif needs_in_degree and weight > 0:
                # |I(j)| counts every source, including hot ones whose
                # signatures are answered exactly.
                builder.note_in_degree(src, dst)
        return builder

    def _make_builder(self, scheme, num_tail: int, tail_budget: int):
        k = getattr(scheme, "k", 10)
        depth = max(1, math.ceil(math.log(1.0 / self.sketch_delta)))
        per_owner_cells = tail_budget / CELL_BYTES / max(1, num_tail)
        # Split each owner's cell allowance between candidate slots and CM
        # counters; both floor at usable minimums (k slots, MIN_CM_WIDTH),
        # so starvation degrades accuracy rather than correctness.
        candidate_capacity = int(min(4 * k, max(k, per_owner_cells / 4)))
        width = max(
            MIN_CM_WIDTH,
            int((per_owner_cells - candidate_capacity - 1) / depth),
        )
        # StreamingTopTalkers sizes its CM sketches from (epsilon, delta):
        # width = ceil(e / epsilon), depth = ceil(ln(1 / delta)) — invert.
        epsilon = math.e / width
        return streaming_builder(
            getattr(scheme, "name", ""),
            fm_registers=self.fm_registers,
            k=k,
            epsilon=epsilon,
            delta=self.sketch_delta,
            candidate_capacity=candidate_capacity,
            seed=self.seed,
        )

    def __repr__(self) -> str:
        return (
            f"SketchTierEngine(budget_bytes={self.budget_bytes}, "
            f"hot_fraction={self.hot_fraction})"
        )

