"""SpaceSaving heavy-hitter tracking (Metwally, Agrawal & El Abbadi).

Keeps at most ``capacity`` (item, count, error) entries.  When a new item
arrives and the table is full, the minimum-count entry is *evicted and
reused*: the newcomer inherits the evicted count as both its count floor
and its error bound.  Guarantees: every item with true count above
``total / capacity`` is present, and each stored count overestimates the
true count by at most the stored ``error``.

The streaming signature builders use SpaceSaving to bound the per-node
candidate set for top-k extraction (a CM sketch alone can *estimate* any
edge but cannot *enumerate* the heavy ones).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.exceptions import StreamingError


@dataclass(slots=True)
class _Entry:
    item: Hashable
    count: float
    error: float
    sequence: int  # heap tie-breaker, FIFO among equal counts
    live: bool = True


class SpaceSaving:
    """Bounded-memory heavy-hitter counter with per-item error bounds."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise StreamingError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[Hashable, _Entry] = {}
        self._heap: List[Tuple[float, int, _Entry]] = []
        self._sequence = itertools.count()
        self._total = 0.0

    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total weight observed so far."""
        return self._total

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._entries

    def update(self, item: Hashable, count: float = 1.0) -> None:
        """Add ``count`` occurrences of ``item``."""
        if count < 0:
            raise StreamingError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._total += count
        entry = self._entries.get(item)
        if entry is not None:
            entry.count += count
            self._push(entry)
            return
        if len(self._entries) < self.capacity:
            entry = _Entry(item=item, count=count, error=0.0, sequence=next(self._sequence))
            self._entries[item] = entry
            self._push(entry)
            return
        victim = self._pop_minimum()
        del self._entries[victim.item]
        victim.live = False
        entry = _Entry(
            item=item,
            count=victim.count + count,
            error=victim.count,
            sequence=next(self._sequence),
        )
        self._entries[item] = entry
        self._push(entry)

    def _update_many(self, items: Sequence[Hashable], counts: Sequence[float]) -> None:
        """:meth:`update` once per ``(item, count)`` pair in order; every
        count must be positive.

        When the tracked items plus the new distinct ones fit in
        ``capacity``, no update can evict, so the entries are written
        directly: the same items in the same order, counts summed in pair
        order, errors and sequence numbers.  Only the heap differs — it is
        rebuilt compacted, which pops the same entries in the same order.
        """
        entries = self._entries
        new = len(set(items).difference(entries))
        if len(entries) + new > self.capacity:
            for item, count in zip(items, counts):
                self.update(item, count)
            return
        total = self._total
        for item, count in zip(items, counts):
            total += count
            entry = entries.get(item)
            if entry is None:
                entries[item] = _Entry(
                    item=item, count=count, error=0.0, sequence=next(self._sequence)
                )
            else:
                entry.count += count
        self._total = total
        self._compact()

    def _load_distinct(
        self, items: Sequence[Hashable], counts: Sequence[float], total: float
    ) -> None:
        """On an empty counter, what :meth:`update` once per positive
        ``(item, count)`` pair leaves when the pairs name at most
        ``capacity`` distinct items: ``items`` are those items in first-pair
        order, ``counts`` each one's counts summed in pair order from
        ``0.0``, and ``total`` all the counts summed in pair order.
        """
        # map stops at the last item, so it draws one sequence number each.
        self._entries = dict(
            zip(items, map(_Entry, items, counts, itertools.repeat(0.0), self._sequence))
        )
        self._total = total
        self._compact()

    def _push(self, entry: _Entry) -> None:
        heapq.heappush(self._heap, (entry.count, entry.sequence, entry))
        # Every update of a tracked item pushes a fresh tuple and leaves the
        # stale one behind; without compaction the heap grows with stream
        # length.  Rebuilding from the live entries keeps it O(capacity).
        if len(self._heap) > 2 * self.capacity:
            self._compact()

    def _compact(self) -> None:
        self._heap = [
            (live.count, live.sequence, live) for live in self._entries.values()
        ]
        heapq.heapify(self._heap)

    def _pop_minimum(self) -> _Entry:
        while self._heap:
            count, _sequence, entry = heapq.heappop(self._heap)
            if entry.live and entry.count == count:
                return entry
        raise StreamingError("heap exhausted; SpaceSaving invariant broken")

    # ------------------------------------------------------------------
    def estimate(self, item: Hashable) -> float:
        """Estimated count of ``item`` (0 if not tracked; overestimate otherwise)."""
        entry = self._entries.get(item)
        return entry.count if entry is not None else 0.0

    def guaranteed_count(self, item: Hashable) -> float:
        """Lower bound on the true count: ``count - error`` (0 if untracked)."""
        entry = self._entries.get(item)
        return entry.count - entry.error if entry is not None else 0.0

    def top(self, k: int) -> List[Tuple[Hashable, float]]:
        """The ``k`` largest tracked items as (item, estimated count), best first."""
        if k < 1:
            raise StreamingError(f"k must be >= 1, got {k}")
        ranked = sorted(
            self._entries.values(), key=lambda entry: (-entry.count, str(entry.item))
        )
        return [(entry.item, entry.count) for entry in ranked[:k]]

    def items(self) -> List[Tuple[Hashable, float, float]]:
        """All tracked entries as ``(item, count, error)``."""
        return [
            (entry.item, entry.count, entry.error) for entry in self._entries.values()
        ]

    # ------------------------------------------------------------------
    def memory_cells(self) -> int:
        """Number of counter slots held."""
        return self.capacity
