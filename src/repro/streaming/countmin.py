"""Count-Min sketch (Cormode & Muthukrishnan, reference [3] of the paper).

A ``depth x width`` array of counters; each update adds to one counter per
row (chosen by that row's hash), and a point query returns the minimum over
the rows — an overestimate of the true count by at most
``epsilon * total_count`` with probability ``1 - delta`` when sized as
``width = ceil(e / epsilon)``, ``depth = ceil(ln(1 / delta))``.

The paper uses one CM sketch per node to recover its heaviest outgoing
edges in the semi-streaming model.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import StreamingError
from repro.streaming.hashing import shared_hash_family, stable_hash64


class CountMinSketch:
    """A mergeable Count-Min sketch with conservative point queries."""

    def __init__(
        self,
        epsilon: float = 0.01,
        delta: float = 0.01,
        seed: int = 0,
        width: int | None = None,
        depth: int | None = None,
    ) -> None:
        """Size the sketch from error guarantees or explicit dimensions.

        ``epsilon``/``delta`` give the standard guarantee; explicit
        ``width``/``depth`` override them (both must then be provided).
        """
        if width is None and depth is None:
            if not 0 < epsilon < 1:
                raise StreamingError(f"epsilon must be in (0, 1), got {epsilon}")
            if not 0 < delta < 1:
                raise StreamingError(f"delta must be in (0, 1), got {delta}")
            width = math.ceil(math.e / epsilon)
            depth = math.ceil(math.log(1.0 / delta))
        if width is None or depth is None:
            raise StreamingError("provide both width and depth, or neither")
        if width < 1 or depth < 1:
            raise StreamingError(f"width and depth must be >= 1, got {width}x{depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = seed
        self._hashes = shared_hash_family(self.depth, self.width, seed)
        self._table = np.zeros((self.depth, self.width), dtype=np.float64)
        self._total = 0.0

    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total weight of all updates (the ``||a||_1`` in the guarantee)."""
        return self._total

    def update(self, item: Hashable, count: float = 1.0) -> None:
        """Add ``count`` occurrences of ``item`` (must be non-negative)."""
        if count < 0:
            raise StreamingError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        for row, column in enumerate(self._hashes.hash_all(item)):
            self._table[row, column] += count
        self._total += count

    def _columns(self, items: Sequence[Hashable]) -> np.ndarray:
        """Every row's column of each item, shape ``(len(items), depth)``:
        row ``j`` is ``hash_all(items[j])``."""
        fingerprints = [stable_hash64(item) for item in items]
        return self._hashes.hash_columns(fingerprints).T.astype(np.intp)

    def _add_columns(self, columns: np.ndarray, counts: Sequence[float]) -> None:
        """:meth:`update` once per item in order, for items whose columns
        (:meth:`_columns`) are ``columns`` and whose counts, all positive,
        are ``counts``.

        ``np.add.at`` adds unbuffered in index order, so every counter
        receives the same additions in the same order as the per-item loop
        and the table is bitwise identical.
        """
        # Row ``r`` of every item broadcasts against ``columns[:, r]``.
        values = np.asarray(counts, dtype=np.float64)[:, None]
        np.add.at(self._table, (np.arange(self.depth), columns), values)
        self._total = functools.reduce(operator.add, counts, self._total)

    def estimate(self, item: Hashable) -> float:
        """Point query: an overestimate of ``item``'s total count."""
        columns = self._hashes.hash_all(item)
        return float(min(self._table[row, column] for row, column in enumerate(columns)))

    def error_bound(self) -> float:
        """The additive error bound ``(e / width) * total`` of point queries."""
        return (math.e / self.width) * self._total

    # ------------------------------------------------------------------
    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Combine two sketches of disjoint streams (same shape and seed)."""
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise StreamingError("can only merge sketches with identical shape and seed")
        merged = CountMinSketch(width=self.width, depth=self.depth, seed=self.seed)
        merged._table = self._table + other._table
        merged._total = self._total + other._total
        return merged

    def memory_cells(self) -> int:
        """Number of counters held (the sketch's space footprint)."""
        return self.width * self.depth

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(width={self.width}, depth={self.depth}, "
            f"total={self._total:g})"
        )
