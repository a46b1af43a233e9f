"""The time-travel index: per-row LSH band hashes over MinHash sketches.

The sketching and banding are :mod:`repro.matching`'s — the segment encoder
sketches every CSR row with :meth:`~repro.matching.minhash.MinHasher.sketch_rows`
and folds the bands with :func:`~repro.matching.lsh.band_hashes`, the same
kernel the in-memory :class:`~repro.matching.lsh.LshIndex` uses, so a query
sketched from a live signature probes history correctly.  Band hashes are
persisted inside the segment, so a query is one vectorized equality scan
over an mmap'd ``(rows, bands)`` table instead of materialising a single
signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.signature import Signature
from repro.exceptions import StoreError
from repro.matching.lsh import band_hashes
from repro.matching.minhash import MinHasher


@dataclass(frozen=True)
class IndexParams:
    """Shape of the time-travel index: the LSH banding split and seed.

    All segments of one store must share these (the store refuses to mix);
    two stores with equal params produce comparable sketches.
    """

    bands: int = 8
    rows_per_band: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bands < 1 or self.rows_per_band < 1:
            raise StoreError(
                f"bands and rows_per_band must be >= 1, "
                f"got {self.bands}, {self.rows_per_band}"
            )

    @property
    def num_hashes(self) -> int:
        return self.bands * self.rows_per_band

    def minhasher(self) -> MinHasher:
        return MinHasher(num_hashes=self.num_hashes, seed=self.seed)

    def fold(self, sketches: np.ndarray) -> np.ndarray:
        """Band hashes ``(rows, bands)`` of sketches ``(rows, num_hashes)``."""
        return band_hashes(sketches, self.bands, self.rows_per_band, self.seed)


def band_hashes_for_rows(
    labels: Sequence[str],
    entry_keys: np.ndarray,
    row_starts: np.ndarray,
    row_counts: np.ndarray,
    params: IndexParams,
) -> np.ndarray:
    """The band table of CSR rows (what the segment encoder persists)."""
    return params.fold(
        params.minhasher().sketch_rows(labels, entry_keys, row_starts, row_counts)
    )


def query_band_hashes(signature: Signature, params: IndexParams) -> np.ndarray:
    """Band hashes of a query signature, comparable to stored rows."""
    return params.fold(params.minhasher().sketch_signature(signature)[None, :])[0]


def candidate_rows(
    stored_bands: np.ndarray, query_bands: np.ndarray
) -> np.ndarray:
    """Row positions sharing at least one band with the query (LSH rule)."""
    stored = np.asarray(stored_bands, dtype=np.uint64)
    if stored.size == 0:
        return np.empty(0, dtype=np.int64)
    matches = (stored == np.asarray(query_bands, dtype=np.uint64)[None, :]).any(axis=1)
    return np.flatnonzero(matches).astype(np.int64)
