"""Locality-Sensitive Hashing over MinHash sketches (banding technique).

A sketch of ``bands * rows_per_band`` min-hashes is cut into bands; two
items become candidates when *any* band matches exactly.  The candidate
probability for Jaccard similarity ``s`` is ``1 - (1 - s^rows)^bands`` —
an S-curve whose threshold is tuned by the band/row split.

Each band slice is folded into one ``uint64`` by :func:`band_hashes`, the
fold the history store also persists per row (:mod:`repro.store.index`).
Equal slices always fold to equal hashes; unequal slices collide with
probability ~2^-64 per band, which the exact re-ranking step absorbs.

:class:`ApproxSignatureIndex` wraps this into an approximate, mutable
counterpart of :class:`~repro.matching.index.SignatureIndex`: LSH produces
a candidate set, which is then re-ranked by the *exact* distance.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Dict, Hashable, List, Set, Tuple

import numpy as np

from repro.core.distances import DistanceFunction, dist_jaccard
from repro.core.packed import SignaturePack, signature_distances
from repro.core.signature import Signature
from repro.exceptions import MatchingError
from repro.matching.minhash import MinHasher
from repro.types import NodeId

#: Multiplier between the positions of one band slice (golden-ratio odd).
_POSITION_MIX = np.uint64(0x9E3779B97F4A7C15)


@functools.lru_cache(maxsize=64)
def band_coefficients(bands: int, rows_per_band: int, seed: int = 0) -> np.ndarray:
    """Seeded odd multipliers ``(bands, rows_per_band)`` of the band fold."""
    rng = np.random.default_rng(seed ^ 0x5EED_BA5E)
    coefficients = rng.integers(
        0, np.iinfo(np.uint64).max, size=(bands, rows_per_band), dtype=np.uint64
    ) | np.uint64(1)
    coefficients.setflags(write=False)
    return coefficients


def band_hashes(
    sketches: np.ndarray, bands: int, rows_per_band: int, seed: int = 0
) -> np.ndarray:
    """Fold sketches ``(n, bands * rows_per_band)`` into band hashes ``(n, bands)``.

    Each band slice becomes a wrapping multiply-add polynomial over its
    values, so the hash is position sensitive.
    """
    sketches = np.asarray(sketches, dtype=np.uint64)
    if sketches.ndim != 2 or sketches.shape[1] != bands * rows_per_band:
        raise MatchingError(
            f"sketches have shape {sketches.shape}; {bands} bands x "
            f"{rows_per_band} rows expect (n, {bands * rows_per_band})"
        )
    coefficients = band_coefficients(bands, rows_per_band, seed)
    slices = sketches.reshape(len(sketches), bands, rows_per_band)
    out = np.zeros((len(sketches), bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for position in range(rows_per_band):
            out = out * _POSITION_MIX + slices[:, :, position] * coefficients[:, position]
    return out


class LshIndex:
    """Banding LSH over pre-computed MinHash arrays."""

    def __init__(self, bands: int = 16, rows_per_band: int = 8) -> None:
        if bands < 1 or rows_per_band < 1:
            raise MatchingError(
                f"bands and rows_per_band must be >= 1, got {bands}, {rows_per_band}"
            )
        self.bands = bands
        self.rows_per_band = rows_per_band
        self.num_hashes = bands * rows_per_band
        self._buckets: List[Dict[int, Set[Hashable]]] = [
            defaultdict(set) for _ in range(bands)
        ]
        self._key_bands: Dict[Hashable, List[int]] = {}

    # ------------------------------------------------------------------
    def _band_hashes(self, sketch: np.ndarray) -> List[int]:
        row = np.asarray(sketch)[None, :]
        return band_hashes(row, self.bands, self.rows_per_band)[0].tolist()

    def add(self, key: Hashable, sketch: np.ndarray) -> None:
        """Index ``key`` under its sketch, replacing any earlier sketch."""
        hashes = self._band_hashes(sketch)
        for band, value in enumerate(self._key_bands.pop(key, ())):
            bucket = self._buckets[band][value]
            bucket.discard(key)
            if not bucket:
                del self._buckets[band][value]
        for band, value in enumerate(hashes):
            self._buckets[band][value].add(key)
        self._key_bands[key] = hashes

    def __len__(self) -> int:
        return len(self._key_bands)

    def candidates(self, sketch: np.ndarray, exclude: Hashable | None = None) -> Set[Hashable]:
        """Keys sharing at least one band with the query sketch."""
        found: Set[Hashable] = set()
        for band, value in enumerate(self._band_hashes(sketch)):
            found |= self._buckets[band].get(value, set())
        found.discard(exclude)
        return found

    def candidate_probability(self, similarity: float) -> float:
        """The S-curve ``1 - (1 - s^rows)^bands`` for Jaccard similarity ``s``."""
        if not 0 <= similarity <= 1:
            raise MatchingError(f"similarity must be in [0, 1], got {similarity}")
        return 1.0 - (1.0 - similarity**self.rows_per_band) ** self.bands


class ApproxSignatureIndex:
    """Approximate nearest-neighbour signature index: LSH filter + exact re-rank.

    ``distance`` defaults to Jaccard (the distance MinHash is unbiased
    for); any signature distance may be used for the re-ranking step since
    candidates are verified exactly.
    """

    def __init__(
        self,
        bands: int = 16,
        rows_per_band: int = 8,
        distance: DistanceFunction = dist_jaccard,
        seed: int = 0,
    ) -> None:
        self.minhasher = MinHasher(num_hashes=bands * rows_per_band, seed=seed)
        self.lsh = LshIndex(bands=bands, rows_per_band=rows_per_band)
        self.distance = distance
        self._signatures: Dict[NodeId, Signature] = {}

    def add(self, signature: Signature) -> None:
        """Index a signature under its owner."""
        self._signatures[signature.owner] = signature
        self.lsh.add(signature.owner, self.minhasher.sketch_signature(signature))

    def add_all(self, signatures) -> None:
        for signature in signatures:
            self.add(signature)

    def __len__(self) -> int:
        return len(self._signatures)

    def query(
        self,
        signature: Signature,
        k: int = 1,
        exclude_self: bool = True,
    ) -> List[Tuple[NodeId, float]]:
        """Up to ``k`` near neighbours from the LSH candidate set, best first.

        May return fewer than ``k`` entries (or none) when LSH produces a
        small candidate set — the accuracy/speed trade-off of approximate
        search.  Distances are exact for everything returned.
        """
        if k < 1:
            raise MatchingError(f"k must be >= 1, got {k}")
        sketch = self.minhasher.sketch_signature(signature)
        exclude = signature.owner if exclude_self else None
        candidates = self.lsh.candidates(sketch, exclude=exclude)
        scored = self._rerank(signature, candidates)
        scored.sort(key=lambda item: (item[1], str(item[0])))
        return scored[:k]

    def _rerank(
        self, signature: Signature, candidates: Set[Hashable]
    ) -> List[Tuple[NodeId, float]]:
        """Exact distances for the LSH candidate set: one
        :func:`~repro.core.packed.signature_distances` call against the
        packed candidate signatures."""
        if not candidates:
            return []
        candidate_list = list(candidates)
        pack_candidates = SignaturePack.from_signatures(
            [self._signatures[owner] for owner in candidate_list]
        )
        distances = signature_distances(signature, pack_candidates, self.distance)
        return list(zip(candidate_list, distances.tolist()))
