"""MinHash sketches of signature node-sets.

For the Jaccard distance, the collision probability of a single min-hash
equals the Jaccard similarity of the underlying sets; averaging over many
independent hash functions gives an unbiased estimator.  Signature weights
are ignored — MinHash approximates ``Dist_Jac`` only, which is the distance
the paper's LSH pointer (Indyk-Motwani) covers.

This is the one MinHash of the package: the in-memory LSH index and the
history store's on-disk band table (:mod:`repro.store.index`) both sketch
through :meth:`MinHasher.sketch_rows`, so their sketches agree bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.signature import Signature
from repro.exceptions import MatchingError
from repro.streaming.hashing import MERSENNE_61, shared_hash_family, stable_hash64

#: Sketch value of an empty node set.
EMPTY_SKETCH_VALUE = np.iinfo(np.uint64).max


class MinHasher:
    """Produces fixed-length MinHash arrays from item sets.

    Member ``i`` of ``shared_hash_family(num_hashes, MERSENNE_61, seed)``
    is the ``i``-th hash function.  All sketches produced with one
    ``(num_hashes, seed)`` are mutually comparable.
    """

    def __init__(self, num_hashes: int = 128, seed: int = 0) -> None:
        if num_hashes < 1:
            raise MatchingError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_hashes = num_hashes
        self.seed = seed
        self._family = shared_hash_family(num_hashes, MERSENNE_61, seed)

    def sketch_rows(
        self,
        labels: Sequence,
        entry_keys: np.ndarray,
        row_starts: np.ndarray,
        row_counts: np.ndarray,
    ) -> np.ndarray:
        """MinHash sketches of CSR rows, shape ``(rows, num_hashes)``.

        Row ``r`` is the item set ``labels[entry_keys[s:s + n]]`` with
        ``s, n = row_starts[r], row_counts[r]``.  Each label is hashed once
        by every member; one gather plus one segmented min then reduce all
        members at once.  Empty rows get the all-max sketch.
        """
        num_rows = int(len(row_starts))
        sketches = np.full(
            (num_rows, self.num_hashes), EMPTY_SKETCH_VALUE, dtype=np.uint64
        )
        entry_keys = np.asarray(entry_keys, dtype=np.int64)
        counts = np.asarray(row_counts, dtype=np.int64)
        valid = counts > 0
        if entry_keys.size == 0 or not valid.any():
            return sketches
        label_hashes = self._family.hash_columns(
            [stable_hash64(label) for label in labels]
        )
        # Empty rows contribute no entries, so consecutive *valid* starts are
        # exact CSR segment boundaries — reduceat over them needs no sentinels.
        valid_starts = np.asarray(row_starts, dtype=np.int64)[valid]
        sketches[valid] = np.minimum.reduceat(
            label_hashes[:, entry_keys], valid_starts, axis=1
        ).T
        return sketches

    def sketch(self, items: Iterable) -> np.ndarray:
        """MinHash array of an item set; empty sets map to an all-max sketch."""
        members = list(set(items))
        return self.sketch_rows(
            members, np.arange(len(members)), [0], [len(members)]
        )[0]

    def sketch_signature(self, signature: Signature) -> np.ndarray:
        """MinHash of a signature's member node set."""
        return self.sketch(signature.nodes)


def estimate_jaccard_distance(sketch_a: np.ndarray, sketch_b: np.ndarray) -> float:
    """Estimated ``Dist_Jac`` from two comparable MinHash arrays."""
    if sketch_a.shape != sketch_b.shape:
        raise MatchingError("MinHash sketches must have identical length")
    if sketch_a.size == 0:
        raise MatchingError("cannot compare empty sketches")
    similarity = float(np.mean(sketch_a == sketch_b))
    return 1.0 - similarity
