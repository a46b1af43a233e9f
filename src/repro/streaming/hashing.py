"""Deterministic hashing utilities for the sketch data structures.

Python's built-in ``hash`` is salted per process (PYTHONHASHSEED), so the
sketches use :func:`stable_hash64` — a BLAKE2b digest of the item's string
form — as the canonical item -> integer mapping, and :class:`HashFamily`
for seeded pairwise-independent hash functions over a Mersenne prime.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Hashable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import StreamingError

#: The Mersenne prime 2^61 - 1, the modulus of the hash family.
MERSENNE_61 = (1 << 61) - 1


def stable_hash64(item: Hashable) -> int:
    """A 64-bit integer fingerprint of ``item``, stable across processes.

    Items are keyed by ``type-qualified string form`` so that e.g. the
    string ``"1"`` and the integer ``1`` do not collide.
    """
    payload = f"{type(item).__name__}:{item!r}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def stable_hash_key(item: Hashable) -> Tuple[str, str]:
    """The type name and repr that :func:`stable_hash64` hashes: items with
    equal keys have equal fingerprints.  Items that compare equal can
    still differ here (``1``, ``True`` and ``1.0``; ``0.0`` and ``-0.0``).
    """
    return type(item).__name__, repr(item)


class HashFamily:
    """A family of seeded pairwise-independent hash functions.

    Each member is ``h_i(x) = ((a_i * x + b_i) mod p) mod m`` with
    ``a_i in [1, p)``, ``b_i in [0, p)`` drawn from a seeded generator and
    ``p = 2^61 - 1``.  Use :meth:`hash_item` for arbitrary hashables (they
    are first reduced with :func:`stable_hash64`).
    """

    def __init__(self, count: int, output_range: int, seed: int = 0) -> None:
        if count < 1:
            raise StreamingError(f"hash family size must be >= 1, got {count}")
        if output_range < 1:
            raise StreamingError(f"output range must be >= 1, got {output_range}")
        rng = np.random.default_rng(seed)
        self.count = count
        self.output_range = output_range
        self._a = tuple(int(value) for value in rng.integers(1, MERSENNE_61, size=count))
        self._b = tuple(int(value) for value in rng.integers(0, MERSENNE_61, size=count))

    def hash_value(self, function_index: int, value: int) -> int:
        """Apply member ``function_index`` to a non-negative integer ``value``."""
        if not 0 <= function_index < self.count:
            raise StreamingError(
                f"function index {function_index} out of range [0, {self.count})"
            )
        return (
            (self._a[function_index] * value + self._b[function_index]) % MERSENNE_61
        ) % self.output_range

    def hash_item(self, function_index: int, item: Hashable) -> int:
        """Apply member ``function_index`` to any hashable item."""
        return self.hash_value(function_index, stable_hash64(item))

    def hash_all(self, item: Hashable) -> List[int]:
        """Apply every member to ``item`` (one row/register index per member)."""
        value = stable_hash64(item)
        return [
            ((a * value + b) % MERSENNE_61) % self.output_range
            for a, b in zip(self._a, self._b)
        ]

    def hash_columns(self, fingerprints: Sequence[int]) -> np.ndarray:
        """Every member over an array of :func:`stable_hash64` fingerprints.

        Row ``i`` of the ``(count, len(fingerprints))`` uint64 result is
        member ``i`` applied to each fingerprint, so column ``j`` equals
        :meth:`hash_all` of the item fingerprinted as ``fingerprints[j]``.
        Object dtype keeps the products exact big-int arithmetic.
        """
        values = np.asarray(fingerprints, dtype=object)[None, :]
        a = np.asarray(self._a, dtype=object)[:, None]
        b = np.asarray(self._b, dtype=object)[:, None]
        hashes = ((a * values + b) % MERSENNE_61).astype(np.uint64)
        if self.output_range < MERSENNE_61:  # else already in range
            hashes %= np.uint64(self.output_range)
        return hashes


@functools.lru_cache(maxsize=256)
def shared_hash_family(count: int, output_range: int, seed: int = 0) -> HashFamily:
    """The one :class:`HashFamily` of ``(count, output_range, seed)``.

    Families are immutable and fully determined by their parameters, so
    sketches of one configuration share an instance instead of drawing a
    seeded family each (a service window creates one Count-Min sketch per
    source).
    """
    return HashFamily(count, output_range, seed=seed)
