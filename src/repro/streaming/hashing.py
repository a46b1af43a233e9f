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

# The array kernel's constants.  Every one is an ``np.uint64``, so each
# operation stays in uint64 under NEP 50 and under numpy 1.x value-based
# casting, where a Python int operand can turn uint64 into float64.
_P = np.uint64(MERSENNE_61)
_LOW32 = np.uint64((1 << 32) - 1)
_LOW29 = np.uint64((1 << 29) - 1)
_SHIFT3, _SHIFT29, _SHIFT32, _SHIFT61 = (np.uint64(n) for n in (3, 29, 32, 61))


def _reduce61(values: np.ndarray) -> np.ndarray:
    """``values mod p`` in place, for any uint64 ``values``.

    ``2^61 ≡ 1 (mod p)``, so ``(x & p) + (x >> 61) ≡ x`` and is at most
    ``p + 7``; one conditional subtract of ``p`` lands in ``[0, p)``.
    """
    high = values >> _SHIFT61
    values &= _P
    values += high
    np.subtract(values, _P, out=values, where=values >= _P)
    return values


def _read_only_column(values: np.ndarray) -> np.ndarray:
    column = values.reshape(-1, 1)
    column.flags.writeable = False
    return column


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
        # hash_columns' coefficient columns: ``a`` split into 32-bit limbs.
        a = np.array(self._a, dtype=np.uint64)
        self._a_low = _read_only_column(a & _LOW32)
        self._a_high = _read_only_column(a >> _SHIFT32)
        self._b_column = _read_only_column(np.array(self._b, dtype=np.uint64))

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
        Fingerprints must lie in ``[0, 2^64)``.

        The arithmetic is exact in uint64: ``a`` and ``x mod p`` (both below
        ``2^61``) are split into 32-bit limbs, so each of the four partial
        products is below ``2^64`` and no step relies on wraparound.  The
        product is reduced with ``2^64 ≡ 8`` and ``2^61 ≡ 1 (mod p)``.
        """
        if len(fingerprints) and not (
            0 <= min(fingerprints) and max(fingerprints) < 1 << 64
        ):
            raise StreamingError("fingerprints must lie in [0, 2^64)")
        x = _reduce61(np.array(fingerprints, dtype=np.uint64))
        x_low, x_high = x & _LOW32, x >> _SHIFT32
        # a·x = high·2^64 + middle·2^32 + low with high < 2^58, middle < 2^62.
        low = self._a_low * x_low
        middle = self._a_high * x_low
        middle += self._a_low * x_high
        hashes = self._a_high * x_high
        hashes <<= _SHIFT3  # high·2^64 ≡ high·8
        # middle·2^32 ≡ (middle >> 29) + (middle mod 2^29)·2^32
        hashes += middle >> _SHIFT29
        middle &= _LOW29
        middle <<= _SHIFT32
        hashes += middle
        # low ≡ (low & p) + (low >> 61); the sum stays below 2^64.
        hashes += low & _P
        low >>= _SHIFT61
        hashes += low
        hashes += self._b_column
        _reduce61(hashes)
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
