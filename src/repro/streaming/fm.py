"""Flajolet-Martin probabilistic distinct counting (reference [7] of the paper).

Each distinct item deterministically sets one bit position — the position
of the lowest set bit of its hash — in one of ``num_registers`` bitmaps
(chosen by an independent hash).  The estimate uses stochastic averaging:

.. math::

    \\hat n = \\frac{m}{\\varphi} \\, 2^{\\bar R}

where ``R_j`` is the lowest *unset* bit position of bitmap ``j`` and
``phi ~= 0.77351`` is Flajolet-Martin's correction constant.

The paper keeps one FM sketch per node to estimate its in-degree
``|I(j)|`` (distinct communication sources) for the streaming Unexpected
Talkers signature.
"""

from __future__ import annotations

import math

from typing import Hashable

import numpy as np

from repro.exceptions import StreamingError
from repro.streaming.hashing import shared_hash_family, stable_hash64

#: Flajolet-Martin's bias correction constant.
PHI = 0.77351

#: Bits tracked per register (counts up to ~2^32 distinct items).
REGISTER_BITS = 32


class FlajoletMartin:
    """An FM distinct-counter with stochastic averaging."""

    def __init__(self, num_registers: int = 64, seed: int = 0) -> None:
        if num_registers < 1:
            raise StreamingError(f"num_registers must be >= 1, got {num_registers}")
        self.num_registers = num_registers
        self.seed = seed
        # One hash assigns the register, a second supplies the bit pattern.
        self._hashes = shared_hash_family(2, 1 << 62, seed)
        self._bitmaps = np.zeros(num_registers, dtype=np.uint64)

    # ------------------------------------------------------------------
    def add(self, item: Hashable) -> None:
        """Record one occurrence of ``item`` (duplicates are free, by design)."""
        fingerprint = stable_hash64(item)
        register = self._hashes.hash_value(0, fingerprint) % self.num_registers
        pattern = self._hashes.hash_value(1, fingerprint)
        position = self._lowest_set_bit(pattern)
        self._bitmaps[register] |= np.uint64(1) << np.uint64(position)

    def _cells(self, fingerprints: np.ndarray) -> tuple:
        """``(registers, bits)``: the register and the one-bit uint64 mask
        :meth:`add` ORs in for each item of a uint64 fingerprint array."""
        hashes = self._hashes.hash_columns(fingerprints)
        registers = (hashes[0] % np.uint64(self.num_registers)).astype(np.intp)
        pattern = hashes[1]
        # x & -x keeps the lowest set bit, a power of two below 2^61 that
        # frexp reports exactly; 0 has none and takes the cap, as in add.
        lowest = pattern & (~pattern + np.uint64(1))
        position = np.minimum(np.frexp(lowest.astype(np.float64))[1] - 1, REGISTER_BITS - 1)
        position[pattern == 0] = REGISTER_BITS - 1
        return registers, np.left_shift(np.uint64(1), position.astype(np.uint64))

    @staticmethod
    def _lowest_set_bit(value: int) -> int:
        """Position of the lowest set bit (capped for all-zero patterns)."""
        if value == 0:
            return REGISTER_BITS - 1
        return min((value & -value).bit_length() - 1, REGISTER_BITS - 1)

    def estimate(self) -> float:
        """Estimated number of distinct items added so far.

        Small-range correction: the FM formula is accurate only once the
        cardinality well exceeds the register count; below that, the
        fraction of still-empty registers carries far more information, so
        the standard linear-counting estimator ``ln(V) / ln(1 - 1/m)`` is
        used while any register is empty (communication-graph in-degrees
        are typically tiny, making this the common path).
        """
        if not self._bitmaps.any():
            return 0.0
        empty = int(np.count_nonzero(self._bitmaps == 0))
        if empty > 0 and self.num_registers > 1:
            fraction_empty = empty / self.num_registers
            return math.log(fraction_empty) / math.log(1.0 - 1.0 / self.num_registers)
        positions = [self._lowest_unset_bit(int(bitmap)) for bitmap in self._bitmaps]
        mean_position = float(np.mean(positions))
        return (self.num_registers / PHI) * (2.0 ** mean_position)

    @staticmethod
    def _lowest_unset_bit(bitmap: int) -> int:
        position = 0
        while bitmap & (1 << position):
            position += 1
        return position

    # ------------------------------------------------------------------
    def memory_cells(self) -> int:
        """Number of registers held (the sketch's space footprint)."""
        return self.num_registers

    def __repr__(self) -> str:
        return f"FlajoletMartin(num_registers={self.num_registers}, estimate={self.estimate():g})"
