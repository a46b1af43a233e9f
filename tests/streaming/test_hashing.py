"""Unit tests for the deterministic hash utilities.

The module runs with ``RuntimeWarning`` as an error, so an overflowing
numpy scalar multiply in the uint64 kernel fails the test that reaches it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StreamingError
from repro.streaming.countmin import CountMinSketch
from repro.streaming.hashing import MERSENNE_61, HashFamily, stable_hash64

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

P = MERSENNE_61
#: Fingerprints at the kernel's reduction and limb boundaries.
PINNED = [0, 1, P - 1, P, P + 1, 2 * P, 2**61 + 7, 2**62, 2**63, 2**64 - 1]
#: 1, a Count-Min width, one limb, around the modulus, and FM's range.
OUTPUT_RANGES = [1, 544, 2**32, P - 1, P, P + 1, 2**62]


def reference_columns(family, fingerprints):
    return [
        [family.hash_value(i, x) for x in fingerprints] for i in range(family.count)
    ]


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("alice") == stable_hash64("alice")

    def test_distinct_items_distinct_hashes(self):
        values = {stable_hash64(f"item-{i}") for i in range(1000)}
        assert len(values) == 1000

    def test_type_qualified(self):
        assert stable_hash64("1") != stable_hash64(1)

    def test_64_bit_range(self):
        value = stable_hash64("anything")
        assert 0 <= value < 2**64


class TestHashFamily:
    def test_output_range_respected(self):
        family = HashFamily(4, output_range=100, seed=0)
        for index in range(4):
            for item in ("a", "b", 12345):
                assert 0 <= family.hash_item(index, item) < 100

    def test_members_differ(self):
        family = HashFamily(8, output_range=1_000_000, seed=0)
        outputs = {family.hash_item(i, "same-item") for i in range(8)}
        assert len(outputs) > 1

    def test_seed_determinism(self):
        first = HashFamily(4, 1000, seed=7)
        second = HashFamily(4, 1000, seed=7)
        assert first.hash_all("x") == second.hash_all("x")
        third = HashFamily(4, 1000, seed=8)
        assert first.hash_all("x") != third.hash_all("x")

    def test_hash_all_matches_individual(self):
        family = HashFamily(5, 777, seed=1)
        assert family.hash_all("item") == [
            family.hash_item(i, "item") for i in range(5)
        ]

    def test_roughly_uniform(self):
        family = HashFamily(1, output_range=10, seed=3)
        buckets = [0] * 10
        for i in range(5000):
            buckets[family.hash_item(0, f"key-{i}")] += 1
        assert min(buckets) > 300  # each bucket near 500

    def test_invalid_parameters(self):
        with pytest.raises(StreamingError):
            HashFamily(0, 10)
        with pytest.raises(StreamingError):
            HashFamily(1, 0)
        family = HashFamily(2, 10)
        with pytest.raises(StreamingError):
            family.hash_value(5, 1)

    def test_modulus_is_mersenne_prime(self):
        assert MERSENNE_61 == 2**61 - 1


class TestHashColumnsKernel:
    """The uint64 array kernel against the scalar definition ``hash_value``."""

    @settings(max_examples=80, deadline=None)
    @given(
        fingerprints=st.lists(
            st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(PINNED)), max_size=24
        ),
        count=st.integers(1, 128),
        output_range=st.sampled_from(OUTPUT_RANGES),
        seed=st.integers(0, 2**32),
    )
    def test_equals_hash_value(self, fingerprints, count, output_range, seed):
        family = HashFamily(count, output_range, seed=seed)
        columns = family.hash_columns(fingerprints)
        assert columns.dtype == np.uint64
        assert columns.shape == (count, len(fingerprints))
        assert columns.tolist() == reference_columns(family, fingerprints)

    @pytest.mark.parametrize("output_range", OUTPUT_RANGES)
    def test_pinned_boundaries(self, output_range):
        family = HashFamily(128, output_range, seed=11)
        assert family.hash_columns(PINNED).tolist() == reference_columns(family, PINNED)

    @pytest.mark.parametrize("output_range", OUTPUT_RANGES)
    def test_member_roots_hash_to_zero(self, output_range):
        # a·x + b ≡ 0 (mod p) folds to exactly p before the final
        # conditional subtract, which must bring it to 0.
        family = HashFamily(16, output_range, seed=5)
        roots = [(-b * pow(a, -1, P)) % P for a, b in zip(family._a, family._b)]
        fingerprints = roots + [root + P for root in roots]
        columns = family.hash_columns(fingerprints)
        assert columns.tolist() == reference_columns(family, fingerprints)
        assert not columns[np.arange(16), np.arange(16)].any()

    def test_coefficient_columns_are_read_only(self):
        family = HashFamily(4, 544, seed=0)
        for column in (family._a_low, family._a_high, family._b_column):
            with pytest.raises(ValueError):
                column[0, 0] = 0

    @pytest.mark.parametrize(
        "fingerprints", [[-1], [2**64], [5, -(2**63)], [0, 2**70]], ids=str
    )
    def test_fingerprints_outside_64_bits_are_rejected(self, fingerprints):
        with pytest.raises(StreamingError, match=r"\[0, 2\^64\)"):
            HashFamily(3, 544, seed=0).hash_columns(fingerprints)


class TestCountMinColumns:
    @pytest.mark.parametrize("items", [[], ["x"], [7], ["a", "b", "a", ("t", 1)]], ids=repr)
    def test_rows_are_hash_all(self, items):
        sketch = CountMinSketch(seed=4)
        columns = sketch._columns(items)
        assert columns.dtype == np.intp
        assert columns.shape == (len(items), sketch.depth)
        assert columns.tolist() == [sketch._hashes.hash_all(item) for item in items]
