"""The one MinHash / band-fold kernel against its definitional reference.

The reference sketch of an item set is, per member ``i`` of
``HashFamily(num_hashes, MERSENNE_61, seed)``, the minimum of
``hash_all(item)[i]`` over the set (all-max for the empty set); the
reference band hash is the wrapping polynomial ``acc = acc * MIX + x * c``
over each band slice in Python integers mod 2^64.  Every columnar user —
``MinHasher.sketch``, ``MinHasher.sketch_rows``, the segment band table —
must reproduce them exactly, and ``LshIndex.candidates`` must be the
"shares an equal band slice" rule.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import Signature
from repro.matching.lsh import LshIndex, band_coefficients
from repro.matching.minhash import EMPTY_SKETCH_VALUE, MinHasher
from repro.store import IndexParams, read_segment, write_segment
from repro.streaming.hashing import MERSENNE_61, HashFamily, stable_hash64

MIX = 0x9E3779B97F4A7C15
WORD = 1 << 64

text_labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)
# Non-str members too: sketches hash any hashable through stable_hash64.
any_labels = st.one_of(
    text_labels,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.tuples(text_labels, st.integers(min_value=0, max_value=9)),
)
hasher_shapes = st.tuples(
    st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**40)
)


def reference_sketch(family: HashFamily, items) -> list:
    columns = [family.hash_all(item) for item in items]
    if not columns:
        return [int(EMPTY_SKETCH_VALUE)] * family.count
    return [min(column[i] for column in columns) for i in range(family.count)]


def reference_bands(sketch, bands: int, rows_per_band: int, seed: int) -> list:
    coefficients = band_coefficients(bands, rows_per_band, seed)
    out = []
    for band in range(bands):
        acc = 0
        for position in range(rows_per_band):
            value = int(sketch[band * rows_per_band + position])
            acc = (acc * MIX + value * int(coefficients[band, position])) % WORD
        out.append(acc)
    return out


def to_csr(rows):
    """Intern ``rows`` (lists of items, duplicates kept) into CSR columns."""
    label_ids, labels, keys, starts, counts = {}, [], [], [], []
    for row in rows:
        starts.append(len(keys))
        counts.append(len(row))
        for item in row:
            # What stable_hash64 hashes: equal keys, equal fingerprints.
            key = type(item).__name__, repr(item)
            if key not in label_ids:
                label_ids[key] = len(labels)
                labels.append(item)
            keys.append(label_ids[key])
    return labels, keys, starts, counts


class TestMinHashReference:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.lists(any_labels, max_size=6), max_size=6),
        shape=hasher_shapes,
    )
    def test_sketches_equal_the_hash_all_minimum(self, rows, shape):
        num_hashes, seed = shape
        family = HashFamily(num_hashes, MERSENNE_61, seed=seed)
        hasher = MinHasher(num_hashes=num_hashes, seed=seed)
        # Duplicate members: the first item of each non-empty row repeats.
        rows = [row + row[:1] for row in rows]
        expected = [reference_sketch(family, row) for row in rows]

        table = hasher.sketch_rows(*to_csr(rows))
        assert table.dtype == np.uint64
        assert table.shape == (len(rows), num_hashes)
        assert table.tolist() == expected
        for row, want in zip(rows, expected):
            assert hasher.sketch(row).tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(
        items=st.lists(any_labels, max_size=5),
        count=st.integers(min_value=1, max_value=6),
        output_range=st.integers(min_value=1, max_value=2**62),
    )
    def test_hash_columns_equal_hash_all(self, items, count, output_range):
        family = HashFamily(count, output_range, seed=3)
        columns = family.hash_columns([stable_hash64(item) for item in items])
        assert columns.shape == (count, len(items))
        for j, item in enumerate(items):
            assert columns[:, j].tolist() == family.hash_all(item)

    @settings(max_examples=40, deadline=None)
    @given(
        window_map=st.dictionaries(
            text_labels,
            st.dictionaries(
                text_labels, st.floats(min_value=0.01, max_value=10.0), max_size=5
            ),
            max_size=6,
        ),
        bands=st.integers(min_value=1, max_value=4),
        rows_per_band=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_segment_band_table_equals_reference(
        self, window_map, bands, rows_per_band, seed
    ):
        signatures = {
            owner: Signature(
                owner, {node: w for node, w in entries.items() if node != owner}
            )
            for owner, entries in window_map.items()
        }
        params = IndexParams(bands=bands, rows_per_band=rows_per_band, seed=seed)
        family = HashFamily(params.num_hashes, MERSENNE_61, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seg.rseg"
            write_segment(path, [(0, signatures)], index_params=params)
            segment = read_segment(path)
        assert segment.band_hashes.shape == (len(signatures), bands)
        for row in range(segment.num_rows):
            members = segment.signature_at(row).nodes
            want = reference_bands(
                reference_sketch(family, members), bands, rows_per_band, seed
            )
            assert segment.band_hashes[row].tolist() == want


@pytest.mark.parametrize("num_hashes,seed", [(32, 0), (128, 0), (128, 7), (32, 5)])
def test_minhasher_coefficients_are_the_hash_family_draw(num_hashes, seed):
    """On-disk band tables were written with these coefficients: pin them."""
    family = MinHasher(num_hashes=num_hashes, seed=seed)._family
    reference = HashFamily(num_hashes, MERSENNE_61, seed=seed)
    assert (family._a, family._b) == (reference._a, reference._b)
    rng = np.random.default_rng(seed)
    drawn_a = rng.integers(1, MERSENNE_61, size=num_hashes, dtype=np.int64)
    drawn_b = rng.integers(0, MERSENNE_61, size=num_hashes, dtype=np.int64)
    assert family._a == tuple(drawn_a.tolist())
    assert family._b == tuple(drawn_b.tolist())


class TestLshCandidatesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        bands=st.integers(min_value=1, max_value=4),
        rows_per_band=st.integers(min_value=1, max_value=3),
    )
    def test_candidates_share_an_equal_band_slice(self, data, bands, rows_per_band):
        width = bands * rows_per_band
        # Tiny value range: equal band slices are common.
        sketches = st.lists(
            st.integers(min_value=0, max_value=2), min_size=width, max_size=width
        )
        adds = data.draw(
            st.lists(st.tuples(st.sampled_from("abcde"), sketches), max_size=10)
        )
        query = data.draw(sketches)
        exclude = data.draw(st.sampled_from([None, "a", "b"]))

        index = LshIndex(bands=bands, rows_per_band=rows_per_band)
        current = {}
        for key, sketch in adds:
            index.add(key, np.asarray(sketch, dtype=np.uint64))
            current[key] = sketch  # re-adding replaces

        def slices(sketch):
            return [
                tuple(sketch[b * rows_per_band : (b + 1) * rows_per_band])
                for b in range(bands)
            ]

        expected = {
            key
            for key, sketch in current.items()
            if key != exclude
            and any(x == y for x, y in zip(slices(sketch), slices(query)))
        }
        got = index.candidates(np.asarray(query, dtype=np.uint64), exclude=exclude)
        assert got == expected
        assert len(index) == len(current)
