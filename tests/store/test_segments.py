"""Round-trip properties of the columnar segment format.

The encoding must be a pure function of its content (equal inputs give
equal bytes), decode back bit-exactly — including non-ASCII labels, empty
signatures and extreme float weights.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import Signature
from repro.exceptions import StoreError
from repro.store import (
    SEGMENT_MAGIC,
    IndexParams,
    encode_segment,
    read_segment,
    write_segment,
)

# Labels exercise the interning table: ASCII, combining marks, CJK, emoji,
# and the empty-adjacent single-codepoint cases.
node_labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)

# Signature entries must be strictly positive (core invariant); span the
# full positive float64 range including subnormals.
# Total weight must stay finite (Signature fsums its entries), so the cap
# leaves headroom for several near-max entries in one signature.
weights = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300, allow_nan=False),
    st.just(5e-324),
)


@st.composite
def window_maps(draw):
    """One window's ``{owner: Signature}`` map (possibly-empty signatures)."""
    owners = draw(st.lists(node_labels, min_size=0, max_size=6, unique=True))
    out = {}
    for owner in owners:
        entries = draw(
            st.dictionaries(node_labels, weights, min_size=0, max_size=5)
        )
        entries.pop(owner, None)  # a signature cannot contain its owner
        out[owner] = Signature(owner, entries)
    return out


def roundtrip(tmp_path, windows, **kwargs):
    path = tmp_path / "seg.rseg"
    write_segment(path, windows, **kwargs)
    return read_segment(path)


def roundtrip_tmp(windows, **kwargs):
    """Hypothesis-friendly round-trip: fresh temp dir per example (mmap off
    so the file can be removed immediately)."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seg.rseg"
        write_segment(path, windows, **kwargs)
        return read_segment(path, mmap=False)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(window_map=window_maps())
    def test_single_window_roundtrips_exactly(self, window_map):
        segment = roundtrip_tmp([(0, window_map)])
        decoded = segment.signatures_for_window(0)
        assert set(decoded) == set(window_map)
        for owner, signature in window_map.items():
            got = decoded[owner]
            assert got.owner == owner
            # Bit-exact float64 round-trip: compare raw reprs, not approx.
            assert dict(got.entries) == dict(signature.entries)

    @settings(max_examples=30, deadline=None)
    @given(maps=st.lists(window_maps(), min_size=1, max_size=4))
    def test_multi_window_roundtrips_in_order(self, maps):
        windows = list(enumerate(maps))
        segment = roundtrip_tmp(windows)
        assert segment.windows() == [w for w, _ in windows]
        for window, window_map in windows:
            decoded = segment.signatures_for_window(window)
            assert {
                owner: dict(sig.entries) for owner, sig in decoded.items()
            } == {
                owner: dict(sig.entries) for owner, sig in window_map.items()
            }

    @settings(max_examples=30, deadline=None)
    @given(window_map=window_maps())
    def test_encoding_is_deterministic(self, window_map):
        params = IndexParams(bands=2, rows_per_band=2)
        first = encode_segment([(0, window_map)], index_params=params)
        second = encode_segment([(0, dict(window_map))], index_params=params)
        assert first == second
        assert first.startswith(SEGMENT_MAGIC)


class TestEdgeCases:
    def test_non_ascii_labels(self, tmp_path):
        window_map = {
            "naïve-节点": Signature("naïve-节点", {"ψ-dst": 0.5, "🛰": 1.25}),
            "Ω": Signature("Ω", {}),
        }
        segment = roundtrip(tmp_path, [(0, window_map)])
        decoded = segment.signatures_for_window(0)
        assert dict(decoded["naïve-节点"].entries) == {"ψ-dst": 0.5, "🛰": 1.25}
        assert decoded["Ω"].entries == ()

    def test_empty_signatures_and_empty_window(self, tmp_path):
        windows = [
            (0, {"lonely": Signature("lonely", {})}),
            (1, {}),
            (2, {"busy": Signature("busy", {"x": 1.0})}),
        ]
        segment = roundtrip(tmp_path, windows)
        assert segment.windows() == [0, 1, 2]
        assert segment.signatures_for_window(0)["lonely"].entries == ()
        assert segment.signatures_for_window(1) == {}
        assert dict(segment.signatures_for_window(2)["busy"].entries) == {"x": 1.0}

    def test_large_and_tiny_weights_bit_exact(self, tmp_path):
        values = {
            "huge": 1.7976931348623157e308,  # largest finite float64
            "tiny": 5e-324,  # smallest subnormal
            "pi": math.pi,
        }
        window_map = {"n": Signature("n", values)}
        segment = roundtrip(tmp_path, [(0, window_map)])
        decoded = dict(segment.signatures_for_window(0)["n"].entries)
        for key, value in values.items():
            # == catches value equality; repr catches the exact bit pattern.
            assert decoded[key] == value and repr(decoded[key]) == repr(value)

    def test_non_string_labels_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="string node labels"):
            encode_segment([(0, {(1, 2): Signature((1, 2), {"x": 1.0})})])

    def test_metas_and_modes_roundtrip(self, tmp_path):
        windows = [(3, {"n": Signature("n", {"x": 1.0})})]
        segment = roundtrip(
            tmp_path,
            windows,
            metas={3: {"records": 17}},
            modes={3: "degraded"},
        )
        assert segment.meta_for(3) == {"records": 17}
        assert segment.mode_for(3) == "degraded"


class TestIndexColumns:
    # The band table's values are checked against the definitional MinHash
    # in tests/matching/test_kernel_reference.py.
    def test_unindexed_segment_has_empty_band_table(self, tmp_path):
        segment = roundtrip(
            tmp_path, [(0, {"n": Signature("n", {"x": 1.0})})], index_params=None
        )
        assert segment.band_hashes.shape == (1, 0)
