"""Round-trip properties of the columnar segment format.

The encoding must be a pure function of its content (equal inputs give
equal bytes), decode back bit-exactly — including non-ASCII labels, empty
signatures and extreme float weights.
"""

from __future__ import annotations

import errno
import math
import mmap
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import SignaturePack
from repro.core.signature import Signature
from repro.exceptions import StoreError
from repro.store import (
    SEGMENT_MAGIC,
    IndexParams,
    encode_segment,
    read_segment,
    write_segment,
)
from repro.store import segments

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


# Weights that tie often, so entries order by label within a weight.
tied_weights = st.one_of(weights, st.sampled_from([0.25, 1.0, 3.0]))


@st.composite
def window_maps(draw, weight=weights):
    """One window's ``{owner: Signature}`` map (possibly-empty signatures)."""
    owners = draw(st.lists(node_labels, min_size=0, max_size=6, unique=True))
    out = {}
    for owner in owners:
        entries = draw(
            st.dictionaries(node_labels, weight, min_size=0, max_size=5)
        )
        entries.pop(owner, None)  # a signature cannot contain its owner
        out[owner] = Signature(owner, entries)
    return out


def roundtrip(tmp_path, windows, **kwargs):
    path = tmp_path / "seg.rseg"
    write_segment(path, windows, **kwargs)
    return read_segment(path)


def roundtrip_tmp(windows, **kwargs):
    """Hypothesis-friendly round-trip: fresh temp dir per example (the
    segment's mapping outlives its removed file)."""
    return segment_of(encode_segment(windows, **kwargs))


def segment_of(blob):
    """The segment read back from encoded bytes (fresh temp dir per call)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seg.rseg"
        path.write_bytes(blob)
        return read_segment(path)


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


@st.composite
def segment_inputs(draw, weight=weights):
    """Windows with distinct indices, optional metas and modes, and an
    optional index."""
    maps = draw(st.lists(window_maps(weight), min_size=1, max_size=4))
    indices = draw(
        st.lists(st.integers(0, 50), min_size=len(maps), max_size=len(maps), unique=True)
    )
    metas = {w: {"n": draw(st.integers(0, 9))} for w in indices if draw(st.booleans())}
    modes = {
        w: draw(st.sampled_from(["exact", "degraded-streaming"]))
        for w in indices
        if draw(st.booleans())
    }
    params = draw(
        st.none()
        | st.builds(
            IndexParams,
            bands=st.integers(1, 4),
            rows_per_band=st.integers(1, 3),
            seed=st.integers(0, 5),
        )
    )
    return list(zip(indices, maps)), dict(metas=metas, modes=modes, index_params=params)


class TestPacksEncodeAsMappings:
    @settings(max_examples=60, deadline=None)
    @given(inputs=segment_inputs(), data=st.data())
    def test_pack_and_decoded_mapping_give_equal_bytes(self, inputs, data):
        windows, options = inputs
        packs = []
        for window, window_map in windows:
            # Rows in a drawn order, taken from a pack without decoding.
            order = data.draw(st.permutations(list(window_map)))
            packs.append(
                (window, SignaturePack.from_signatures(
                    SignaturePack.from_signatures(window_map), order=order
                ))
            )
        decoded = [(window, dict(pack.items())) for window, pack in packs]
        blob = encode_segment(packs, **options)
        assert blob == encode_segment(decoded, **options)
        assert blob == encode_segment(windows, **options)

    def test_key_owner_mismatch_rejected(self):
        with pytest.raises(StoreError, match="does not match signature owner"):
            encode_segment([(0, {"a": Signature("b", {"x": 1.0})})])

    def test_non_string_label_in_a_pack_rejected(self):
        pack = SignaturePack.from_signatures({"a": Signature("a", {7: 1.0})})
        with pytest.raises(StoreError, match="string node labels"):
            encode_segment([(0, pack)])


def stored_options(segment):
    """The metas, modes and index parameters a segment was written with."""
    index = segment.header["index"]
    params = None
    if index["bands"]:
        params = IndexParams(index["bands"], index["rows_per_band"], index["seed"])
    windows = segment.windows()
    return dict(
        metas={w: segment.meta_for(w) for w in windows},
        modes={w: segment.mode_for(w) for w in windows},
        index_params=params,
    )


@contextmanager
def counting_signatures():
    """Count the :class:`Signature` objects built inside the block."""
    built = [0]
    original = Signature.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    with mock.patch.object(Signature, "__init__", counted):
        yield built


class TestLoadedWindowsArePacks:
    @settings(max_examples=60, deadline=None)
    @given(inputs=segment_inputs(tied_weights))
    def test_loaded_packs_encode_to_the_segment_bytes(self, inputs):
        windows, options = inputs
        blob = encode_segment(windows, **options)
        segment = segment_of(blob)
        with counting_signatures() as built:
            loaded = [(w, segment.signatures_for_window(w)) for w in segment.windows()]
        assert built == [0]
        assert all(isinstance(pack, SignaturePack) for _window, pack in loaded)
        assert encode_segment(loaded, **stored_options(segment)) == blob

    def test_unicode_ties_and_an_empty_window(self):
        windows = [
            (0, {
                "naïve-节点": Signature("naïve-节点", {"ψ": 1.0, "🛰": 1.0, "a": 2.0}),
                "Ω": Signature("Ω", {}),
                "b": Signature("b", {"🛰": 1.0, "naïve-节点": 5e-324}),
            }),
            (1, {}),
        ]
        blob = encode_segment(windows, index_params=IndexParams(bands=2, rows_per_band=2))
        segment = segment_of(blob)
        pack = segment.signatures_for_window(0)
        # Owners in stored (sorted) order, entries in signature order with
        # ties by label, members numbered first-seen.
        assert pack.owners == ("b", "naïve-节点", "Ω")
        assert pack.node_table == ("🛰", "naïve-节点", "a", "ψ")
        assert pack.data.tolist() == [1.0, 5e-324, 2.0, 1.0, 1.0]
        assert pack["naïve-节点"].entries == (("a", 2.0), ("ψ", 1.0), ("🛰", 1.0))
        assert len(segment.signatures_for_window(1)) == 0
        assert len(segment.signatures_for_window(7)) == 0
        loaded = [(w, segment.signatures_for_window(w)) for w in segment.windows()]
        assert encode_segment(loaded, **stored_options(segment)) == blob

    def test_one_row_decodes_through_the_pack(self):
        segment = segment_of(
            encode_segment([(0, {"n": Signature("n", {"x": 1.0, "y": 2.0})})])
        )
        with mock.patch.object(
            SignaturePack, "row", autospec=True, side_effect=SignaturePack.row
        ) as row:
            assert segment.signature_at(0) == Signature("n", {"x": 1.0, "y": 2.0})
        assert row.call_count == 1


def patched_column(blob, segment, name, value, position=0):
    """``blob`` with element ``position`` of int64 column ``name`` set to
    ``value``."""
    spec = segment.header["arrays"][name]
    at = spec["offset"] + 8 * position
    return blob[:at] + int(value).to_bytes(8, "little", signed=True) + blob[at + 8 :]


class TestDamagedColumns:
    def blob_and_segment(self):
        blob = encode_segment(
            [(0, {"a": Signature("a", {"x": 1.0, "y": 0.5}), "b": Signature("b", {"x": 2.0})})]
        )
        return blob, segment_of(blob)

    @pytest.mark.parametrize("label_id", [-1, 4, 99])
    def test_out_of_range_key_is_a_store_error(self, label_id):
        blob, segment = self.blob_and_segment()
        damaged = segment_of(patched_column(blob, segment, "keys", label_id, position=1))
        with pytest.raises(StoreError, match=r"seg\.rseg: label id out of range \[0, 4\)"):
            damaged.signatures_for_window(0)
        with pytest.raises(StoreError, match="label id out of range"):
            damaged.signature_at(0)

    def test_rows_past_the_entry_columns_are_a_store_error(self):
        blob, segment = self.blob_and_segment()
        # Row 1's start is field 2 of the second (owner, window, start,
        # count) record: point it past the 3 stored entries.
        damaged = segment_of(patched_column(blob, segment, "rows", 3, position=6))
        with pytest.raises(StoreError, match=r"row entries out of range \[0, 3\)"):
            damaged.signatures_for_window(0)


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


class TestMapping:
    def test_columns_are_read_only_views_of_one_mapping(self, tmp_path):
        segment = roundtrip(
            tmp_path,
            [(0, {"n": Signature("n", {"x": 1.0}), "m": Signature("m", {})})],
            index_params=IndexParams(bands=2, rows_per_band=2),
        )
        owners = set()
        for array in segment._arrays.values():
            assert not array.flags.writeable
            while isinstance(array, np.ndarray):
                array = array.base
            mapping = array.obj  # numpy wraps the buffer in a memoryview
            owners.add(id(mapping))
            assert isinstance(mapping, mmap.mmap)
        assert len(owners) == 1

    def test_mapping_failure_is_a_store_error(self, tmp_path, monkeypatch):
        path = tmp_path / "seg.rseg"
        write_segment(path, [(0, {"n": Signature("n", {"x": 1.0})})])

        def exhausted(*args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(segments.mmap, "mmap", exhausted)
        with pytest.raises(StoreError, match="seg.rseg: cannot open segment"):
            read_segment(path)


class TestIndexColumns:
    # The band table's values are checked against the definitional MinHash
    # in tests/matching/test_kernel_reference.py.
    def test_unindexed_segment_has_empty_band_table(self, tmp_path):
        segment = roundtrip(
            tmp_path, [(0, {"n": Signature("n", {"x": 1.0})})], index_params=None
        )
        assert segment.band_hashes.shape == (1, 0)
