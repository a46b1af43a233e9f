"""CheckpointStore over history segments: the store-level contract.

A checkpoint window is one segment of a HistoryStore. These cases drive the
store directly, reopening the directory where a fresh process would.
"""

from __future__ import annotations

import pytest

from repro.core.signature import Signature
from repro.exceptions import CheckpointError
from repro.pipeline.checkpoint import CheckpointStore
from repro.store.segments import SEGMENT_SUFFIX


class TestCheckpointContract:
    def test_save_and_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "h")
        signatures = {"a": Signature("a", {"x": 1.5}), "b": Signature("b", {"y": 2.0})}
        entry = store.save_window(0, signatures, {"records": 3})
        assert entry.window == 0
        loaded, meta = CheckpointStore(tmp_path / "h").load_window(0)
        assert meta["records"] == 3
        assert {k: dict(v.entries) for k, v in loaded.items()} == {
            "a": {"x": 1.5},
            "b": {"y": 2.0},
        }

    def test_non_sequential_save_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "h")
        with pytest.raises(CheckpointError):
            store.save_window(1, {"a": Signature("a", {"x": 1.0})}, {})

    def test_corrupt_segment_fails_hash_verification(self, tmp_path):
        store = CheckpointStore(tmp_path / "h")
        store.save_window(0, {"a": Signature("a", {"x": 1.0})}, {})
        [segment] = store.directory.glob(f"*{SEGMENT_SUFFIX}")
        blob = bytearray(segment.read_bytes())
        blob[-1] ^= 0xFF
        segment.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="hash verification"):
            CheckpointStore(tmp_path / "h").load_window(0)

    def test_scan_reports_contiguous_prefix(self, tmp_path):
        store = CheckpointStore(tmp_path / "h")
        for window in range(3):
            store.save_window(window, {"a": Signature("a", {"x": 1.0 + window})}, {})
        [*_, last] = sorted(store.directory.glob(f"*{SEGMENT_SUFFIX}"))
        last.unlink()
        scan = CheckpointStore(tmp_path / "h").scan()
        assert scan.next_window == 2
        assert scan.issues
