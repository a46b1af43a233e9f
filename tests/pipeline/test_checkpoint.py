"""The checkpoint contract: per-window checkpoints in the history store.

The acceptance bar is *byte identity*: a resumed pipeline must reproduce
exactly what an uninterrupted run produces, and the run-state ``contract``
stamp must refuse cross-strategy resumes.
"""

import json

import pytest

from repro.core.signature import Signature
from repro.core.signature_io import save_signatures
from repro.exceptions import CheckpointError
from repro.ioutils import atomic_write, file_sha256
from repro.pipeline import IterableRecordSource, PipelineConfig, SignaturePipeline
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.faults import FlakyCheckpointStore, corrupt_checkpoint_file
from repro.store.segments import SEGMENT_SUFFIX, read_segment


def sigs(*owners):
    return {owner: Signature(owner, {f"{owner}-peer": 1.0}) for owner in owners}


def trace_records(n=120, hosts=6, services=9):
    return [
        (
            float(i),
            f"host-{i % hosts:03d}",
            f"svc-{(i * 7) % services:03d}",
            1.0 + (i % 5) * 0.25,
        )
        for i in range(n)
    ]


def run_pipeline(store, *, resume=False, num_windows=4):
    source = IterableRecordSource(trace_records())
    config = PipelineConfig(scheme="tt", k=5, num_windows=num_windows)
    return SignaturePipeline(source, store, config).run(resume=resume)


def window_bytes(signatures, tmp_path, name):
    """Canonical byte serialisation of one window's signature map."""
    path = tmp_path / name
    save_signatures(signatures, path)
    return path.read_bytes()


class TestAtomicWrite:
    def test_success_replaces_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(path) as handle:
            handle.write("new")
        assert path.read_text() == "new"
        assert not (tmp_path / "out.txt.tmp").exists()

    def test_failure_preserves_original(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "old"
        assert not (tmp_path / "out.txt.tmp").exists()

    def test_read_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_write(tmp_path / "x", mode="r"):
                pass


class TestCheckpointStore:
    def test_save_and_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        entry = store.save_window(0, sigs("a", "b"), {"num_records": 7})
        assert entry.window == 0
        loaded, meta = store.load_window(0)
        assert set(loaded) == {"a", "b"}
        assert loaded["a"] == Signature("a", {"a-peer": 1.0})
        assert meta["num_records"] == 7

    def test_windows_must_be_sequential(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        with pytest.raises(CheckpointError):
            store.save_window(2, sigs("a"))

    def test_overwrite_truncates_later_windows(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        for window in range(3):
            store.save_window(window, sigs(f"w{window}"))
        store.save_window(1, sigs("redo"))
        scan = store.scan()
        assert [entry.window for entry in scan.good] == [0, 1]

    def test_scan_verifies_hashes(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        store.save_window(1, sigs("b"))
        scan = store.scan()
        assert [entry.window for entry in scan.good] == [0, 1]
        assert scan.next_window == 2
        assert not scan.issues

    def test_corrupt_window_truncates_good_prefix(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        for window in range(3):
            store.save_window(window, sigs(f"w{window}"))
        # Simulate on-disk corruption of window 1.
        store.window_path(1).write_text("{torn")
        scan = store.scan()
        assert [entry.window for entry in scan.good] == [0]
        assert any("hash" in issue for issue in scan.issues)

    def test_missing_window_file_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        store.window_path(0).unlink()
        scan = store.scan()
        assert scan.good == []
        assert any("missing" in issue for issue in scan.issues)

    def test_unreadable_manifest_is_reported_not_fatal(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        store.history.manifest_path.write_text("not json at all")
        scan = store.scan()
        assert scan.good == []
        assert any("manifest" in issue for issue in scan.issues)

    def test_load_missing_window_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(CheckpointError):
            store.load_window(0)

    def test_load_corrupt_window_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        store.window_path(0).write_text('{"version": 1}')
        with pytest.raises(CheckpointError):
            store.load_window(0)

    def test_manifest_hash_matches_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        entry = store.save_window(0, sigs("a"))
        assert file_sha256(store.window_path(0)) == entry.sha256
        # The save lands as one appended manifest line naming the segment.
        line = json.loads(store.history.manifest_path.read_text().splitlines()[0])
        assert (line["file"], line["sha256"]) == (entry.file, entry.sha256)

    def test_run_state_roundtrips(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.set_run_state({"contract": "exact", "config": {"k": 5}})
        fresh = CheckpointStore(tmp_path / "ckpt")
        assert fresh.run_state() == {"contract": "exact", "config": {"k": 5}}

    def test_clear_removes_everything(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        store.set_run_state({"contract": "exact"})
        store.clear()
        assert store.scan().next_window == 0
        assert store.run_state() == {}
        assert list(store.directory.iterdir()) == []


class TestLoadVerification:
    """``load_window`` must verify the manifest digest, not trust the parse."""

    def test_bit_flip_detected_by_hash(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a", "b"))
        corrupt_checkpoint_file(store.window_path(0))
        with pytest.raises(CheckpointError, match="hash verification"):
            store.load_window(0)

    def test_corruption_that_still_parses_is_detected(self, tmp_path):
        # The nasty case: a flipped bit in a float64 weight still decodes
        # into a plausible signature — only the SHA-256 check can catch it,
        # and a silent wrong answer is exactly what must never happen.
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        path = store.window_path(0)
        offset = read_segment(path).header["arrays"]["values"]["offset"]
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
        decoded = read_segment(path).signatures_for_window(0)
        assert decoded["a"] != sigs("a")["a"]
        with pytest.raises(CheckpointError, match="hash verification"):
            store.load_window(0)

    def test_untouched_windows_still_load(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save_window(0, sigs("a"))
        store.save_window(1, sigs("b"))
        corrupt_checkpoint_file(store.window_path(1))
        signatures, _meta = store.load_window(0)
        assert set(signatures) == {"a"}
        with pytest.raises(CheckpointError):
            store.load_window(1)


class TestFlakyCheckpointStoreLoads:
    """Load-side fault injection (the save side is covered by chaos tests)."""

    def test_transient_load_failures_then_success(self, tmp_path):
        store = FlakyCheckpointStore(tmp_path / "ckpt", failures=0, load_failures=2)
        store.save_window(0, sigs("a"))
        for _ in range(2):
            with pytest.raises(OSError, match="injected transient"):
                store.load_window(0)
        signatures, _meta = store.load_window(0)
        assert set(signatures) == {"a"}
        assert store.load_attempts == 3

    def test_corrupt_load_raises_never_lies(self, tmp_path):
        store = FlakyCheckpointStore(tmp_path / "ckpt", failures=0, corrupt_loads=(1,))
        store.save_window(0, sigs("a"))
        store.save_window(1, sigs("b"))
        signatures, _meta = store.load_window(0)
        assert set(signatures) == {"a"}
        with pytest.raises(CheckpointError, match="hash verification"):
            store.load_window(1)
        # After the injected bit rot, a rescan refuses the window too.
        assert store.scan().next_window == 1


class TestByteIdenticalResume:
    def test_resume_is_byte_identical(self, tmp_path):
        baseline = run_pipeline(CheckpointStore(tmp_path / "ckpt"))
        resumed = run_pipeline(CheckpointStore(tmp_path / "ckpt"), resume=True)
        assert [r.mode for r in resumed.report.windows] == (
            ["cached"] * len(baseline.signatures)
        )
        for window, (left, right) in enumerate(
            zip(baseline.signatures, resumed.signatures)
        ):
            assert window_bytes(left, tmp_path, f"b{window}.json") == window_bytes(
                right, tmp_path, f"h{window}.json"
            ), f"resumed window {window} diverged from the uninterrupted run"

    def test_resume_after_truncated_tail_recomputes_it(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        baseline = run_pipeline(store)
        [*_, last] = sorted(store.directory.glob(f"*{SEGMENT_SUFFIX}"))
        blob = last.read_bytes()
        last.write_bytes(blob[: len(blob) // 3])
        resumed = run_pipeline(CheckpointStore(tmp_path / "ckpt"), resume=True)
        for window, (left, right) in enumerate(
            zip(baseline.signatures, resumed.signatures)
        ):
            assert window_bytes(left, tmp_path, f"x{window}.json") == window_bytes(
                right, tmp_path, f"y{window}.json"
            )

    def test_contract_stamp_refuses_cross_strategy_resume(self, tmp_path):
        # Checkpoints of a run under the since-removed sketch strategy carry
        # the "sketch" contract; an exact run must not resume onto them.
        store = CheckpointStore(tmp_path / "ckpt")
        config = PipelineConfig(scheme="tt", k=5, num_windows=3)
        SignaturePipeline(IterableRecordSource(trace_records()), store, config).run()
        store.set_run_state({**store.run_state(), "contract": "sketch"})
        with pytest.raises(CheckpointError, match="contract: checkpoint has 'sketch'"):
            SignaturePipeline(
                IterableRecordSource(trace_records()),
                CheckpointStore(tmp_path / "ckpt"),
                config,
            ).run(resume=True)
