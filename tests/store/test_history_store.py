"""HistoryStore behaviour: append/supersede, time travel, crash recovery.

The crash cases matter most: a segment written but never committed to the
manifest (orphan), a committed segment truncated on disk (corrupt), and a
torn final manifest line must all be *skipped and reported* — never turned
into wrong answers or exceptions on the read path.
"""

from __future__ import annotations

import json

import pytest

from repro.core.signature import Signature
from repro.exceptions import StoreError
from repro.store import HistoryStore, IndexParams
from repro.store.history import MANIFEST_NAME
from repro.store.segments import SEGMENT_SUFFIX


def sig(owner, **entries):
    return Signature(owner, {k.replace("_", "-"): v for k, v in entries.items()})


def make_store(tmp_path, windows=3):
    store = HistoryStore(tmp_path / "hist")
    for window in range(windows):
        store.append(
            [
                (
                    window,
                    {
                        "a": sig("a", x=1.0 + window, y=2.0),
                        "b": sig("b", z=0.5),
                    },
                )
            ],
            metas={window: {"records": 10 + window}},
        )
    return store


class TestAppendAndRead:
    def test_windows_accumulate(self, tmp_path):
        store = make_store(tmp_path)
        assert store.windows() == [0, 1, 2]
        assert store.max_window() == 2
        assert dict(store.load_window(1)["a"].entries) == {"x": 2.0, "y": 2.0}
        assert store.window_meta(2) == {"records": 12}

    def test_fresh_instance_sees_committed_windows(self, tmp_path):
        make_store(tmp_path)
        reopened = HistoryStore(tmp_path / "hist")
        assert reopened.windows() == [0, 1, 2]
        assert reopened.signature("b", 0) is not None

    def test_append_supersedes_recorded_future(self, tmp_path):
        store = make_store(tmp_path)
        store.append([(1, {"c": sig("c", w=9.0)})])
        # Window 1 is replaced and window 2 (>= the new minimum) dropped:
        # the checkpoint store's truncate-and-rewrite resume contract.
        assert store.windows() == [0, 1]
        assert store.signature("a", 1) is None
        assert dict(store.signature("c", 1).entries) == {"w": 9.0}

    def test_non_sequential_appends_are_fine_for_history(self, tmp_path):
        store = HistoryStore(tmp_path / "h")
        store.append([(0, {"a": sig("a", x=1.0)}), (1, {"a": sig("a", x=2.0)})])
        store.append([(2, {"a": sig("a", x=3.0)})])
        assert store.windows() == [0, 1, 2]
        assert [w for w, _ in store.trajectory("a")] == [0, 1, 2]

    def test_state_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        store.set_state({"config": {"k": 10}})
        assert HistoryStore(tmp_path / "hist").state() == {"config": {"k": 10}}

    def test_appends_parse_the_manifest_at_most_once(self, tmp_path, monkeypatch):
        parses = []
        parse = HistoryStore._parse_manifest_lines

        def counted(store):
            parses.append(1)
            return parse(store)

        monkeypatch.setattr(HistoryStore, "_parse_manifest_lines", counted)
        store = HistoryStore(tmp_path / "hist")
        for window in range(50):
            store.append([(window, {"a": sig("a", x=1.0 + window)})])
        assert len(parses) <= 1
        assert [r.seq for r in store.segment_records()] == list(range(50))


class TestTimeTravel:
    def test_trajectory_bounds(self, tmp_path):
        store = make_store(tmp_path, windows=5)
        points = store.trajectory("a", 1, 4)
        assert [w for w, _ in points] == [1, 2, 3]
        assert all(p.owner == "a" for _, p in points)

    def test_query_finds_lookalike(self, tmp_path):
        store = HistoryStore(tmp_path / "h")
        crowd = {
            f"noise-{i}": sig(f"noise-{i}", **{f"n{i}{j}": 1.0 for j in range(3)})
            for i in range(20)
        }
        crowd["victim"] = Signature("victim", {"svc-a": 1.0, "svc-b": 2.0})
        # Identical neighbour set => identical MinHash sketch => the LSH
        # index must surface the masquerader with distance 0.
        crowd["masquerader"] = Signature("masquerader", {"svc-a": 1.0, "svc-b": 2.0})
        store.append([(0, crowd)])
        matches = store.query(crowd["victim"], 0, k=3)
        assert matches and matches[0].owner in ("masquerader", "victim")
        exact = [m for m in matches if m.distance == 0.0]
        assert {m.owner for m in exact} == {"masquerader", "victim"}

    def test_exhaustive_query_covers_all_rows(self, tmp_path):
        store = make_store(tmp_path)
        probe = sig("probe", q=1.0)
        hits = store.query(probe, 0, k=10, exhaustive=True)
        assert {hit.owner for hit in hits} == {"a", "b"}

    def test_query_missing_window_is_empty(self, tmp_path):
        store = make_store(tmp_path)
        assert store.query(sig("probe", q=1.0), 99) == []

    def test_query_rejects_bad_k(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(StoreError, match="k must be >= 1"):
            store.query(sig("probe", q=1.0), 0, k=0)


class TestCompaction:
    def test_compact_removes_dead_segments_only(self, tmp_path):
        store = make_store(tmp_path)
        store.append([(0, {"fresh": sig("fresh", x=1.0)})])  # supersedes all
        dir_ = store.directory
        before = sorted(p.name for p in dir_.glob(f"*{SEGMENT_SUFFIX}"))
        assert len(before) == 4
        removed = store.compact()
        assert len(removed) == 3
        after = sorted(p.name for p in dir_.glob(f"*{SEGMENT_SUFFIX}"))
        assert len(after) == 1
        assert store.windows() == [0]
        assert dict(store.load_window(0)["fresh"].entries) == {"x": 1.0}

    def test_compact_preserves_query_results(self, tmp_path):
        store = make_store(tmp_path, windows=4)
        store.append([(2, {"late": sig("late", x=7.0)})])
        probe = sig("probe", x=1.0, y=2.0)
        before = [
            (m.owner, m.window, m.distance)
            for m in store.query(probe, 1, k=5, exhaustive=True)
        ]
        trajectory_before = [(w, dict(s.entries)) for w, s in store.trajectory("a")]
        store.compact()
        after = [
            (m.owner, m.window, m.distance)
            for m in store.query(probe, 1, k=5, exhaustive=True)
        ]
        assert before == after
        reopened = HistoryStore(store.directory)
        assert [
            (w, dict(s.entries)) for w, s in reopened.trajectory("a")
        ] == trajectory_before


class TestCrashRecovery:
    def test_orphan_segment_is_reported_not_served(self, tmp_path):
        store = make_store(tmp_path)
        # Crash between segment write and manifest append: the file exists
        # but no manifest line commits it.
        orphan = store.directory / f"seg-999999{SEGMENT_SUFFIX}"
        orphan.write_bytes((store.directory / f"seg-000000{SEGMENT_SUFFIX}").read_bytes())
        scan = store.scan()
        assert any("orphan" in issue for issue in scan.issues)
        assert sorted(scan.windows) == [0, 1, 2]

    def test_truncated_segment_is_skipped_and_reported(self, tmp_path):
        store = make_store(tmp_path)
        target = store.directory / f"seg-000001{SEGMENT_SUFFIX}"
        blob = target.read_bytes()
        target.write_bytes(blob[: len(blob) // 2])  # torn mid-write
        fresh = HistoryStore(store.directory)
        scan = fresh.scan()
        assert any("seg-000001" in issue for issue in scan.issues)
        # The damaged window is dropped from the live view, the rest serve.
        assert sorted(scan.windows) == [0, 2]
        assert fresh.signature("a", 0) is not None
        assert fresh.signature("a", 1) is None

    def test_missing_segment_is_skipped_and_reported(self, tmp_path):
        store = make_store(tmp_path)
        (store.directory / f"seg-000002{SEGMENT_SUFFIX}").unlink()
        scan = store.scan()
        assert any("seg-000002" in issue for issue in scan.issues)
        assert sorted(scan.windows) == [0, 1]

    def test_torn_final_manifest_line_is_skipped(self, tmp_path):
        store = make_store(tmp_path)
        manifest = store.directory / MANIFEST_NAME
        with open(manifest, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "file": "seg-0000')  # no newline: torn
        fresh = HistoryStore(store.directory)
        assert fresh.windows() == [0, 1, 2]
        assert any("torn" in issue or "truncated" in issue for issue in fresh.issues())

    def test_corrupt_committed_manifest_line_raises(self, tmp_path):
        store = make_store(tmp_path)
        manifest = store.directory / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        lines[1] = "not json at all"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError):
            HistoryStore(store.directory)

    def test_append_after_recovery_continues_sequence(self, tmp_path):
        store = make_store(tmp_path)
        target = store.directory / f"seg-000002{SEGMENT_SUFFIX}"
        target.write_bytes(target.read_bytes()[:40])
        fresh = HistoryStore(store.directory)
        fresh.scan()
        fresh.append([(2, {"redo": sig("redo", x=1.0)})])
        assert fresh.windows() == [0, 1, 2]
        reopened = HistoryStore(store.directory)
        reopened.scan()
        assert dict(reopened.load_window(2)["redo"].entries) == {"x": 1.0}
