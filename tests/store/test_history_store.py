"""HistoryStore behaviour: append/supersede, time travel, crash recovery.

The crash cases matter most: a segment written but never committed to the
manifest (orphan), a committed segment truncated on disk (corrupt), and a
torn final manifest line must all be *skipped and reported* — never turned
into wrong answers or exceptions on the read path.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.core.distances import get_distance
from repro.core.packed import SignaturePack
from repro.core.signature import Signature
from repro.exceptions import CheckpointError, StoreError
from repro.pipeline import CheckpointStore
from repro.store import HistoryStore, IndexParams, segments
from repro.store.history import MANIFEST_NAME, OPEN_SEGMENTS
from repro.store.index import candidate_rows, query_band_hashes
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

    def test_load_window_is_a_pack(self, tmp_path):
        store = make_store(tmp_path)
        pack = store.load_window(1)
        assert isinstance(pack, SignaturePack)
        assert pack.owners == ("a", "b")
        assert pack == {"a": sig("a", x=2.0, y=2.0), "b": sig("b", z=0.5)}


_MEMBERS = [f"n{i}" for i in range(8)] + ["ü", "节"]
_WEIGHTS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3))


@st.composite
def lookalike_windows(draw):
    """A window over a small member vocabulary (overlaps and weight ties
    are common), and a query signature over the same members."""

    def signature(owner):
        entries = draw(st.dictionaries(st.sampled_from(_MEMBERS), _WEIGHTS, max_size=5))
        entries.pop(owner, None)
        return Signature(owner, entries)

    owners = draw(st.lists(st.sampled_from(_MEMBERS + ["o1", "o2", "o3"]), unique=True, max_size=12))
    return {owner: signature(owner) for owner in owners}, signature("probe")


def stored_rows(segment, rows):
    """``(owner, Signature)`` of each row, decoded straight from the
    segment's columns."""
    keys, values, labels = segment._arrays["keys"], segment._arrays["values"], segment.labels()
    decoded = []
    for row in rows:
        owner, _window, start, count = segment.rows[row].tolist()
        entries = zip(keys[start : start + count].tolist(), values[start : start + count].tolist())
        decoded.append((labels[owner], Signature(labels[owner], {labels[k]: v for k, v in entries})))
    return decoded


def rerank(store, probe, window, k, exhaustive):
    """The scalar re-ranking oracle: the rows ``query`` considers, each
    decoded and scored with the store's scalar distance."""
    segment = segments.read_segment(store.directory / store.window_record(window).file)
    lo, hi = segment.window_row_range(window)
    rows = np.arange(lo, hi)
    if not exhaustive:
        bands = query_band_hashes(probe, store.index_params)
        rows = lo + candidate_rows(np.asarray(segment.band_hashes[lo:hi]), bands)
    distance = get_distance(store.distance_name)
    scored = [
        (float(distance(probe, stored)), owner, stored)
        for owner, stored in stored_rows(segment, rows.tolist())
    ]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(owner, score.hex(), stored) for score, owner, stored in scored[:k]]


class TestQueryMatchesScalarReranking:
    @pytest.mark.parametrize("distance", ["jaccard", "dice", "sdice", "shel"])
    @settings(max_examples=25, deadline=None)
    @given(case=lookalike_windows(), k=st.integers(1, 6), exhaustive=st.booleans())
    def test_owners_and_distance_bits(self, distance, case, k, exhaustive):
        window_map, probe = case
        with tempfile.TemporaryDirectory() as tmp:
            store = HistoryStore(
                tmp, index_params=IndexParams(bands=8, rows_per_band=1), distance=distance
            )
            # Window 1's rows follow window 0's in the segment.
            before = {"z": Signature("z", {"n1": 1.0, "n2": 0.5})}
            store.append([(0, before), (1, window_map)])
            hits = store.query(probe, 1, k=k, exhaustive=exhaustive)
            assert [
                (hit.owner, hit.distance.hex(), hit.signature) for hit in hits
            ] == rerank(store, probe, 1, k, exhaustive)
            assert all(hit.window == 1 for hit in hits)


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

    def test_segment_that_cannot_be_mapped_is_reported(self, tmp_path, monkeypatch):
        store = make_store(tmp_path)

        def exhausted(*args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(segments.mmap, "mmap", exhausted)
        scan = store.scan()
        assert scan.windows == {}
        for seq in range(3):
            assert any(
                issue.startswith(f"seg-{seq:06d}{SEGMENT_SUFFIX}: unreadable")
                and "Cannot allocate memory" in issue
                for issue in scan.issues
            )

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


def plant_out_of_range_key(directory):
    """Point the first stored key of the first segment past its label
    table, then stamp the manifest with the damaged file's SHA-256, so only
    the decoder can notice.  Returns the segment's file name."""
    manifest = directory / MANIFEST_NAME
    record = json.loads(manifest.read_text(encoding="utf-8").splitlines()[0])
    path = directory / record["file"]
    segment = segments.read_segment(path)
    at, bad_id = segment.header["arrays"]["keys"]["offset"], len(segment.labels()) + 3
    del segment
    blob = bytearray(path.read_bytes())
    blob[at : at + 8] = bad_id.to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    damaged_sha = hashlib.sha256(bytes(blob)).hexdigest()
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace(record["sha256"], damaged_sha),
        encoding="utf-8",
    )
    return record["file"]


class TestOutOfRangeLabelIds:
    def test_history_load_raises_a_store_error_naming_the_file(self, tmp_path):
        make_store(tmp_path)
        file = plant_out_of_range_key(tmp_path / "hist")
        store = HistoryStore(tmp_path / "hist")
        with pytest.raises(StoreError, match=rf"{file}: label id out of range"):
            store.load_window(0)

    def test_checkpoint_load_raises_a_checkpoint_error(self, tmp_path):
        make_store(tmp_path)
        file = plant_out_of_range_key(tmp_path / "hist")
        store = CheckpointStore(tmp_path / "hist")
        assert [entry.window for entry in store.scan().good] == [0, 1, 2]
        with pytest.raises(CheckpointError, match=rf"{file}: label id out of range"):
            store.load_window(0)


class TestConcurrentReads:
    def test_reads_while_appending_past_the_open_segment_bound(self, tmp_path):
        """One thread appends (with supersedes) more windows than the store
        keeps mapped while readers walk the catalog and map segments."""
        store = HistoryStore(tmp_path / "hist")
        store.append([(0, {"a": sig("a", x=1.0)})])
        stop, errors, reads = threading.Event(), [], []

        def read(reader):
            try:
                while not stop.is_set():
                    windows = [w for w, _ in store.trajectory("a")]
                    assert windows == list(range(len(windows)))
                    for window in range(reader, store.max_window() + 1, 4):
                        assert store.signature("a", window) is not None
                    reads.append(reader)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        readers = [
            threading.Thread(target=read, args=(reader,), daemon=True)
            for reader in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for window in range(1, 3 * OPEN_SEGMENTS):
                if window % 10 == 0:
                    # Resume's "truncate the future": rewrite the last window.
                    batch = [window - 1, window]
                else:
                    batch = [window]
                store.append([(w, {"a": sig("a", x=1.0 + w)}) for w in batch])
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert set(reads) == set(range(4))
        assert len(store.trajectory("a")) == 3 * OPEN_SEGMENTS


# A child process under a 256-descriptor limit stores 200 windows, one
# segment each, and sweeps trajectories over all of them; it prints how
# many descriptors the sweep left open.
OPEN_FILES_SCRIPT = textwrap.dedent(
    """
    import os, resource, sys, tempfile
    from repro.core.signature import Signature
    from repro.store import HistoryStore

    resource.setrlimit(resource.RLIMIT_NOFILE, (256, 256))
    owners = [f"h{i}" for i in range(4)]
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(tmp)
        for window in range(200):
            store.append([(window, {
                owner: Signature(owner, {f"p{(i + window) % 13}": 1.0 + i})
                for i, owner in enumerate(owners)
            })])
        before = len(os.listdir("/proc/self/fd"))
        for owner in owners:
            assert len(store.trajectory(owner)) == 200
        print(len(os.listdir("/proc/self/fd")) - before)
    """
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/fd"
)
def test_trajectory_sweeps_hold_a_bounded_set_of_open_files():
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        [source_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", OPEN_FILES_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # One descriptor per open segment, plus slack for the interpreter.
    assert int(result.stdout) <= OPEN_SEGMENTS + 8


# ----------------------------------------------------------------------
# Randomized catalog: every step keeps the incremental catalog equal to
# one folded from the manifest by a fresh store.
# ----------------------------------------------------------------------
catalog_steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 3)),
        st.tuples(st.just("supersede"), st.integers(0, 4), st.integers(1, 3)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("damage"), st.integers(0, 99), st.booleans()),
    ),
    min_size=1,
    max_size=12,
)


def _gauges(registry):
    return {name: value for name, _, value in registry.snapshot()["gauges"]}


def _view(store):
    """Everything a reader can see of the store's catalog."""
    return {
        "windows": store.windows(),
        "max_window": store.max_window(),
        "records": store.segment_records(),
        "window_records": {w: store.window_record(w) for w in store.windows()},
        "trajectories": {
            owner: [(w, dict(s.entries)) for w, s in store.trajectory(owner)]
            for owner in ("a", "b")
        },
        "loads": {
            w: {o: dict(s.entries) for o, s in store.load_window(w).items()}
            for w in store.windows()
        },
    }


def _fresh(directory):
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        store = HistoryStore(directory)
    return _view(store), _gauges(registry)


class TestRandomizedCatalog:
    @settings(max_examples=100, deadline=None)
    @given(steps=catalog_steps)
    def test_incremental_catalog_matches_a_fresh_fold(self, steps):
        registry = obs.MetricsRegistry()
        with tempfile.TemporaryDirectory() as tmp, obs.use_registry(registry):
            store = HistoryStore(tmp)
            for seq, step in enumerate(steps):
                # Content depends on the step, so a superseding append is
                # visible in every answer.
                def window(w):
                    return (
                        w,
                        {
                            owner: Signature(owner, {f"p{seq}": 1.0 + w})
                            for owner in ("a", "b")[: 1 + w % 2]
                        },
                    )

                kind = step[0]
                if kind == "append":
                    first = store.max_window() + 1
                    store.append([window(first + i) for i in range(step[1])])
                elif kind == "supersede":
                    first = max(0, store.max_window() - step[1])
                    store.append([window(first + i) for i in range(step[2])])
                elif kind == "compact":
                    store.compact()
                else:
                    records = store.segment_records()
                    if not records:
                        continue
                    victim = records[step[1] % len(records)]
                    path = Path(tmp) / victim.file
                    if step[2]:
                        path.unlink()
                    else:
                        path.write_bytes(path.read_bytes()[:40])
                    scan = store.scan()
                    assert any(victim.file in issue for issue in scan.issues)
                    assert store.windows() == sorted(scan.windows)
                    assert store.max_window() == scan.max_window
                    assert store.segment_records() == scan.segments
                    assert {
                        w: store.window_record(w).file for w in store.windows()
                    } == scan.windows
                    assert _gauges(registry)["store.bytes"] == sum(
                        record.nbytes for record in scan.segments
                    )
                    # Recover like a resume: recompute from the first
                    # dropped window, superseding the damaged segment.
                    dropped = [w for w in victim.windows if w not in scan.windows]
                    redo = min(dropped)
                    store.append([window(redo)])
                view, gauges = _fresh(tmp)
                assert _view(store) == view
                assert _gauges(registry) == gauges
