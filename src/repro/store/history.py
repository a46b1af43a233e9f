"""The append-only signature history store with time-travel queries.

A :class:`HistoryStore` directory contains:

* ``seg-<seq>.rseg`` — immutable columnar segments
  (:mod:`repro.store.segments`), each holding one or more complete windows;
* ``manifest.jsonl`` — the append-only manifest: one JSON line per
  committed segment, carrying the segment's SHA-256 and the windows it
  contributes.  Appends go through :func:`repro.ioutils.append_line`
  (write + fsync + dir-fsync), so a crash can tear at most the final line,
  which readers skip; the committed prefix is never damaged;
* ``state.json`` — small mutable run state (a
  :class:`~repro.pipeline.checkpoint.CheckpointStore` keeps the pipeline's
  ``run_state`` contract here), written atomically.

**Supersede semantics.**  The live view folds the manifest in order; a
line whose minimum window is ``m`` supersedes previously recorded windows
``>= m``.  This single rule serves both clients: pure history appends (all
windows strictly increasing) never supersede anything, while the checkpoint
store's "truncate the future, rewrite window ``w``" resume contract is one
ordinary append.  Superseded segments whose every window has been
replaced become garbage; :meth:`compact` removes them and folds the
manifest back to one line per live segment.

Queries never materialise history wholesale: "who looked like X in window
t" probes the per-segment LSH band table (:mod:`repro.store.index`) and
only decodes candidate rows for exact re-ranking; "trajectory of X" is a
vectorized scan of interned owner columns of the segments serving the
range.  Both touch mapped segments, so cost scales with matches, not with
months of stored windows.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.signature import Signature
from repro.exceptions import StoreError
from repro.ioutils import append_line, atomic_write, file_sha256
from repro.core.distances import get_distance
from repro.store.index import IndexParams, candidate_rows, query_band_hashes
from repro.store.segments import (
    SEGMENT_SUFFIX,
    Segment,
    read_segment,
    remove_segment,
    write_segment,
)

MANIFEST_NAME = "manifest.jsonl"
STATE_NAME = "state.json"

#: Most segments one store keeps mapped at once.  Each holds one file
#: descriptor until it is released, least recently used first.
OPEN_SEGMENTS = 64


@dataclass(frozen=True)
class SegmentRecord:
    """One committed manifest line: an immutable segment and its windows."""

    seq: int
    file: str
    sha256: str
    windows: Tuple[int, ...]
    rows: int
    nbytes: int

    def to_line(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "file": self.file,
                "sha256": self.sha256,
                "windows": list(self.windows),
                "rows": self.rows,
                "bytes": self.nbytes,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class StoreScan:
    """Result of a verifying :meth:`HistoryStore.scan`.

    ``windows`` maps every live window to the segment file serving it;
    ``issues`` lists human-readable problems found (torn manifest line,
    missing or corrupt segment, orphan file) — recovery code treats the
    scanned view as the durable truth and reports the rest.
    """

    windows: Dict[int, str]
    segments: List[SegmentRecord]
    issues: List[str] = field(default_factory=list)

    @property
    def max_window(self) -> int:
        return max(self.windows) if self.windows else -1


@dataclass(frozen=True)
class HistoryMatch:
    """One time-travel query hit: who looked like the query, and how much."""

    owner: str
    window: int
    distance: float
    signature: Signature


class HistoryStore:
    """Append-only columnar store of per-window signature maps.

    One store instance assumes single-writer, many-reader use: one thread
    appends (or scans, compacts, clears) while any number of threads read.
    Every read goes through one in-memory catalog, ``{window:
    SegmentRecord}`` in window order.  Opening and :meth:`scan` fold the
    manifest through :meth:`_apply`, the supersede rule; an append applies
    only its own record, so its cost does not grow with the stored history.
    At most :data:`OPEN_SEGMENTS` segments stay mapped, least recently used
    released first.  One lock guards the catalog's changes and the set of
    mapped segments; a reader that walks the catalog walks a copy taken
    under it.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        index_params: Optional[IndexParams] = IndexParams(),
        distance: str = "jaccard",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.index_params = index_params
        self.distance_name = distance
        self._distance = get_distance(distance)
        self._lock = threading.Lock()
        records, self._issues = self._parse_manifest_lines()
        self._fold(records)
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def state_path(self) -> Path:
        return self.directory / STATE_NAME

    def _parse_manifest_lines(self) -> Tuple[List[SegmentRecord], List[str]]:
        records: List[SegmentRecord] = []
        issues: List[str] = []
        if not self.manifest_path.exists():
            return records, issues
        raw = self.manifest_path.read_text(encoding="utf-8")
        lines = raw.split("\n")
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            torn_tail = position == len(lines) - 1 and not raw.endswith("\n")
            try:
                payload = json.loads(line)
                record = SegmentRecord(
                    seq=int(payload["seq"]),
                    file=str(payload["file"]),
                    sha256=str(payload["sha256"]),
                    windows=tuple(int(w) for w in payload["windows"]),
                    rows=int(payload["rows"]),
                    nbytes=int(payload["bytes"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                if torn_tail:
                    issues.append(
                        f"manifest: skipped torn final line {position + 1}"
                    )
                    continue
                raise StoreError(
                    f"{self.manifest_path}: unreadable manifest line "
                    f"{position + 1}: {exc}"
                ) from exc
            if not record.windows:
                raise StoreError(
                    f"{self.manifest_path}: manifest line {position + 1} "
                    f"records no windows"
                )
            records.append(record)
        return records, issues

    def _fold(self, records: Sequence[SegmentRecord]) -> None:
        """Rebuild the catalog from manifest lines, in manifest order."""
        with self._lock:
            self._catalog: Dict[int, SegmentRecord] = {}
            #: Mapped segments by file, least recently used first.
            self._open_segments: Dict[str, Segment] = {}
            self._live_segments = 0
            self._live_bytes = 0
            for record in records:
                self._apply(record)
        #: Sequence number of the next appended segment.
        self._next_seq = _seq_after(records)

    def _apply(self, record: SegmentRecord) -> None:
        """The supersede rule: drop live windows ``>=`` the record's
        smallest, then add its windows.  The caller holds the lock.

        The catalog stays in window order, and each record's live windows
        stay one contiguous run of it.  So the dropped windows are its
        tail, and a dropped record stays live only if it also serves the
        window the new tail ends on.
        """
        first = min(record.windows)
        dropped: Dict[str, SegmentRecord] = {}
        while self._catalog and next(reversed(self._catalog)) >= first:
            gone = self._catalog.popitem()[1]
            dropped[gone.file] = gone
        if self._catalog:
            dropped.pop(next(reversed(self._catalog.values())).file, None)
        for gone in dropped.values():
            self._live_segments -= 1
            self._live_bytes -= gone.nbytes
            self._open_segments.pop(gone.file, None)
        for window in sorted(record.windows):
            self._catalog[window] = record
        self._live_segments += 1
        self._live_bytes += record.nbytes

    def _refresh_gauges(self) -> None:
        obs.gauge("store.segments").set(self._live_segments)
        obs.gauge("store.bytes").set(self._live_bytes)

    def _open(self, file: str) -> Segment:
        """The mapped segment ``file``; a miss past :data:`OPEN_SEGMENTS`
        releases the least recently used one."""
        with self._lock:
            segment = self._open_segments.pop(file, None)
            if segment is None:
                segment = read_segment(self.directory / file)
                if len(self._open_segments) >= OPEN_SEGMENTS:
                    del self._open_segments[next(iter(self._open_segments))]
            self._open_segments[file] = segment
            return segment

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(
        self,
        windows: Sequence[Tuple[int, Mapping[str, Signature]]],
        *,
        metas: Optional[Mapping[int, Mapping]] = None,
        modes: Optional[Mapping[int, str]] = None,
    ) -> SegmentRecord:
        """Commit complete windows as one new immutable segment.

        Windows at or after the smallest appended window that were already
        stored are superseded (the checkpoint "truncate the future" resume
        contract); purely-ascending appends supersede nothing.  The segment
        is durable before its manifest line, the manifest line before
        return — a crash anywhere leaves either the old committed view or
        the new one.
        """
        if not windows:
            raise StoreError("append requires at least one window")
        seq = self._next_seq
        file = f"seg-{seq:06d}{SEGMENT_SUFFIX}"
        path = self.directory / file
        sha256 = write_segment(
            path, windows, metas=metas, modes=modes,
            index_params=self.index_params,
        )
        record = SegmentRecord(
            seq=seq,
            file=file,
            sha256=sha256,
            windows=tuple(int(w) for w, _ in windows),
            rows=sum(len(s) for _, s in windows),
            nbytes=os.path.getsize(path),
        )
        append_line(self.manifest_path, record.to_line())
        self._next_seq = seq + 1
        with self._lock:
            self._apply(record)
        obs.counter("store.appends").inc()
        obs.counter("store.rows_appended").inc(record.rows)
        self._refresh_gauges()
        return record

    def set_state(self, state: Mapping) -> None:
        """Atomically persist the small mutable run state blob."""
        with atomic_write(self.state_path) as handle:
            json.dump(dict(state), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def state(self) -> Optional[Dict]:
        if not self.state_path.exists():
            return None
        try:
            payload = json.loads(self.state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"{self.state_path}: unreadable state: {exc}") from exc
        if not isinstance(payload, dict):
            raise StoreError(f"{self.state_path}: state must be a JSON object")
        return payload

    def compact(self) -> List[str]:
        """Fold the manifest to live lines and delete superseded segments.

        Returns the names of removed segment files.  Queries before and
        after compaction see the identical live view: compaction rewrites
        the manifest from the catalog and only unlinks files no live window
        references.
        """
        live = self.segment_records()
        live_files = {record.file for record in live}
        removed: List[str] = []
        for path in sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}")):
            if path.name not in live_files:
                remove_segment(path)
                removed.append(path.name)
        with atomic_write(self.manifest_path) as handle:
            for record in live:
                handle.write(record.to_line() + "\n")
        self._refresh_gauges()
        return removed

    def clear(self) -> None:
        """Remove every segment, the manifest and the state file."""
        for path in sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}")):
            remove_segment(path)
        for path in (self.manifest_path, self.state_path):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._fold([])
        self._issues = []
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def scan(self) -> StoreScan:
        """Verify the store on disk and report every problem found.

        Re-reads the manifest, hash-verifies every live segment, drops
        windows whose segment is missing or corrupt, and lists orphan
        segment files (written but never committed, e.g. a crash between
        segment write and manifest append).  The returned view is what
        recovery should trust; the in-memory catalog is refreshed to it.
        """
        records, issues = self._parse_manifest_lines()
        self._fold(records)
        verified: List[SegmentRecord] = []
        for record in self.segment_records():
            path = self.directory / record.file
            if not path.exists():
                issues.append(f"{record.file}: missing segment file")
                continue
            actual = file_sha256(path)
            if actual != record.sha256:
                issues.append(
                    f"{record.file}: failed hash verification (manifest "
                    f"{record.sha256[:12]}, file {actual[:12]})"
                )
                continue
            try:
                read_segment(path)
            except StoreError as exc:
                issues.append(f"{record.file}: unreadable: {exc}")
                continue
            verified.append(record)
        good = {record.file for record in verified}
        with self._lock:
            self._catalog = {
                window: record
                for window, record in self._catalog.items()
                if record.file in good
            }
            self._live_segments = len(verified)
            self._live_bytes = sum(record.nbytes for record in verified)
        committed = {record.file for record in records}
        for path in sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}")):
            if path.name not in committed:
                issues.append(f"{path.name}: orphan segment (not in manifest)")
        self._issues = list(issues)
        self._refresh_gauges()
        return StoreScan(
            windows={window: record.file for window, record in self._catalog.items()},
            segments=verified,
            issues=issues,
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def windows(self) -> List[int]:
        """All live windows, ascending."""
        with self._lock:
            return list(self._catalog)

    def __contains__(self, window: int) -> bool:
        """Whether ``window`` is live in the store."""
        return self._record(window) is not None

    def max_window(self) -> int:
        """Highest live window, ``-1`` when the store is empty."""
        with self._lock:
            return next(reversed(self._catalog), -1)

    def issues(self) -> List[str]:
        """Problems noticed while loading the manifest (torn lines etc.)."""
        return list(self._issues)

    def segment_records(self) -> List[SegmentRecord]:
        """The live segment records, in manifest order."""
        with self._lock:
            return list(dict.fromkeys(self._catalog.values()))

    def window_record(self, window: int) -> SegmentRecord:
        """The live segment record serving ``window`` (raises when absent)."""
        record = self._record(window)
        if record is None:
            raise StoreError(f"window {window} is not in the history store")
        return record

    def _record(self, window: int) -> Optional[SegmentRecord]:
        with self._lock:
            return self._catalog.get(int(window))

    def _window_segment(self, window: int) -> Segment:
        return self._open(self.window_record(window).file)

    def load_window(self, window: int) -> Dict[str, Signature]:
        """All signatures of one window (raises when the window is absent)."""
        return self._window_segment(window).signatures_for_window(int(window))

    def window_meta(self, window: int) -> Dict:
        return self._window_segment(window).meta_for(int(window))

    def window_mode(self, window: int) -> str:
        return self._window_segment(window).mode_for(int(window))

    def signature(self, owner: str, window: int) -> Optional[Signature]:
        """One node's signature in one window, or ``None`` when absent."""
        record = self._record(window)
        if record is None:
            return None
        segment = self._open(record.file)
        lo, hi = segment.window_row_range(int(window))
        owner_id = segment.label_id(owner)
        if owner_id is None or hi <= lo:
            return None
        owners = segment.rows["owner"][lo:hi]
        matches = np.flatnonzero(owners == owner_id)
        if matches.size == 0:
            return None
        return segment.signature_at(lo + int(matches[0]))

    def trajectory(
        self,
        owner: str,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> List[Tuple[int, Signature]]:
        """``owner``'s signatures over live windows ``[start, stop)``,
        window-ascending.

        Opens only the segments serving a live window in the range.  Each
        resolves the owner through its interning table and one vectorized
        compare of the interned owner column; segments that never saw the
        owner decode nothing.
        """
        with obs.span("store.query", kind="trajectory"):
            # Records serve contiguous window runs, so this groups the
            # range's live windows by segment in window order.
            with self._lock:
                catalog = list(self._catalog.items())
            live: Dict[str, set] = {}
            for window, record in catalog:
                if (start is None or window >= start) and (
                    stop is None or window < stop
                ):
                    live.setdefault(record.file, set()).add(window)
            out: List[Tuple[int, Signature]] = []
            for file, windows in live.items():
                segment = self._open(file)
                for row in segment.rows_for_owner(owner, start, stop):
                    window = int(segment.rows[row]["window"])
                    if window in windows:
                        out.append((window, segment.signature_at(row)))
            return out

    def query(
        self,
        signature: Signature,
        window: int,
        *,
        k: int = 10,
        exhaustive: bool = False,
    ) -> List[HistoryMatch]:
        """Who looked like ``signature`` in ``window`` — the paper's
        masquerading/forensics primitive, answered from history.

        With the LSH index (the default), only rows sharing at least one
        MinHash band with the query are decoded and exactly re-ranked by
        the store's distance; ``exhaustive=True`` (or an unindexed
        segment) decodes the whole window.  Results are sorted by
        ``(distance, owner)`` and truncated to ``k`` — the ordering
        contract of :class:`repro.matching.index.SignatureIndex.query`,
        over the LSH candidate set rather than the full population (rows
        sharing no MinHash band with the query are never materialised;
        that is where the sub-linearity comes from).
        """
        if k < 1:
            raise StoreError(f"k must be >= 1, got {k}")
        window = int(window)
        record = self._record(window)
        if record is None:
            return []
        with obs.span("store.query", kind="lookalike"):
            segment = self._open(record.file)
            lo, hi = segment.window_row_range(window)
            if hi <= lo:
                return []
            use_index = (
                not exhaustive
                and self.index_params is not None
                and segment.band_hashes.shape[1]
                == getattr(self.index_params, "bands", 0)
                and segment.band_hashes.shape[1] > 0
            )
            if use_index:
                obs.counter("store.index_probes").inc()
                query_bands = query_band_hashes(signature, self.index_params)
                rows = lo + candidate_rows(
                    np.asarray(segment.band_hashes[lo:hi]), query_bands
                )
            else:
                rows = np.arange(lo, hi, dtype=np.int64)
            obs.counter("store.rows_considered").inc(int(rows.size))
            matches = [
                HistoryMatch(
                    owner=stored.owner,
                    window=window,
                    distance=float(self._distance(signature, stored)),
                    signature=stored,
                )
                for stored in (segment.signature_at(int(row)) for row in rows)
            ]
            matches.sort(key=lambda m: (m.distance, str(m.owner)))
            return matches[:k]


def _seq_after(records: Iterable[SegmentRecord]) -> int:
    """The sequence number following every committed manifest line."""
    return max((record.seq for record in records), default=-1) + 1
