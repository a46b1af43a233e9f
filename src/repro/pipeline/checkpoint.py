"""Durable per-window checkpoints, stored as signature history.

A checkpoint directory *is* a :class:`~repro.store.history.HistoryStore`:
each completed window is appended as one immutable columnar segment, and
the run-state record a resume checks lives in the store's state file.  A
finished run is therefore already a queryable history ("who looked like X
in window t") and nothing is stored twice.

Resume never trusts a file blindly: :meth:`CheckpointStore.scan`
hash-verifies every live segment against the store's SHA-256 manifest and
returns the longest verified window prefix, so a corrupted or truncated
segment degrades to "redo that window" rather than poisoning the resumed
run.  The store's supersede rule (an append at window ``w`` drops recorded
windows ``>= w``) is the "recompute from here" truncation rule, and
segments keep weights as raw float64, so resumed output is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro.core.packed import SignaturePack
from repro.core.signature import Signature
from repro.exceptions import CheckpointError, StoreError
from repro.ioutils import file_sha256
from repro.store.history import HistoryStore, SegmentRecord


@dataclass(frozen=True)
class WindowEntry:
    """One completed window and the segment file (and hash) holding it."""

    window: int
    file: str
    sha256: str
    mode: str = "exact"


@dataclass
class CheckpointScan:
    """Result of validating a checkpoint directory.

    ``good`` is the longest contiguous prefix of windows whose segments
    exist and hash-verify; ``issues`` explains anything that stopped the
    scan early (missing or corrupt segment, torn manifest line).
    """

    good: List[WindowEntry] = field(default_factory=list)
    issues: List[str] = field(default_factory=list)

    @property
    def next_window(self) -> int:
        """Index of the first window that still needs computing."""
        return len(self.good)


class CheckpointStore:
    """Durable per-window signature storage under one directory.

    ``history`` is the underlying store; queries ("who looked like X",
    trajectories) read it directly.
    """

    def __init__(self, directory: str | Path) -> None:
        self.history = HistoryStore(directory)
        self.directory = self.history.directory

    def _record(self, window: int) -> SegmentRecord:
        try:
            return self.history.window_record(window)
        except StoreError as exc:
            raise CheckpointError(
                f"no checkpoint for window {window} in {self.directory}"
            ) from exc

    def window_path(self, window: int) -> Path:
        """The live segment file holding ``window``."""
        return self.directory / self._record(window).file

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save_window(
        self,
        window: int,
        signatures: Mapping[str, Signature],
        meta: Mapping | None = None,
        mode: str = "exact",
    ) -> WindowEntry:
        """Durably persist one window as a new segment.

        ``signatures`` is the window's
        :class:`~repro.core.packed.SignaturePack` (or any
        ``{owner: Signature}`` mapping, packed on write).

        ``window`` must be the next unwritten index, or an already-written
        index (in which case it is overwritten and any later windows are
        discarded — the resume semantics of "recompute from here").
        """
        next_window = self.history.max_window() + 1
        if window > next_window:
            raise CheckpointError(
                f"cannot save window {window}: only {next_window} windows "
                f"checkpointed so far (windows are checkpointed in order)"
            )
        try:
            record = self.history.append(
                [(window, signatures)],
                metas={window: dict(meta or {})},
                modes={window: mode},
            )
        except StoreError as exc:
            raise CheckpointError(str(exc)) from exc
        return WindowEntry(
            window=window, file=record.file, sha256=record.sha256, mode=mode
        )

    def set_run_state(self, state: Mapping) -> None:
        """Persist run-level state (scheme identity, contract).

        The pipeline stamps its configuration here so a resume can verify
        the checkpointed prefix was produced under a compatible
        configuration before appending new windows to it.
        """
        self.history.set_state(state)

    def run_state(self) -> Dict:
        """The run-level state (empty when none was stamped or unreadable)."""
        try:
            return self.history.state() or {}
        except StoreError:
            return {}

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def scan(self) -> CheckpointScan:
        """Hash-verify the store and return the longest good window prefix."""
        scan = CheckpointScan()
        try:
            store_scan = self.history.scan()
        except StoreError as exc:
            scan.issues.append(str(exc))
            return scan
        scan.issues.extend(store_scan.issues)
        records = {record.file: record for record in store_scan.segments}
        window = 0
        while window in store_scan.windows:
            record = records[store_scan.windows[window]]
            scan.good.append(
                WindowEntry(
                    window=window,
                    file=record.file,
                    sha256=record.sha256,
                    mode=self.history.window_mode(window),
                )
            )
            window += 1
        trailing = sorted(w for w in store_scan.windows if w > window)
        if trailing:
            scan.issues.append(
                f"windows {trailing} follow a gap at window {window}; "
                f"discarding them"
            )
        return scan

    def load_window(self, window: int) -> Tuple[SignaturePack, Dict]:
        """Load one window's signatures (a pack over its segment's
        columns) and metadata.

        Verifies the segment's SHA-256 against the manifest first, so bit
        rot that still decodes (a flipped byte in a float64 weight, say)
        surfaces as :class:`~repro.exceptions.CheckpointError` instead of
        a silently wrong signature.
        """
        record = self._record(window)
        if file_sha256(self.directory / record.file) != record.sha256:
            raise CheckpointError(
                f"checkpoint segment {record.file} failed hash verification"
            )
        try:
            return self.history.load_window(window), self.history.window_meta(window)
        except StoreError as exc:
            raise CheckpointError(str(exc)) from exc

    def clear(self) -> None:
        """Remove every segment, the manifest and the run state."""
        self.history.clear()
