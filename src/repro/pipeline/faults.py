"""Fault-injection harness for chaos-testing the pipeline.

The paper measures signature robustness by *perturbing the graph* (Section
IV-C); this module extends the same idea one layer down, perturbing the
**data path**: corrupt CSV rows, duplicated and out-of-order records,
transient IO failures, and crashes at window boundaries.  Everything is
seeded and deterministic so chaos tests are reproducible, and every
injector is a wrapper — production code paths run unmodified underneath.

Typical wiring::

    source = FlakySource(CsvRecordSource(path, errors="quarantine"), failures=2)
    store = FlakyCheckpointStore(tmp_dir, failures=1)
    crash = CrashInjector(at_window=1)
    pipeline = SignaturePipeline(source, store, config, hooks=[crash])
    try:
        pipeline.run()
    except SimulatedCrash:
        ...                      # "the process died"
    pipeline = SignaturePipeline(source, store, config)
    result = pipeline.run(resume=True)
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import List

from repro.graph.stream import ReadReport
from repro.ioutils import atomic_write
from repro.pipeline.checkpoint import CheckpointStore, WindowEntry
from repro.pipeline.report import WindowReport
from repro.pipeline.sources import RecordSource


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashInjector` to model a process dying.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: nothing in
    the library may catch it, exactly as nothing can catch SIGKILL.
    """


class CrashInjector:
    """Kills the run (raises :class:`SimulatedCrash`) at a window boundary.

    Used as a pipeline hook, it fires *after* window ``at_window`` has been
    durably checkpointed — the worst honest crash point, since everything
    before it must survive and everything after it must be redone.
    """

    def __init__(self, at_window: int) -> None:
        self.at_window = at_window
        self.fired = False

    def __call__(self, window: int, report: WindowReport) -> None:
        if window == self.at_window:
            self.fired = True
            raise SimulatedCrash(
                f"injected crash after checkpointing window {window}"
            )


class FlakySource(RecordSource):
    """Wraps a source so its first ``failures`` reads raise ``OSError``.

    Models a briefly unavailable trace file (NFS hiccup, rotating log);
    exercised by the pipeline's retry path.
    """

    def __init__(self, inner: RecordSource, failures: int = 1) -> None:
        self.inner = inner
        self.remaining = failures
        self.attempts = 0

    def read(self) -> ReadReport:
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise OSError("injected transient source failure")
        return self.inner.read()

    @property
    def errors(self) -> str:
        return getattr(self.inner, "errors", "strict")

    def describe(self) -> str:
        return f"flaky({self.inner.describe()})"


class FlakyCheckpointStore(CheckpointStore):
    """A checkpoint store with injectable save- and load-side faults.

    * the first ``failures`` writes raise ``OSError`` (transient disk
      trouble, exercised by the pipeline's retry path);
    * the first ``load_failures`` loads raise ``OSError`` (the file is
      there but briefly unreadable);
    * with ``corrupt_loads`` set, every load of a window in it first flips
      a byte of the window's segment on disk — the resume path must then
      *detect* the damage through the SHA-256 manifest
      (:meth:`~repro.pipeline.checkpoint.CheckpointStore.scan` refuses the
      window; a direct ``load_window`` raises
      :class:`~repro.exceptions.CheckpointError`), never return a silently
      wrong answer.
    """

    def __init__(
        self,
        directory,
        failures: int = 1,
        *,
        load_failures: int = 0,
        corrupt_loads: tuple = (),
    ) -> None:
        super().__init__(directory)
        self.remaining = failures
        self.attempts = 0
        self.load_remaining = load_failures
        self.load_attempts = 0
        self.corrupt_loads = tuple(corrupt_loads)

    def save_window(self, window, signatures, meta=None, mode="exact") -> WindowEntry:
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise OSError("injected transient checkpoint-write failure")
        return super().save_window(window, signatures, meta, mode=mode)

    def load_window(self, window):
        self.load_attempts += 1
        if self.load_remaining > 0:
            self.load_remaining -= 1
            raise OSError("injected transient checkpoint-read failure")
        if window in self.corrupt_loads:
            corrupt_checkpoint_file(self.window_path(window))
        return super().load_window(window)


def corrupt_checkpoint_file(path: str | Path, flip_at: int = 16) -> Path:
    """Flip one byte of a checkpoint segment in place (bit rot, torn write).

    The store's manifest is left untouched, so only SHA-256 verification —
    not a parse error or luck — can catch the mismatch.  Returns the path.
    """
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        raise ValueError(f"checkpoint {target} is empty; nothing to corrupt")
    position = min(flip_at, len(data) - 1)
    data[position] ^= 0xFF
    target.write_bytes(bytes(data))
    return target


# ----------------------------------------------------------------------
# CSV-level corruption (exercises the errors="skip"/"quarantine" path)
# ----------------------------------------------------------------------
_CORRUPTIONS = ("garbage-time", "missing-column", "negative-weight", "garbage-weight")


def _corrupt_line(line: str, rng: random.Random) -> str:
    cells = line.split(",")
    kind = rng.choice(_CORRUPTIONS)
    if kind == "garbage-time":
        cells[0] = "not-a-time"
    elif kind == "missing-column" and len(cells) > 1:
        cells = cells[:-1]
    elif kind == "negative-weight":
        cells[-1] = "-7"
    else:
        cells[-1] = "NaN-ish"
    return ",".join(cells)


def corrupt_csv_rows(
    path: str | Path,
    out_path: str | Path,
    fraction: float = 0.01,
    seed: int = 0,
) -> int:
    """Copy an interchange CSV, corrupting ~``fraction`` of its data rows.

    Corruption modes rotate through unparsable times/weights, dropped
    columns and negative weights — each rejected (not crashed on) by
    ``errors="skip"``/``"quarantine"`` ingestion.  Returns the number of
    rows corrupted.
    """
    rng = random.Random(seed)
    header, rows = _read_lines(path)
    corrupted = 0
    out_rows: List[str] = []
    for row in rows:
        if rng.random() < fraction:
            out_rows.append(_corrupt_line(row, rng))
            corrupted += 1
        else:
            out_rows.append(row)
    _write_lines(out_path, header, out_rows)
    return corrupted


def duplicate_csv_rows(
    path: str | Path,
    out_path: str | Path,
    fraction: float = 0.01,
    seed: int = 0,
) -> int:
    """Copy a CSV, emitting ~``fraction`` of data rows twice (at-least-once
    delivery, replayed collector batches).  Returns rows duplicated."""
    rng = random.Random(seed)
    header, rows = _read_lines(path)
    duplicated = 0
    out_rows: List[str] = []
    for row in rows:
        out_rows.append(row)
        if rng.random() < fraction:
            out_rows.append(row)
            duplicated += 1
    _write_lines(out_path, header, out_rows)
    return duplicated


def shuffle_csv_rows(path: str | Path, out_path: str | Path, seed: int = 0) -> int:
    """Copy a CSV with its data rows in random order (out-of-order arrival).

    Windowing is timestamp-driven, so a correct pipeline must produce
    identical signatures from the shuffled trace.  Returns rows written.
    """
    rng = random.Random(seed)
    header, rows = _read_lines(path)
    rows = list(rows)
    rng.shuffle(rows)
    _write_lines(out_path, header, rows)
    return len(rows)


def _read_lines(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines:
        return "", []
    return lines[0], lines[1:]


def _write_lines(path: str | Path, header: str, rows: List[str]) -> None:
    with atomic_write(path, "w", newline="") as handle:
        if header:
            handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")
