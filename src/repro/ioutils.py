"""Durable file I/O primitives shared by interchange and checkpoint writers.

A crash between ``open`` and ``close`` of a plain ``open(path, "w")`` can
leave a truncated file that silently poisons the next run.  Every writer in
this library that persists state other code later trusts goes through
:func:`atomic_write`: the content is written to ``path + ".tmp"``, flushed
and fsynced, then moved over the destination with :func:`os.replace` (atomic
on POSIX and Windows), and finally the *containing directory* is fsynced —
without that last step the rename itself can be lost on power failure, so a
"durably written" manifest could vanish while the segment files it describes
survive (or vice versa).  Readers therefore only ever observe the old
complete file or the new complete file, never a torn one, and what they
observe stays observed across a crash.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

#: Suffix appended to the destination while the new content is being written.
TMP_SUFFIX = ".tmp"


def fsync_dir(path: str | Path) -> None:
    """Flush a directory's metadata (its entry list) to stable storage.

    On POSIX, renaming a file into a directory updates the directory inode;
    until that inode is fsynced the rename may not survive power loss.
    Platforms that cannot open directories (Windows) silently skip — there
    ``os.replace`` durability is the filesystem's problem, not ours.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_write(
    path: str | Path,
    mode: str = "w",
    encoding: str | None = "utf-8",
    newline: str | None = None,
) -> Iterator[IO]:
    """Context manager writing ``path`` atomically via a temp file + rename.

    The handle yielded writes to ``path + ".tmp"``.  On clean exit the temp
    file is flushed, fsynced and renamed over ``path``, then the containing
    directory is fsynced so the rename is durable; on error the temp file is
    removed and the original file (if any) is left untouched.

    ``mode`` must be a write mode (``"w"`` or ``"wb"``); binary mode ignores
    ``encoding``/``newline``.
    """
    if "w" not in mode:
        raise ValueError(f"atomic_write requires a write mode, got {mode!r}")
    destination = os.fspath(path)
    tmp_path = destination + TMP_SUFFIX
    if "b" in mode:
        handle = open(tmp_path, mode)
    else:
        handle = open(tmp_path, mode, encoding=encoding, newline=newline)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp_path, destination)
        fsync_dir(os.path.dirname(destination) or ".")
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def append_line(path: str | Path, line: str) -> None:
    """Durably append one text line to ``path`` (manifest-log style).

    The line is written in one call, flushed, and fsynced; the containing
    directory is fsynced too when this append creates the file.  A crash
    mid-append can only ever leave a torn *final* line, which append-log
    readers skip — the committed prefix is never damaged.
    """
    destination = os.fspath(path)
    existed = os.path.exists(destination)
    if not line.endswith("\n"):
        line += "\n"
    with open(destination, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    if not existed:
        fsync_dir(os.path.dirname(destination) or ".")


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's content (used by checkpoint manifests)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def bytes_sha256(payload: bytes) -> str:
    """Hex SHA-256 of a bytes payload, matching :func:`file_sha256` on disk."""
    return hashlib.sha256(payload).hexdigest()
