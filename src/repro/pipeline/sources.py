"""Pluggable, re-readable edge-record sources for the pipeline.

The pipeline deliberately consumes a *source* abstraction rather than an
open iterator: resuming after a crash (and retrying after a transient IO
failure) requires re-reading the trace from the top, so a source must be
able to produce its records more than once.  Every ``read()`` returns a
:class:`~repro.graph.stream.ReadReport`, carrying the per-row rejection
audit that the error-budget check consumes.
"""

from __future__ import annotations

import abc
from itertools import repeat
from pathlib import Path
from typing import Iterable, List, Sequence

from repro.exceptions import DatasetError, PipelineError
from repro.graph.stream import (
    ERROR_POLICIES,
    EdgeRecord,
    ReadReport,
    RejectedRow,
    finite_record,
    read_edge_records,
)


class RecordSource(abc.ABC):
    """A re-readable stream of edge records with a per-record error policy."""

    @abc.abstractmethod
    def read(self) -> ReadReport:
        """Produce all records (idempotent: callable any number of times)."""

    def describe(self) -> str:
        """Human-readable identity for run reports."""
        return type(self).__name__


class CsvRecordSource(RecordSource):
    """Reads the interchange CSV format with a configurable error policy.

    ``errors`` and ``quarantine_path`` are forwarded to
    :func:`~repro.graph.stream.read_edge_records`; with
    ``errors="quarantine"`` the rejected raw rows are additionally written
    to ``quarantine_path`` on every read.
    """

    def __init__(
        self,
        path: str | Path,
        errors: str = "strict",
        quarantine_path: str | Path | None = None,
    ) -> None:
        if errors not in ERROR_POLICIES:
            raise PipelineError(
                f"unknown errors policy {errors!r}; expected one of {ERROR_POLICIES}"
            )
        self.path = Path(path)
        self.errors = errors
        self.quarantine_path = Path(quarantine_path) if quarantine_path else None

    def read(self) -> ReadReport:
        return read_edge_records(
            self.path, errors=self.errors, quarantine_path=self.quarantine_path
        )

    def describe(self) -> str:
        return f"csv:{self.path}"


class IterableRecordSource(RecordSource):
    """Wraps an in-memory record sequence (tests, generators, adapters).

    Items may be :class:`EdgeRecord` instances or raw ``(time, src, dst,
    weight)`` tuples; raw tuples that fail to parse are handled per the
    ``errors`` policy, mirroring the CSV source's behaviour.
    """

    def __init__(self, records: Iterable, errors: str = "strict") -> None:
        if errors not in ERROR_POLICIES:
            raise PipelineError(
                f"unknown errors policy {errors!r}; expected one of {ERROR_POLICIES}"
            )
        self._items: Sequence = list(records)
        self.errors = errors

    def read(self) -> ReadReport:
        if all(map(isinstance, self._items, repeat(EdgeRecord))):
            # Nothing to coerce or reject.
            return ReadReport(self._items, policy=self.errors)
        accepted: List[EdgeRecord] = []
        rejected: List[RejectedRow] = []
        for index, item in enumerate(self._items):
            try:
                accepted.append(self._coerce(item))
            except DatasetError as exc:
                if self.errors == "strict":
                    raise DatasetError(f"record {index}: {exc}") from exc
                rejected.append(
                    RejectedRow(
                        line_number=index, reason=str(exc), row=(repr(item),)
                    )
                )
        return ReadReport(accepted, rejected, policy=self.errors)

    @staticmethod
    def _coerce(item) -> EdgeRecord:
        if isinstance(item, EdgeRecord):
            return item
        try:
            time, src, dst, weight = item
            time, weight = float(time), float(weight)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"cannot coerce {item!r} to an EdgeRecord") from exc
        return finite_record(time, src, dst, weight)

    def describe(self) -> str:
        return f"iterable[{len(self._items)}]"
