"""Edge-record streams and CSV I/O.

Communication data usually arrives as a sequence of timestamped records —
flow records, call detail records, query-log tuples.  :class:`EdgeRecord`
is the canonical in-memory representation; :func:`read_edge_records` /
:func:`write_edge_records` give a stable plain-CSV interchange format so
users can feed their own traces into the library.

Real traces contain garbage — truncated rows, unparsable numbers, negative
volumes from collector bugs.  :func:`read_edge_records` therefore takes an
``errors`` policy: ``"strict"`` (the default) raises on the first bad row,
``"skip"`` drops bad rows, and ``"quarantine"`` drops them *and* preserves
the raw text (optionally appended to a quarantine CSV) for later triage.
Either way the returned :class:`ReadReport` lists every rejected row with
its line number and reason, so ingestion is auditable rather than silent.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.exceptions import DatasetError
from repro.ioutils import atomic_write
from repro.types import NodeId, Weight

#: CSV column order used by the interchange format.
CSV_FIELDS = ("time", "src", "dst", "weight")

#: Valid ``errors`` policies for :func:`read_edge_records`.
ERROR_POLICIES = ("strict", "skip", "quarantine")


@dataclass(frozen=True, order=True, slots=True)
class EdgeRecord:
    """One observed communication: ``src`` talked to ``dst`` at ``time``.

    ``weight`` is the volume of the single observation (1 for "one TCP
    session" / "one query"); aggregation over a window sums these into
    edge weights ``C[src, dst]``.

    The ordering (by ``time`` first) lets record lists be sorted
    chronologically with plain :func:`sorted`.  Slotted: a service shard
    keeps every record it ingested, and a trace holds hundreds of
    thousands.
    """

    time: float
    src: NodeId
    dst: NodeId
    weight: Weight = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise DatasetError(f"record weight must be non-negative, got {self.weight}")


@dataclass(frozen=True)
class RejectedRow:
    """One input row refused by :func:`read_edge_records` and why."""

    line_number: int
    reason: str
    row: Tuple[str, ...]


class ReadReport(List[EdgeRecord]):
    """Accepted records plus an audit trail of rejected rows.

    Subclasses ``list`` so existing call sites (and equality against plain
    record lists) keep working; the extra attributes carry what a plain list
    cannot: which rows were refused and why.
    """

    def __init__(
        self,
        records: Iterable[EdgeRecord] = (),
        rejected: Iterable[RejectedRow] = (),
        policy: str = "strict",
    ) -> None:
        super().__init__(records)
        self.rejected: Tuple[RejectedRow, ...] = tuple(rejected)
        self.policy = policy

    @property
    def num_accepted(self) -> int:
        return len(self)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)

    @property
    def num_seen(self) -> int:
        """Rows examined (accepted + rejected, blank lines excluded)."""
        return len(self) + len(self.rejected)

    def rejected_fraction(self) -> float:
        """Share of examined rows that were rejected (0 for empty input)."""
        seen = self.num_seen
        return len(self.rejected) / seen if seen else 0.0

    def summary(self) -> str:
        return (
            f"{self.num_accepted} records accepted, "
            f"{self.num_rejected} rejected (policy={self.policy!r})"
        )


def write_edge_records(records: Iterable[EdgeRecord], path: str | Path) -> int:
    """Write records to ``path`` as CSV with a header row.

    The write is atomic (temp file + fsync + rename): a crash mid-write
    leaves the previous file intact instead of a truncated one.  Returns
    the number of records written.
    """
    count = 0
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for record in records:
            writer.writerow([record.time, record.src, record.dst, record.weight])
            count += 1
    return count


def write_quarantine_rows(
    rejected: Sequence[RejectedRow], path: str | Path
) -> int:
    """Persist rejected rows (line number, reason, raw cells) for triage."""
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("line_number", "reason", "raw_row"))
        for item in rejected:
            writer.writerow((item.line_number, item.reason, "|".join(item.row)))
    return len(rejected)


def finite_record(time: float, src: NodeId, dst: NodeId, weight: float) -> EdgeRecord:
    """The record, once ``time`` and ``weight`` are finite; else
    :class:`~repro.exceptions.DatasetError`, as ``/ingest`` refuses them.
    A NaN weight would otherwise erase its source's signature."""
    if not (math.isfinite(time) and math.isfinite(weight)):
        raise DatasetError(f"time and weight must be finite, got time={time!r} weight={weight!r}")
    return EdgeRecord(time, src, dst, weight)


def _parse_row(row: Sequence[str]) -> EdgeRecord:
    if len(row) != len(CSV_FIELDS):
        raise DatasetError(f"expected {len(CSV_FIELDS)} columns, got {len(row)}")
    try:
        time, weight = float(row[0]), float(row[3])
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc
    return finite_record(time, row[1], row[2], weight)


def read_edge_records(
    path: str | Path,
    errors: str = "strict",
    quarantine_path: str | Path | None = None,
) -> ReadReport:
    """Read records from a CSV file written by :func:`write_edge_records`.

    Node labels are read back as strings (the interchange format does not
    preserve Python types); times and weights are floats.

    ``errors`` selects the per-row failure policy:

    ``"strict"``
        (default) raise :class:`~repro.exceptions.DatasetError` on the
        first malformed row — the historical behaviour.
    ``"skip"``
        drop malformed rows, recording them in ``report.rejected``.
    ``"quarantine"``
        like ``"skip"``, and additionally write the rejected rows to
        ``quarantine_path`` when given (defaults to no file).

    A missing or wrong header is a structural error and raises under every
    policy — per-row tolerance is for dirty data, not wrong files.  The
    returned :class:`ReadReport` behaves as a plain list of records.
    """
    if errors not in ERROR_POLICIES:
        raise DatasetError(
            f"unknown errors policy {errors!r}; expected one of {ERROR_POLICIES}"
        )
    records: List[EdgeRecord] = []
    rejected: List[RejectedRow] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return ReadReport(policy=errors)
        if tuple(header) != CSV_FIELDS:
            raise DatasetError(
                f"unexpected CSV header {header!r}; expected {list(CSV_FIELDS)!r}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                records.append(_parse_row(row))
            except DatasetError as exc:
                if errors == "strict":
                    raise DatasetError(f"{path}:{line_number}: {exc}") from exc
                rejected.append(
                    RejectedRow(line_number=line_number, reason=str(exc), row=tuple(row))
                )
    if errors == "quarantine" and quarantine_path is not None and rejected:
        write_quarantine_rows(rejected, quarantine_path)
    return ReadReport(records, rejected, policy=errors)


def iter_sorted(records: Iterable[EdgeRecord]) -> Iterator[EdgeRecord]:
    """Yield records in chronological order (stable on equal timestamps)."""
    yield from sorted(records, key=lambda record: record.time)
