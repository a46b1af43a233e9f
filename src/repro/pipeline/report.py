"""Run reports: what the pipeline did, window by window.

A fault-tolerant pipeline that silently skips rows, degrades to sketches or
replays checkpoints is only trustworthy if it *says so*.  Every run returns
a :class:`RunReport` recording, per window, whether the signatures came from
an exact scheme, a degraded streaming pass or a replayed checkpoint, plus
the ingestion audit (rows rejected, retries spent) — JSON-serialisable for
operational logging.

:func:`mean_topk_overlap` is the drift metric the chaos tests (and the
paper's robustness framing) use to compare a degraded/faulted run against a
clean one: average ``|S ∩ S'| / max(|S|, |S'|)`` over common owners.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.signature import Signature

#: Window modes a report can record.
MODE_EXACT = "exact"
MODE_DEGRADED = "degraded-streaming"
MODE_CACHED = "cached"


@dataclass
class WindowReport:
    """Provenance of one window's signatures."""

    window: int
    mode: str
    num_records: int = 0
    num_nodes: int = 0
    num_edges: int = 0
    num_signatures: int = 0
    reason: str = ""
    checkpoint_file: str = ""
    sha256: str = ""
    elapsed: float = 0.0


@dataclass
class RunReport:
    """Everything a completed (or resumed) pipeline run observed."""

    source: str = ""
    scheme: str = ""
    error_policy: str = "strict"
    windows: List[WindowReport] = field(default_factory=list)
    records_accepted: int = 0
    records_rejected: int = 0
    retries: int = 0
    resumed_from: Optional[int] = None
    issues: List[str] = field(default_factory=list)
    #: Flat ``name{label=value,...} -> count`` counters collected by the
    #: run's own observability registry (retry attempts, checkpoint writes,
    #: quarantined records, degradation events, ...) — always populated.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def degraded_windows(self) -> List[int]:
        return [w.window for w in self.windows if w.mode == MODE_DEGRADED]

    def to_dict(self) -> Dict:
        """Plain-JSON representation for logs and dashboards."""
        return {
            "source": self.source,
            "scheme": self.scheme,
            "error_policy": self.error_policy,
            "records_accepted": self.records_accepted,
            "records_rejected": self.records_rejected,
            "retries": self.retries,
            "resumed_from": self.resumed_from,
            "issues": list(self.issues),
            "metrics": dict(self.metrics),
            "windows": [asdict(window) for window in self.windows],
        }

    def summary(self) -> str:
        """Multi-line human-readable digest (used by the CLI)."""
        lines = [
            f"pipeline run: {len(self.windows)} windows from {self.source} "
            f"(scheme={self.scheme}, errors={self.error_policy})",
            f"  records: {self.records_accepted} accepted, "
            f"{self.records_rejected} rejected; retries: {self.retries}",
        ]
        if self.resumed_from is not None:
            lines.append(
                f"  resumed: windows 0..{self.resumed_from - 1} replayed from checkpoint"
            )
        for window in self.windows:
            detail = f" ({window.reason})" if window.reason else ""
            lines.append(
                f"  window {window.window}: {window.mode}{detail} — "
                f"{window.num_signatures} signatures, {window.num_records} records"
            )
        for issue in self.issues:
            lines.append(f"  issue: {issue}")
        return "\n".join(lines)


def topk_overlap(first: Signature, second: Signature) -> float:
    """Top-k member overlap ``|S ∩ S'| / max(|S|, |S'|)`` (1.0 when both empty)."""
    size = max(len(first), len(second))
    if size == 0:
        return 1.0
    return len(first.nodes & second.nodes) / size


def mean_topk_overlap(
    reference: Mapping[str, Signature], candidate: Mapping[str, Signature]
) -> float:
    """Average :func:`topk_overlap` across owners present in both maps.

    Owners missing from either side are ignored (they carry no comparison
    signal); returns 1.0 when there are no common owners.
    """
    common = reference.keys() & candidate.keys()
    if not common:
        return 1.0
    return sum(
        topk_overlap(reference[owner], candidate[owner]) for owner in common
    ) / len(common)
