"""One compute-engine interface and the one factory that builds it.

A *compute engine* answers ``compute_batch(scheme, graph, targets)`` —
the same question as ``scheme._compute_batch`` — somewhere other than the
caller's loop: the shared-memory worker pool
(:class:`repro.parallel.shm.ShmEngine`, byte-identical to serial) or the
memory-budgeted sketch tier
(:class:`repro.streaming.tier.SketchTierEngine`, an accuracy contract).
In-process serial computation is no engine at all: ``None``.

The strategy name (``"serial"``, ``"shm"``, ``"sketch"``) is a config
value read in exactly one place, :func:`make_engine`.  Owners — a
pipeline run, a shard supervisor, an experiment run — build the engine
once, pass it down as ``engine=``, and close what they built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol, Sequence

from repro.exceptions import SchemeError
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheme import SignatureScheme
    from repro.core.signature import Signature
    from repro.graph.comm_graph import CommGraph

#: Every execution strategy a config may name.
STRATEGIES = ("serial", "shm", "sketch")

#: Default sketch-tier budget. Big enough for >=0.9 top-k overlap on the
#: bench trace, small enough to stay well under the exact graph at a
#: 100k+ tail.
DEFAULT_BUDGET_BYTES = 1 << 21  # 2 MiB


class ComputeEngine(Protocol):
    """What ``compute_all(engine=...)`` and the engine owners rely on."""

    #: ``True`` when results are byte-identical to the serial path;
    #: ``False`` for an accuracy contract.  The pipeline stamps it into
    #: each window's checkpoint contract.
    exact: bool

    def compute_batch(
        self,
        scheme: "SignatureScheme",
        graph: "CommGraph",
        targets: Optional[Sequence[NodeId]] = None,
    ) -> Dict[NodeId, "Signature"]:
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol


def execution_error(strategy: str, jobs: int, sketch_budget_bytes: int) -> Optional[str]:
    """Why these execution settings are invalid, or ``None`` when valid.

    Shared by the pipeline, service and experiment configs, which each
    raise their own error type with the message.
    """
    if strategy not in STRATEGIES:
        return f"unknown strategy {strategy!r}; use 'serial', 'shm' or 'sketch'"
    if jobs < 0:
        return f"jobs must be >= 0 (0 = all CPUs), got {jobs}"
    if sketch_budget_bytes < 1:
        return f"sketch_budget_bytes must be >= 1, got {sketch_budget_bytes}"
    return None


def make_engine(
    strategy: str,
    *,
    jobs: int = 0,
    sketch_budget_bytes: int = DEFAULT_BUDGET_BYTES,
    seed: int = 0,
) -> Optional[ComputeEngine]:
    """The engine a strategy names: ``None`` for ``"serial"``, a
    :class:`~repro.parallel.shm.ShmEngine` of ``jobs`` workers (0 = all
    CPUs) for ``"shm"``, a
    :class:`~repro.streaming.tier.SketchTierEngine` of
    ``sketch_budget_bytes`` for ``"sketch"``.  Parameters the strategy
    does not use are ignored.  The caller owns the result and closes it.
    """
    error = execution_error(strategy, jobs, sketch_budget_bytes)
    if error is not None:
        raise SchemeError(error)
    if strategy == "shm":
        from repro.parallel.shm import ShmEngine

        return ShmEngine(jobs=jobs)
    if strategy == "sketch":
        from repro.streaming.tier import SketchTierEngine

        return SketchTierEngine(budget_bytes=sketch_budget_bytes, seed=seed)
    return None
