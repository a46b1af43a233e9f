"""One compute-engine interface and the one factory that builds it.

A *compute engine* answers ``compute_batch(scheme, graph, targets)`` —
the same question as ``scheme._compute_batch`` — somewhere other than the
caller's loop: the shared-memory worker pool
(:class:`repro.parallel.shm.ShmEngine`, byte-identical to serial).
In-process serial computation is no engine at all: ``None``.

The strategy name (``"serial"``, ``"shm"``) is a config value read in
exactly one place, :func:`make_engine`.  Owners — a pipeline run, a shard
supervisor, an experiment run — build the engine once, pass it down as
``engine=``, and close what they built.
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
STRATEGIES = ("serial", "shm")


class ComputeEngine(Protocol):
    """What ``compute_all(engine=...)`` and the engine owners rely on:
    results byte-identical to the serial path."""

    def compute_batch(
        self,
        scheme: "SignatureScheme",
        graph: "CommGraph",
        targets: Optional[Sequence[NodeId]] = None,
    ) -> Dict[NodeId, "Signature"]:
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol


def execution_error(strategy: str, jobs: int) -> Optional[str]:
    """Why these execution settings are invalid, or ``None`` when valid.

    Shared by the pipeline, service and experiment configs, which each
    raise their own error type with the message.
    """
    if strategy not in STRATEGIES:
        return f"unknown strategy {strategy!r}; use 'serial' or 'shm'"
    if jobs < 0:
        return f"jobs must be >= 0 (0 = all CPUs), got {jobs}"
    return None


def make_engine(strategy: str, *, jobs: int = 0) -> Optional[ComputeEngine]:
    """The engine a strategy names: ``None`` for ``"serial"``, a
    :class:`~repro.parallel.shm.ShmEngine` of ``jobs`` workers (0 = all
    CPUs) for ``"shm"``; ``"serial"`` ignores ``jobs``.  The caller owns
    the result and closes it.
    """
    error = execution_error(strategy, jobs)
    if error is not None:
        raise SchemeError(error)
    if strategy == "shm":
        from repro.parallel.shm import ShmEngine

        return ShmEngine(jobs=jobs)
    return None
