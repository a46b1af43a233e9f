"""One compute-engine interface and the one factory that builds it.

A *compute engine* answers ``compute_batch(scheme, graph, targets)`` —
the same question as ``scheme._compute_batch`` — somewhere other than the
caller's loop: the shared-memory worker pool
(:class:`repro.parallel.shm.ShmEngine`, byte-identical to serial).
In-process serial computation is no engine at all: ``None``.

The worker count ``jobs`` is the one execution setting, and it is read
in exactly one place, :func:`make_engine`: one worker computes
in-process, more use the pool.  Owners — a pipeline run, a shard
supervisor — build the engine once, pass it down as ``engine=``, and
close what they built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol, Sequence

from repro.exceptions import SchemeError
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheme import SignatureScheme
    from repro.core.signature import Signature
    from repro.graph.comm_graph import CommGraph

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


def execution_error(jobs: int) -> Optional[str]:
    """Why this worker count is invalid, or ``None`` when valid.

    Shared by the pipeline, service and experiment configs, which each
    raise their own error type with the message.
    """
    if jobs < 0:
        return f"jobs must be >= 0 (0 = all CPUs), got {jobs}"
    return None


def make_engine(jobs: int = 1) -> Optional[ComputeEngine]:
    """The engine ``jobs`` workers need: ``None`` (in-process) when that
    resolves to one worker — ``jobs=1``, or ``jobs=0`` on a one-CPU host
    — else a :class:`~repro.parallel.shm.ShmEngine` of ``jobs`` workers
    (0 = all CPUs).  The caller owns the result and closes it.
    """
    error = execution_error(jobs)
    if error is not None:
        raise SchemeError(error)
    from repro.parallel.pmap import effective_jobs

    if effective_jobs(jobs) == 1:
        return None
    from repro.parallel.shm import ShmEngine

    return ShmEngine(jobs=jobs)
