"""Signature scheme interface and registry.

A *scheme* maps ``(graph, node)`` to a :class:`~repro.core.signature.Signature`
by computing a relevance vector ``w_v`` and keeping its top-k (Definition 1).
Schemes declare which graph characteristics they exploit and which signature
properties they target, reproducing the paper's Table III metadata.

Schemes are registered by name so experiments and the CLI can instantiate
them from strings such as ``"tt"`` or ``"rwr"``.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Type

from repro import obs
from repro.core.execution import ComputeEngine
from repro.core.signature import Signature
from repro.exceptions import SchemeError, UnknownSchemeError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.graph.delta import WindowDelta
from repro.types import NodeId, Weight


class SignatureScheme(abc.ABC):
    """Base class for signature schemes.

    Subclasses implement :meth:`relevance` (the per-node relevance vector);
    top-k truncation, self-exclusion and the bipartite restriction (keep
    only right-partition candidates for left-partition owners) are handled
    uniformly here.

    Class attributes reproduce the paper's Table III:

    ``characteristics``
        graph characteristics the scheme exploits (Table II vocabulary:
        engagement, novelty, locality, transitivity).
    ``target_properties``
        signature properties the scheme aims at (persistence, uniqueness,
        robustness).
    """

    #: Registry name; subclasses must override.
    name: str = ""
    characteristics: Tuple[str, ...] = ()
    target_properties: Tuple[str, ...] = ()

    def __init__(self, k: int = 10) -> None:
        if k < 1:
            raise SchemeError(f"signature length k must be >= 1, got {k}")
        self.k = k

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def relevance(self, graph: CommGraph, node: NodeId) -> Mapping[NodeId, Weight]:
        """Relevance vector ``w_node`` over candidate nodes (pre-truncation)."""

    def compute(self, graph: CommGraph, node: NodeId) -> Signature:
        """Signature of ``node`` in ``graph`` (top-k of :meth:`relevance`)."""
        vector = self.relevance(graph, node)
        vector = self._restrict_bipartite(graph, node, vector)
        return Signature.from_relevance(node, vector, self.k)

    def compute_all(
        self,
        graph: CommGraph,
        nodes: Iterable[NodeId] | None = None,
        *,
        delta: Optional[WindowDelta] = None,
        previous: Optional[Mapping[NodeId, Signature]] = None,
        engine: Optional[ComputeEngine] = None,
    ) -> Dict[NodeId, Signature]:
        """Signatures for ``nodes`` (default: every node in the graph),
        keyed in target order.

        **Incremental path**: when both ``delta`` (the
        :class:`~repro.graph.delta.WindowDelta` for ``G_t -> graph``) and
        ``previous`` (this scheme's signatures on ``G_t``, same ``k`` and
        parameters) are supplied, only the owners in
        :meth:`dirty_nodes` are recomputed; everything else is reused
        from ``previous``.  Contract: the result is **byte-identical** to
        a full recompute on ``graph`` — dirty sets are conservative
        over-approximations, and schemes whose per-owner results are not
        independent under the change fall back to a full recompute by
        returning ``None`` from :meth:`dirty_nodes`.

        **Engine**: ``engine=None`` (default) computes in-process.
        Otherwise the batch — the full target list or, on the incremental
        path, just the dirty set — goes to ``engine.compute_batch``, a
        :class:`~repro.core.execution.ComputeEngine` the caller built
        (usually with :func:`~repro.core.execution.make_engine`) and
        closes.  An exact engine (:class:`repro.parallel.shm.ShmEngine`)
        is byte-identical to in-process.  A non-exact one
        (:class:`repro.streaming.tier.SketchTierEngine`) answers under an
        **accuracy contract** instead, so the delta/previous reuse is
        skipped: reusing byte-exact prior signatures inside an
        approximate answer would blur which contract the result
        satisfies.

        Subclasses with batched implementations (e.g. matrix-based RWR)
        override :meth:`_compute_batch`; the contract is identical to
        calling :meth:`compute` per node.  Schemes whose batched results
        depend on the whole target list at once additionally override
        :meth:`partition_batch_safe`.
        """
        targets: List[NodeId] = list(nodes) if nodes is not None else graph.nodes()

        def batch(to_compute: List[NodeId]) -> Dict[NodeId, Signature]:
            if engine is None:
                return self._compute_batch(graph, to_compute)
            return engine.compute_batch(self, graph, to_compute)

        if (
            delta is not None
            and previous is not None
            and (engine is None or engine.exact)
        ):
            dirty = self.dirty_nodes(graph, delta)
            if dirty is not None:
                stale = set(dirty) | delta.added_nodes | delta.removed_nodes
                to_compute = [
                    node for node in targets if node in stale or node not in previous
                ]
                fresh = batch(to_compute)
                reused = len(targets) - len(to_compute)
                obs.counter("incremental.dirty_nodes", scheme=self.name).inc(
                    len(to_compute)
                )
                obs.counter("incremental.reused_signatures", scheme=self.name).inc(
                    reused
                )
                return {
                    node: fresh[node] if node in fresh else previous[node]
                    for node in targets
                }
        full = batch(targets)
        return {node: full[node] for node in targets}

    def partition_batch_safe(self, graph: CommGraph) -> bool:
        """Whether :meth:`_compute_batch` applied to any partition of the
        targets (results concatenated) equals one whole-batch call.

        True for every per-node scheme — the base batch is a loop over
        :meth:`compute`.  Schemes whose batched computation couples the
        target list (unbounded RWR: the convergence test maxes over the
        batch) return ``False``; the shared-memory engine then dispatches
        the batch as a single work item instead of partitioning it.
        """
        return True

    def _compute_batch(
        self, graph: CommGraph, targets: List[NodeId]
    ) -> Dict[NodeId, Signature]:
        """Full computation for an explicit target list (no reuse).

        Batched schemes override this instead of :meth:`compute_all` so
        the incremental bookkeeping stays in one place.
        """
        return {node: self.compute(graph, node) for node in targets}

    def dirty_nodes(
        self, graph: CommGraph, delta: WindowDelta
    ) -> Optional[Set[NodeId]]:
        """Owners whose signature may differ on ``graph`` vs. the pre-delta
        graph — a conservative over-approximation.

        ``graph`` is the *post*-delta graph.  Return ``None`` when the
        scheme cannot bound the affected set for this delta (the caller
        then recomputes everything).  The default is ``None``: schemes
        must opt in by proving which owners are untouched.  Added/removed
        nodes need not be included — the caller always recomputes owners
        missing from ``previous`` and drops owners absent from the target
        population.
        """
        return None

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _restrict_bipartite(
        graph: CommGraph, node: NodeId, vector: Mapping[NodeId, Weight]
    ) -> Mapping[NodeId, Weight]:
        """Keep only ``V2`` candidates for a ``V1`` owner of a bipartite graph.

        Section II-B: "When the graph is bipartite, we may restrict the
        signature for nodes in V1 to consist only of nodes in V2".  For
        one-hop schemes this is automatic (out-neighbours of V1 are in V2),
        but multi-hop schemes spread relevance over both partitions.
        """
        if not isinstance(graph, BipartiteGraph):
            return vector
        if node not in graph or graph.side(node) != "left":
            return vector
        # Cached per graph version: one set construction per compute_all,
        # not one per node.
        right = graph.right_node_set()
        return {candidate: weight for candidate, weight in vector.items() if candidate in right}

    def describe(self) -> str:
        """Human-readable parameterised name, e.g. ``"rwr(c=0.1, h=3)"``."""
        return f"{self.name}(k={self.k})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[SignatureScheme]] = {}


def register_scheme(cls: Type[SignatureScheme]) -> Type[SignatureScheme]:
    """Class decorator adding a scheme to the global registry by its ``name``."""
    if not cls.name:
        raise SchemeError(f"scheme class {cls.__name__} must define a non-empty name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise SchemeError(f"scheme name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_schemes() -> Tuple[str, ...]:
    """Names of all registered schemes, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def create_scheme(name: str, **params) -> SignatureScheme:
    """Instantiate a registered scheme by name with constructor parameters.

    >>> scheme = create_scheme("rwr", k=10, reset_probability=0.1, max_hops=3)
    """
    _ensure_builtins()
    if name not in _REGISTRY:
        raise UnknownSchemeError(name, tuple(sorted(_REGISTRY)))
    return _REGISTRY[name](**params)


def _ensure_builtins() -> None:
    """Import the built-in scheme modules so their classes self-register."""
    # Imports are lazy to avoid a circular import at package load time.
    import repro.core.top_talkers  # noqa: F401
    import repro.core.unexpected_talkers  # noqa: F401
    import repro.core.rwr  # noqa: F401
    import repro.core.in_talkers  # noqa: F401
    import repro.core.rwr_push  # noqa: F401
