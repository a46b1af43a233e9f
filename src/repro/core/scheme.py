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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro import obs
from repro.core.execution import ComputeEngine
from repro.core.signature import Signature
from repro.exceptions import SchemeError, UnknownSchemeError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, RowsCsr
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
        engine: Optional[ComputeEngine] = None,
    ) -> Dict[NodeId, Signature]:
        """Signatures for ``nodes`` (default: every node in the graph),
        keyed in target order.

        A window's signatures are a function of that window's graph
        alone: every target is computed on ``graph``, nothing carries over
        from an earlier window.

        **Engine**: ``engine=None`` (default) computes in-process.
        Otherwise the targets go to ``engine.compute_batch``, a
        :class:`~repro.core.execution.ComputeEngine` the caller built
        (usually with :func:`~repro.core.execution.make_engine`) and
        closes.  Every engine (:class:`repro.parallel.shm.ShmEngine`) is
        byte-identical to in-process.

        Subclasses with batched implementations (e.g. matrix-based RWR)
        override :meth:`_compute_batch`; the contract is identical to
        calling :meth:`compute` per node, so an owner's signature does not
        depend on which other owners share its batch, and any partition of
        the targets gives the same bytes as one call.
        """
        targets: List[NodeId] = list(nodes) if nodes is not None else graph.nodes()
        if engine is None:
            fresh = self._compute_batch(graph, targets)
        else:
            fresh = engine.compute_batch(self, graph, targets)
        # benchmarks/e2e/serve.py reads reused / (dirty + reused) from
        # /metrics; ROADMAP item 7 step 0 removes that reader and these.
        obs.counter("incremental.dirty_nodes", scheme=self.name).inc(len(targets))
        obs.counter("incremental.reused_signatures", scheme=self.name).inc(0)
        return {node: fresh[node] for node in targets}

    def _compute_batch(
        self, graph: CommGraph, targets: List[NodeId]
    ) -> Dict[NodeId, Signature]:
        """Full computation for an explicit target list.

        Batched schemes override this instead of :meth:`compute_all`.
        """
        return {node: self.compute(graph, node) for node in targets}

    def _compute_rows(
        self,
        graph: CommGraph,
        targets: List[NodeId],
        relevance: Callable[[RowEntries], np.ndarray],
        rows: Optional[RowsCsr] = None,
    ) -> Dict[NodeId, Signature]:
        """:meth:`_compute_batch` of a one-hop scheme whose relevance of
        ``(owner, u)`` reads the row entry ``C[owner, u]`` of ``rows``
        (default: the out-rows; an in-row scheme passes
        :meth:`~repro.graph.comm_graph.CommGraph.in_rows`).

        ``relevance`` gives every gathered entry's relevance (self-loops
        and non-candidates at or below zero).  Each row's positive entries
        at or above its k-th largest pass, in row order, to
        :meth:`Signature.from_relevance`, whose tie-break then picks what
        per-node :meth:`compute` picks.  The bipartite restriction is
        skipped: a left owner's out-row only holds ``V2`` nodes, and its
        in-row is empty.
        """
        if rows is None:
            rows = graph.out_rows()
        entries = RowEntries(rows, graph.row_positions(targets))
        with np.errstate(all="ignore"):
            weights = relevance(entries)
        candidates = np.flatnonzero(weights > 0)
        owner = entries.owner[candidates]
        weight = weights[candidates]
        counts = np.bincount(owner, minlength=len(targets))
        kth = np.zeros(len(targets))
        over = np.flatnonzero(counts > self.k)
        if len(over):
            ranked = np.lexsort((-weight, owner))
            kth[over] = weight[ranked[np.cumsum(counts)[over] - counts[over] + self.k - 1]]
        keep = candidates[weight >= kth[owner]]
        labels = graph.row_labels(rows, entries.index[keep])
        kept = weights[keep].tolist()
        bounds = np.searchsorted(entries.owner[keep], np.arange(len(targets) + 1)).tolist()
        return {
            node: Signature.from_relevance(
                node, dict(zip(labels[lo:hi], kept[lo:hi])), self.k
            )
            for node, lo, hi in zip(targets, bounds, bounds[1:])
        }

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


class RowEntries:
    """The out-row entries of a batch's targets, one row after another.

    ``positions`` holds each target's row (``-1``: not in the graph, an
    empty row); ``index`` is each entry's place in ``rows``, ``owner`` the
    target it belongs to, and ``lengths`` each target's entry count.
    """

    def __init__(self, rows: RowsCsr, positions: np.ndarray) -> None:
        present = positions >= 0
        starts = np.where(present, rows.indptr[positions], 0)
        lengths = np.where(present, rows.indptr[positions + 1] - starts, 0)
        offsets = np.cumsum(lengths) - lengths
        self.rows = rows
        self.positions = positions
        self.lengths = lengths
        self.owner = np.repeat(np.arange(len(positions)), lengths)
        self.index = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)

    @property
    def data(self) -> np.ndarray:
        """Each entry's weight ``C[owner, u]``."""
        return self.rows.data[self.index]

    @property
    def cols(self) -> np.ndarray:
        """Each entry's neighbour position."""
        return self.rows.cols[self.index]

    def own(self) -> np.ndarray:
        """Mask of the self-loop entries ``(owner, owner)``."""
        return self.cols == self.positions[self.owner]


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
