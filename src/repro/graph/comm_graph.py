"""Weighted directed communication graph (Section II-B of the paper).

A :class:`CommGraph` stores the aggregate of communications observed in one
time window: a directed edge ``(v, u)`` with weight ``C[v, u]`` reflecting
the volume (e.g. number of TCP sessions, calls, queries) from ``v`` to
``u``.  The class is a purpose-built adjacency-map structure rather than a
:mod:`networkx` graph because the signature schemes need fast weighted
in/out-neighbour access and repeated conversion to sparse matrices; a
:meth:`to_networkx` bridge is provided for interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.batch import LabelTable
from repro.types import NodeId, Weight, WeightedEdge


class RowsCsr(NamedTuple):
    """Adjacency rows as CSR over a graph's node order: row ``i`` lists
    node ``i``'s entries in row order, as neighbour positions and weights."""

    indptr: np.ndarray  # int64, one more than the number of nodes
    cols: np.ndarray  # int64 node positions
    data: np.ndarray  # float64


def rows_to_csr(
    rows: Mapping[NodeId, Mapping[NodeId, float]], position: Mapping[NodeId, int]
) -> RowsCsr:
    """``rows`` (a graph's out-rows or in-rows) as CSR over the node order
    ``position`` gives."""
    indptr = np.zeros(len(position) + 1, dtype=np.int64)
    keys: List[NodeId] = []
    data: List[float] = []
    for i, node in enumerate(position):
        row = rows[node]
        if row:
            keys.extend(row)
            data.extend(row.values())
        indptr[i + 1] = len(keys)
    cols = np.fromiter(map(position.__getitem__, keys), dtype=np.int64, count=len(keys))
    return RowsCsr(indptr, cols, np.asarray(data, dtype=np.float64))


def _grouped_csr(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, order: np.ndarray, num_nodes: int
) -> RowsCsr:
    """Entries ``(rows[e], cols[e], data[e])`` as CSR, listed in ``order``
    (a stable sort of ``rows``)."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return RowsCsr(indptr, cols[order], data[order])


@dataclass(frozen=True, eq=False)
class WindowColumns:
    """A window graph as columns over one :class:`LabelTable`.

    ``nodes`` holds label ids in node order.  Edge ``e`` goes from node
    position ``src[e]`` to ``dst[e]`` with summed weight ``weight[e] > 0``,
    edges in first-positive-record order; every out-row and in-row lists
    its entries in this edge order.  ``num_records`` counts the
    positive-weight records, and ``sides`` holds a bipartite graph's
    ``(left, right)`` label ids.  ``edge_labels``, when set, holds each
    edge's ``(src, dst)`` row keys where they are not the table's objects
    (see ``aggregate_records``).
    """

    labels: LabelTable
    nodes: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    total_weight: float
    num_records: int
    sides: Optional[Tuple[np.ndarray, np.ndarray]] = None
    edge_labels: Optional[List[Tuple[NodeId, NodeId]]] = None

    @cached_property
    def out_order(self) -> np.ndarray:
        """Edge indices in out-row order (sources in node order)."""
        return np.argsort(self.src, kind="stable")

    @cached_property
    def out_rows(self) -> RowsCsr:
        return _grouped_csr(self.src, self.dst, self.weight, self.out_order, len(self.nodes))

    @cached_property
    def in_rows(self) -> RowsCsr:
        order = np.argsort(self.dst, kind="stable")
        return _grouped_csr(self.dst, self.src, self.weight, order, len(self.nodes))

    @cached_property
    def _node_sorter(self) -> np.ndarray:
        return np.argsort(self.nodes)

    def positions(self, labels: Iterable[NodeId]) -> np.ndarray:
        """Node position of each label, ``-1`` for one not in the graph."""
        ids = self.labels.ids_of(labels)
        if not len(self.nodes):
            return np.full(len(ids), -1, dtype=np.int64)
        sorter = self._node_sorter
        at = sorter[np.searchsorted(self.nodes, ids, sorter=sorter).clip(max=len(sorter) - 1)]
        return np.where(self.nodes[at] == ids, at, -1)


class CommGraph:
    """A weighted directed multigraph aggregated into simple weighted edges.

    Repeated communications between the same ordered pair accumulate into a
    single edge whose weight is the total volume, matching the flow-record
    aggregation the paper performs (Call Detail Records, NetFlow).

    Nodes exist independently of edges: a node added via :meth:`add_node`
    (or left behind after edge removal) participates in ``V`` even with no
    incident edges, mirroring hosts that are registered but silent in a
    window.
    """

    #: Attributes a column-backed graph writes on first use.
    _ROW_FIELDS: Tuple[str, ...] = ("_out", "_in")

    def __init__(self, edges: Iterable[WeightedEdge] | None = None) -> None:
        #: The columns this graph equals, or ``None``; any mutation drops them.
        self._columns: Optional[WindowColumns] = None
        self._out: Dict[NodeId, Dict[NodeId, Weight]] = {}
        self._in: Dict[NodeId, Dict[NodeId, Weight]] = {}
        self._num_edges = 0
        self._total_weight = 0.0
        self._version = 0
        self._cache: Dict[str, Tuple[int, Any]] = {}
        self._cache_stats: Dict[str, Dict[str, int]] = {}
        if edges is not None:
            for src, dst, weight in edges:
                self.add_edge(src, dst, weight)

    # ------------------------------------------------------------------
    # Versioning and the derived-structure cache
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonically-increasing mutation counter.

        Every structural or weight mutation bumps it; derived structures
        (CSR matrices, node orderings) are cached keyed on this value.
        """
        return self._version

    def _bump_version(self) -> None:
        self._version += 1
        self._columns = None

    @classmethod
    def _from_columns(cls, columns: WindowColumns) -> "CommGraph":
        """The graph of ``columns``; its dict rows are written on first use."""
        graph = cls.__new__(cls)
        graph._columns = columns
        graph._num_edges = len(columns.weight)
        graph._total_weight = columns.total_weight
        graph._version = len(columns.nodes) + columns.num_records
        graph._cache = {}
        graph._cache_stats = {}
        return graph

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute not set: the rows of a
        # column-backed graph.
        if name in self._ROW_FIELDS and self.__dict__.get("_columns") is not None:
            self.versioned_cache("rows", self._load_columns)
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _load_columns(self) -> None:
        columns = self._columns
        assert columns is not None
        nodes = columns.labels.labels_of(columns.nodes)
        edges = columns.edge_labels
        if edges is None:
            label = nodes.__getitem__
            edges = zip(map(label, columns.src.tolist()), map(label, columns.dst.tolist()))
        self._load_aggregated(nodes, edges, columns.weight.tolist())

    def __getstate__(self) -> Dict[str, Any]:
        # The label table does not pickle: a copy carries dict rows.
        if self._columns is not None:
            self._out  # noqa: B018 - writes the rows
        return {**self.__dict__, "_columns": None}

    def versioned_cache(self, key: str, build: Callable[[], Any]) -> Any:
        """Return ``build()`` memoised against the current :attr:`version`.

        Derived structures (adjacency/transition CSR, node orderings,
        partition sets, schemes' walk matrices) are invalidated by any
        mutation; hit/miss traffic is exported as
        ``matrix_cache.{hits,misses}`` obs counters labelled by ``key``.
        """
        stats = self._cache_stats.setdefault(key, {"hits": 0, "misses": 0})
        entry = self._cache.get(key)
        if entry is not None and entry[0] == self._version:
            stats["hits"] += 1
            obs.counter("matrix_cache.hits", key=key).inc()
            return entry[1]
        stats["misses"] += 1
        obs.counter("matrix_cache.misses", key=key).inc()
        value = build()
        self._cache[key] = (self._version, value)
        return value

    def _memo(self, key: str, build: Callable[[], Any]) -> Any:
        """:meth:`versioned_cache` without the hit/miss counters.

        For the CSR rows of a dict-row graph: batch kernels look them up
        once per batch, so counting would make the counters follow how a
        batch was split across workers.
        """
        entry = self._cache.get(key)
        if entry is None or entry[0] != self._version:
            entry = self._cache[key] = (self._version, build())
        return entry[1]

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Per-key hit/miss counts of the versioned cache (for tests)."""
        return {key: dict(stats) for key, stats in self._cache_stats.items()}

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Ensure ``node`` exists in ``V`` (no-op if already present)."""
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}
            self._bump_version()

    def add_edge(self, src: NodeId, dst: NodeId, weight: Weight = 1.0) -> None:
        """Accumulate ``weight`` onto the directed edge ``(src, dst)``.

        Creates the edge (and endpoints) if absent.  Self-loops are allowed
        at the graph level but signature schemes exclude ``u = v`` per
        Definition 1.
        """
        if weight < 0:
            raise GraphError(f"edge weight must be non-negative, got {weight}")
        if weight == 0:
            # Zero-weight contribution still materialises the endpoints,
            # matching "observed but empty" records.
            self.add_node(src)
            self.add_node(dst)
            return
        self.add_node(src)
        self.add_node(dst)
        out_row = self._out[src]
        if dst not in out_row:
            self._num_edges += 1
            out_row[dst] = 0.0
            self._in[dst][src] = 0.0
        out_row[dst] += weight
        self._in[dst][src] += weight
        self._total_weight += weight
        self._bump_version()

    def set_edge_weight(self, src: NodeId, dst: NodeId, weight: Weight) -> None:
        """Set (replace) the weight of edge ``(src, dst)``.

        A weight of zero removes the edge.  Endpoints are created if needed.
        """
        if weight < 0:
            raise GraphError(f"edge weight must be non-negative, got {weight}")
        current = self.weight(src, dst)
        if current > 0:
            self._remove_edge_entry(src, dst, current)
        if weight > 0:
            self.add_edge(src, dst, weight)
        else:
            self.add_node(src)
            self.add_node(dst)

    def remove_edge(self, src: NodeId, dst: NodeId) -> None:
        """Remove edge ``(src, dst)``; endpoints remain in ``V``."""
        current = self.weight(src, dst)
        if current == 0:
            raise GraphError(f"edge ({src!r}, {dst!r}) not present")
        self._remove_edge_entry(src, dst, current)

    def decrement_edge(self, src: NodeId, dst: NodeId, amount: Weight = 1.0) -> None:
        """Decrease the weight of edge ``(src, dst)`` by ``amount``.

        This is the unit operation of the paper's deletion perturbation:
        "sampled existing edges proportional to their edge weights and
        decremented the weight by one unit".  The edge disappears when the
        weight reaches zero; decrementing below zero clamps at removal.
        """
        if amount < 0:
            raise GraphError(f"decrement amount must be non-negative, got {amount}")
        current = self.weight(src, dst)
        if current == 0:
            raise GraphError(f"edge ({src!r}, {dst!r}) not present")
        new_weight = current - amount
        if new_weight > 0:
            self._out[src][dst] = new_weight
            self._in[dst][src] = new_weight
            self._total_weight -= amount
            self._bump_version()
        else:
            self._remove_edge_entry(src, dst, current)

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._out:
            raise NodeNotFoundError(node)
        for dst in list(self._out[node]):
            self._remove_edge_entry(node, dst, self._out[node][dst])
        for src in list(self._in[node]):
            self._remove_edge_entry(src, node, self._out[src][node])
        del self._out[node]
        del self._in[node]
        self._bump_version()

    def _load_aggregated(
        self,
        nodes: Iterable[NodeId],
        edges: Iterable[Tuple[NodeId, NodeId]],
        weights: Iterable[Weight],
    ) -> None:
        """Write the dict rows of this column-backed graph: ``nodes`` in
        node order, then each edge ``(src, dst)`` with its ``weights``
        entry, in row order, into ``src``'s out-row and ``dst``'s in-row."""
        out = {node: {} for node in nodes}
        into = {node: {} for node in out}
        for (src, dst), weight in zip(edges, weights):
            out[src][dst] = weight
            into[dst][src] = weight
        self._out, self._in = out, into

    def _remove_edge_entry(self, src: NodeId, dst: NodeId, weight: Weight) -> None:
        del self._out[src][dst]
        del self._in[dst][src]
        self._num_edges -= 1
        self._total_weight -= weight
        self._bump_version()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._out

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes())

    @property
    def num_nodes(self) -> int:
        """``|V|``: number of nodes (including isolated ones)."""
        if self._columns is not None:
            return len(self._columns.nodes)
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """``|E_t|``: number of distinct weighted directed edges."""
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (total communication volume)."""
        return self._total_weight

    def nodes(self) -> List[NodeId]:
        """All node labels, in insertion order."""
        if self._columns is not None:
            return self._columns.labels.labels_of(self._columns.nodes)
        return list(self._out)

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over ``(src, dst, weight)`` triples."""
        for src, row in self._out.items():
            for dst, weight in row.items():
                yield (src, dst, weight)

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return src in self._out and dst in self._out[src]

    def weight(self, src: NodeId, dst: NodeId) -> Weight:
        """``C[src, dst]``; zero when the edge is absent."""
        row = self._out.get(src)
        if row is None:
            return 0.0
        return row.get(dst, 0.0)

    def out_neighbors(self, node: NodeId) -> Mapping[NodeId, Weight]:
        """``O(v)`` with weights: mapping destination -> ``C[v, dst]``."""
        if node not in self._out:
            raise NodeNotFoundError(node)
        return self._out[node]

    def in_neighbors(self, node: NodeId) -> Mapping[NodeId, Weight]:
        """``I(v)`` with weights: mapping source -> ``C[src, v]``."""
        if node not in self._in:
            raise NodeNotFoundError(node)
        return self._in[node]

    def out_degree(self, node: NodeId) -> int:
        """``|O(v)|``: number of distinct destinations of ``node``."""
        return len(self.out_neighbors(node))

    def in_degree(self, node: NodeId) -> int:
        """``|I(v)|``: number of distinct sources communicating to ``node``."""
        return len(self.in_neighbors(node))

    def out_strength(self, node: NodeId) -> Weight:
        """Total outgoing volume ``sum_u C[node, u]``."""
        return sum(self.out_neighbors(node).values())

    def in_strength(self, node: NodeId) -> Weight:
        """Total incoming volume ``sum_u C[u, node]``."""
        return sum(self.in_neighbors(node).values())

    def senders(self) -> List[NodeId]:
        """Nodes with positive total outgoing volume, in insertion order.

        The signature owners of a window.  A column-backed graph reads
        them off its edge sources; dict rows cost a walk over every
        node's row.
        """
        columns = self._columns
        if columns is not None:
            # Every edge weighs more than 0, so a source sends.
            return columns.labels.labels_of(columns.nodes[np.unique(columns.src)])
        return [node for node, row in self._out.items() if row and sum(row.values()) > 0]

    # ------------------------------------------------------------------
    # CSR rows (the batch kernels' and the window diff's input)
    # ------------------------------------------------------------------
    def out_rows(self) -> RowsCsr:
        """The out-rows as CSR over the node order, built once per
        :attr:`version` (callers must not mutate it)."""
        if self._columns is not None:
            return self._columns.out_rows
        return self._memo("out_rows", lambda: rows_to_csr(self._out, self._row_index()))

    def in_rows(self) -> RowsCsr:
        """The in-rows as CSR over the node order, as :meth:`out_rows`."""
        if self._columns is not None:
            return self._columns.in_rows
        return self._memo("in_rows", lambda: rows_to_csr(self._in, self._row_index()))

    def row_positions(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """The CSR row of each of ``nodes`` (int64), ``-1`` for a node not
        in the graph."""
        if self._columns is not None:
            return self._columns.positions(nodes)
        get = self._row_index().get
        return np.array([get(node, -1) for node in nodes], dtype=np.int64)

    def _row_index(self) -> Dict[NodeId, int]:
        return self._memo("row_index", lambda: dict(zip(self._out, range(len(self._out)))))

    def node_labels(self, positions: np.ndarray) -> List[NodeId]:
        """The labels of the nodes at ``positions`` of the node order (the
        positions :meth:`out_rows` and :meth:`in_rows` index)."""
        columns = self._columns
        if columns is not None:
            return columns.labels.labels_of(columns.nodes[positions])
        ordering = self._memo("node_list", lambda: list(self._out))
        return list(map(ordering.__getitem__, positions.tolist()))

    def edge_weights(self) -> List[Weight]:
        """All edge weights as a list (the paper's global weight distribution)."""
        return [w for _, _, w in self.edges()]

    # ------------------------------------------------------------------
    # Copies and conversions
    # ------------------------------------------------------------------
    def copy(self) -> "CommGraph":
        """Deep copy of the graph (nodes, edges and weights).

        Structural clone: the adjacency rows are copied verbatim, so node
        order and per-row neighbour order — and therefore any
        order-sensitive float reduction over the rows — are preserved
        bit-for-bit.  (Replaying ``edges()`` instead would rebuild the
        in-rows in out-traversal order, silently perturbing reductions.)
        The clone starts with a fresh version counter and an empty
        derived-structure cache.
        """
        clone = type(self)()
        clone._clone_state_from(self)
        return clone

    def _clone_state_from(self, other: "CommGraph") -> None:
        self._out = {src: dict(row) for src, row in other._out.items()}
        self._in = {dst: dict(row) for dst, row in other._in.items()}
        self._num_edges = other._num_edges
        self._total_weight = other._total_weight

    def node_index(self) -> Tuple[List[NodeId], Dict[NodeId, int]]:
        """Stable node ordering for matrix computations.

        Returns ``(ordering, position)`` where ``ordering[i]`` is the node
        at row/column ``i`` and ``position[node] = i``.  Cached per
        :attr:`version`, so repeated calls on an unmutated graph return the
        *same* objects — callers may rely on identity.
        """
        return self.versioned_cache("node_index", self._build_node_index)

    def _build_node_index(self) -> Tuple[List[NodeId], Dict[NodeId, int]]:
        ordering = self.nodes()
        position = {node: i for i, node in enumerate(ordering)}
        return ordering, position

    def _is_default_position(self, position: Mapping[NodeId, int] | None) -> bool:
        """Whether ``position`` is (identically) the default node ordering."""
        if position is None:
            return True
        cached = self._cache.get("node_index")
        return (
            cached is not None
            and cached[0] == self._version
            and position is cached[1][1]
        )

    def to_adjacency_csr(
        self, position: Mapping[NodeId, int] | None = None
    ) -> sp.csr_matrix:
        """Weighted adjacency matrix ``C`` as a ``|V| x |V|`` CSR matrix.

        ``position`` may supply an externally fixed node ordering (it must
        cover every node); by default :meth:`node_index` order is used.
        The default-ordering matrix is cached per :attr:`version` (callers
        must not mutate it); custom orderings are built fresh, except when
        ``position`` *is* the cached :meth:`node_index` mapping.
        """
        if self._is_default_position(position):
            return self.versioned_cache(
                "adjacency_csr",
                lambda: self._build_adjacency_csr(self.node_index()[1]),
            )
        assert position is not None
        return self._build_adjacency_csr(position)

    def _build_adjacency_csr(self, position: Mapping[NodeId, int]) -> sp.csr_matrix:
        n = len(position)
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for src, dst, weight in self.edges():
            rows.append(position[src])
            cols.append(position[dst])
            data.append(weight)
        return sp.csr_matrix(
            (np.asarray(data), (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(n, n),
        )

    def to_transition_csr(
        self, position: Mapping[NodeId, int] | None = None
    ) -> sp.csr_matrix:
        """Row-stochastic transition matrix ``P`` with ``P[i, j] = C[i, j] / sum_j C[i, j]``.

        Rows for nodes with no outgoing edges are left all-zero (the random
        walk "stalls" there; the RWR reset term keeps total mass bounded).
        Cached per :attr:`version` for the default ordering.
        """
        if self._is_default_position(position):
            return self.versioned_cache(
                "transition_csr",
                lambda: self._build_transition_csr(None),
            )
        return self._build_transition_csr(position)

    def _build_transition_csr(
        self, position: Mapping[NodeId, int] | None
    ) -> sp.csr_matrix:
        adjacency = self.to_adjacency_csr(position)
        row_sums = np.asarray(adjacency.sum(axis=1)).ravel()
        inverse = np.zeros_like(row_sums)
        nonzero = row_sums > 0
        inverse[nonzero] = 1.0 / row_sums[nonzero]
        scaling = sp.diags(inverse)
        return (scaling @ adjacency).tocsr()

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` with ``weight`` attributes."""
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(self.nodes())
        nx_graph.add_weighted_edges_from(self.edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "CommGraph":
        """Build from any networkx graph; missing ``weight`` attributes default to 1."""
        graph = cls()
        for node in nx_graph.nodes():
            graph.add_node(node)
        for src, dst, attrs in nx_graph.edges(data=True):
            graph.add_edge(src, dst, attrs.get("weight", 1.0))
        return graph

    # ------------------------------------------------------------------
    # Comparisons / debugging
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommGraph):
            return NotImplemented
        return set(self.nodes()) == set(other.nodes()) and dict(
            ((s, d), w) for s, d, w in self.edges()
        ) == dict(((s, d), w) for s, d, w in other.edges())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"total_weight={self.total_weight:g})"
        )
