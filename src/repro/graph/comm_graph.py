"""Weighted directed communication graph (Section II-B of the paper).

A :class:`CommGraph` stores the aggregate of communications observed in one
time window: a directed edge ``(v, u)`` with weight ``C[v, u]`` reflecting
the volume (e.g. number of TCP sessions, calls, queries) from ``v`` to
``u``.  A graph is a value: it is built once — by ``aggregate_records`` or
by a :class:`GraphBuilder` — and never changes, so a perturbation returns a
new graph.  It is held as columns (:class:`WindowColumns`) rather than a
:mod:`networkx` graph because the signature schemes need fast weighted
in/out-neighbour access and sparse matrices; a :meth:`to_networkx` bridge
is provided for interoperability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set, Tuple,
)

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.batch import LabelTable
from repro.types import NodeId, Weight, WeightedEdge

if TYPE_CHECKING:
    # scipy is imported where a matrix is built, so a run that builds
    # none never loads it.
    import scipy.sparse as sp

class RowsCsr(NamedTuple):
    """Adjacency rows as CSR over a graph's node order: row ``i`` lists
    node ``i``'s entries in row order, as neighbour positions and weights."""

    indptr: np.ndarray  # int64, one more than the number of nodes
    cols: np.ndarray  # int64 node positions
    data: np.ndarray  # float64


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
    """A graph as columns over one :class:`LabelTable`.

    ``nodes`` holds label ids in node order.  Edge ``e`` goes from node
    position ``src[e]`` to ``dst[e]`` with summed weight ``weight[e]``,
    edges in build order; every out-row and in-row lists its entries in
    this edge order.  ``sides`` holds a bipartite graph's ``(left, right)``
    membership masks over node positions.
    """

    labels: LabelTable
    nodes: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    sides: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @cached_property
    def out_rows(self) -> RowsCsr:
        order = np.argsort(self.src, kind="stable")
        return _grouped_csr(self.src, self.dst, self.weight, order, len(self.nodes))

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


class GraphArrays(NamedTuple):
    """A graph as plain arrays (:meth:`CommGraph.to_arrays`): its node
    labels in node order, its edges in build order as node positions
    ``src``/``dst`` (int64) and ``weight`` (float64), and a bipartite
    graph's ``(left, right)`` boolean side masks over node positions."""

    nodes: List[NodeId]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    sides: Optional[Tuple[np.ndarray, np.ndarray]] = None


class GraphBuilder:
    """Builds one graph, a node or an edge at a time, then :meth:`build`.

    This is the per-record reference: one :meth:`add_edge` per record
    gives the graph ``aggregate_records`` builds from the records' columns
    (node order, row orders, weights bit for bit, sides, and errors).
    Nodes come in first-added order, each kept as the label object first
    added; edges come in first-positive-weight order, and repeated
    contributions to one edge add in call order.  A bipartite builder
    keeps every edge ``V1 -> V2``.
    """

    def __init__(self, bipartite: bool = False) -> None:
        self._nodes: Dict[NodeId, int] = {}
        self._edges: Dict[Tuple[int, int], Weight] = {}
        self._sides: Optional[Tuple[Set[NodeId], Set[NodeId]]] = (
            (set(), set()) if bipartite else None
        )

    def add_node(self, node: NodeId) -> None:
        """Ensure ``node`` exists in ``V`` (no-op if already present).  On
        a bipartite builder the node has no side until an edge or
        :meth:`add_left_node`/:meth:`add_right_node` gives it one."""
        self._nodes.setdefault(node, len(self._nodes))

    def add_left_node(self, node: NodeId) -> None:
        """Add ``node`` to ``V1`` (no edges)."""
        left, right = self._partition()
        if node in right:
            raise GraphError(f"node {node!r} already in right partition")
        left.add(node)
        self.add_node(node)

    def add_right_node(self, node: NodeId) -> None:
        """Add ``node`` to ``V2`` (no edges)."""
        left, right = self._partition()
        if node in left:
            raise GraphError(f"node {node!r} already in left partition")
        right.add(node)
        self.add_node(node)

    def add_edge(self, src: NodeId, dst: NodeId, weight: Weight = 1.0) -> None:
        """Accumulate ``weight`` onto the directed edge ``(src, dst)``.

        Creates the edge (and endpoints) if absent; a zero weight only
        creates the endpoints.  Self-loops are allowed at the graph level
        but signature schemes exclude ``u = v`` per Definition 1.
        """
        if self._sides is not None:
            left, right = self._sides
            if src in right:
                raise GraphError(
                    f"edge source {src!r} is in the right partition; edges must go V1 -> V2"
                )
            if dst in left:
                raise GraphError(
                    f"edge destination {dst!r} is in the left partition; edges must go V1 -> V2"
                )
            left.add(src)
            right.add(dst)
        if weight < 0:
            raise GraphError(f"edge weight must be non-negative, got {weight}")
        self.add_node(src)
        self.add_node(dst)
        if weight == 0:
            return
        key = (self._nodes[src], self._nodes[dst])
        self._edges[key] = self._edges.get(key, 0.0) + weight

    def _partition(self) -> Tuple[Set[NodeId], Set[NodeId]]:
        if self._sides is None:
            raise GraphError("only a bipartite builder has partitions")
        return self._sides

    def _columns(self) -> WindowColumns:
        """The graph built so far, as columns over a fresh label table."""
        labels = LabelTable()
        nodes = labels.intern(list(self._nodes))
        keys = np.array(list(self._edges), dtype=np.int64).reshape(-1, 2)
        sides = None
        if self._sides is not None:
            sides = tuple(
                np.fromiter((node in side for node in self._nodes), dtype=bool, count=len(nodes))
                for side in self._sides
            )
        weight = np.fromiter(self._edges.values(), dtype=np.float64, count=len(keys))
        return WindowColumns(labels, nodes, keys[:, 0], keys[:, 1], weight, sides)

    def build(self) -> "CommGraph":
        """The graph: a :class:`BipartiteGraph` from a bipartite builder."""
        from repro.graph.bipartite import BipartiteGraph  # which imports this module

        return (CommGraph if self._sides is None else BipartiteGraph)._of(self._columns())


def edges_in_build_order(graph: "CommGraph") -> Dict[Tuple[NodeId, NodeId], Weight]:
    """``graph``'s edges ``(src, dst) -> weight`` in build order, the
    order every out-row and in-row lists them in."""
    nodes, src, dst, weight, _sides = graph.to_arrays()
    label = nodes.__getitem__
    return dict(zip(zip(map(label, src.tolist()), map(label, dst.tolist())), weight.tolist()))


def rebuilt(
    graph: "CommGraph",
    edges: Mapping[Tuple[NodeId, NodeId], Weight],
    nodes: Optional[Iterable[NodeId]] = None,
) -> "CommGraph":
    """A graph of ``graph``'s kind with ``nodes`` (default: all of
    ``graph``'s), in ``graph``'s order and on its sides, and ``edges`` in
    their order: a row lists its entries in that order.

    To change a graph, edit :func:`edges_in_build_order` and rebuild: an
    edge kept in place keeps its row positions, a new edge comes last.  A
    bipartite edge is checked against the sides as
    :meth:`GraphBuilder.add_edge` checks it.
    """
    sides = graph._columns.sides
    builder = GraphBuilder(bipartite=sides is not None)
    ordering, position = graph.node_index()
    for node in ordering if nodes is None else nodes:
        builder.add_node(node)
    both: List[NodeId] = []
    if builder._sides is not None and sides is not None:
        left, right = sides
        # Only a lone self-loop puts a node on both sides; it joins them
        # after the edges, so its loop passes the check as it did in the build.
        both = [node for node in builder._nodes if left[position[node]] and right[position[node]]]
        for members, mask in zip(builder._sides, (left & ~right, right & ~left)):
            members.update(node for node in builder._nodes if mask[position[node]])
    for (src, dst), weight in edges.items():
        builder.add_edge(src, dst, weight)
    if builder._sides is not None:
        for members in builder._sides:
            members.update(both)
    return builder.build()


def _columns_of(edges: Optional[Iterable[WeightedEdge]], bipartite: bool) -> WindowColumns:
    builder = GraphBuilder(bipartite)
    for src, dst, weight in edges or ():
        builder.add_edge(src, dst, weight)
    return builder._columns()


class CommGraph:
    """A weighted directed multigraph aggregated into simple weighted edges.

    Repeated communications between the same ordered pair accumulate into a
    single edge whose weight is the total volume, matching the flow-record
    aggregation the paper performs (Call Detail Records, NetFlow).

    Nodes exist independently of edges: a node added via
    :meth:`GraphBuilder.add_node` participates in ``V`` even with no
    incident edges, mirroring hosts that are registered but silent in a
    window.  ``CommGraph(edges)`` builds the graph of ``(src, dst,
    weight)`` triples, one :meth:`GraphBuilder.add_edge` each.
    """

    def __init__(self, edges: Iterable[WeightedEdge] | None = None) -> None:
        self._columns = _columns_of(edges, bipartite=False)

    @classmethod
    def _of(cls, columns: WindowColumns) -> "CommGraph":
        graph = cls.__new__(cls)
        graph._columns = columns
        return graph

    @classmethod
    def from_arrays(cls, arrays: GraphArrays) -> "CommGraph":
        """The graph :meth:`to_arrays` gave ``arrays`` (a
        :class:`BipartiteGraph` needs its side masks)."""
        labels = LabelTable()
        nodes = labels.intern(arrays.nodes)
        columns = WindowColumns(labels, nodes, arrays.src, arrays.dst, arrays.weight, arrays.sides)
        return cls._of(columns)

    def to_arrays(self) -> GraphArrays:
        """The graph as :class:`GraphArrays` (callers must not mutate the
        arrays).  Only the graph's own labels are listed, never the rest
        of a label table it shares."""
        columns = self._columns
        return GraphArrays(self.nodes(), columns.src, columns.dst, columns.weight, columns.sides)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (type(self).from_arrays, (self.to_arrays(),))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self.node_index()[1]

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes())

    @property
    def num_nodes(self) -> int:
        """``|V|``: number of nodes (including isolated ones)."""
        return len(self._columns.nodes)

    @property
    def num_edges(self) -> int:
        """``|E_t|``: number of distinct weighted directed edges."""
        return len(self._columns.weight)

    @cached_property
    def total_weight(self) -> float:
        """Sum of all edge weights (total communication volume), added
        in :meth:`edges` order."""
        data = self.out_rows().data
        return float(np.cumsum(data)[-1]) if len(data) else 0.0

    def nodes(self) -> List[NodeId]:
        """All node labels, in insertion order."""
        return self._columns.labels.labels_of(self._columns.nodes)

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over ``(src, dst, weight)`` triples, out-row by out-row
        in node order."""
        label = self.nodes().__getitem__
        indptr, cols, data = self.out_rows()
        srcs = np.repeat(np.arange(self.num_nodes), np.diff(indptr))
        return zip(map(label, srcs.tolist()), map(label, cols.tolist()), data.tolist())

    def _position(self, node: NodeId) -> int:
        position = self._node_index[1].get(node)
        if position is None:
            raise NodeNotFoundError(node)
        return position

    def _edge(self, src: NodeId, dst: NodeId) -> Optional[int]:
        """The out-row entry of edge ``(src, dst)``, or ``None``."""
        position = self.node_index()[1]
        if src not in position or dst not in position:
            return None
        indptr, cols, _ = self.out_rows()
        lo, hi = indptr[position[src]], indptr[position[src] + 1]
        hit = np.flatnonzero(cols[lo:hi] == position[dst])
        return int(lo + hit[0]) if len(hit) else None

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return self._edge(src, dst) is not None

    def weight(self, src: NodeId, dst: NodeId) -> Weight:
        """``C[src, dst]``; zero when the edge is absent."""
        entry = self._edge(src, dst)
        return 0.0 if entry is None else float(self.out_rows().data[entry])

    def _row(self, rows: RowsCsr, node: NodeId) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``node`` of ``rows``: its neighbour positions and weights."""
        position = self._position(node)
        lo, hi = rows.indptr[position], rows.indptr[position + 1]
        return rows.cols[lo:hi], rows.data[lo:hi]

    def _neighbors(self, rows: RowsCsr, node: NodeId) -> Dict[NodeId, Weight]:
        cols, data = self._row(rows, node)
        return dict(zip(self.node_labels(cols), data.tolist()))

    def out_neighbors(self, node: NodeId) -> Mapping[NodeId, Weight]:
        """``O(v)`` with weights: mapping destination -> ``C[v, dst]``, in
        row order, keyed by the neighbours' own labels.  Built on each
        call from the CSR out-row."""
        return self._neighbors(self.out_rows(), node)

    def in_neighbors(self, node: NodeId) -> Mapping[NodeId, Weight]:
        """``I(v)`` with weights: mapping source -> ``C[src, v]``, as
        :meth:`out_neighbors`."""
        return self._neighbors(self.in_rows(), node)

    def out_degree(self, node: NodeId) -> int:
        """``|O(v)|``: number of distinct destinations of ``node``."""
        return len(self._row(self.out_rows(), node)[0])

    def in_degree(self, node: NodeId) -> int:
        """``|I(v)|``: number of distinct sources communicating to ``node``."""
        return len(self._row(self.in_rows(), node)[0])

    def out_strength(self, node: NodeId) -> Weight:
        """Total outgoing volume ``sum_u C[node, u]`` (``math.fsum``)."""
        return math.fsum(self._row(self.out_rows(), node)[1].tolist())

    def in_strength(self, node: NodeId) -> Weight:
        """Total incoming volume ``sum_u C[u, node]`` (``math.fsum``)."""
        return math.fsum(self._row(self.in_rows(), node)[1].tolist())

    def senders(self) -> List[NodeId]:
        """Nodes with positive total outgoing volume, in node order: the
        signature owners of a window."""
        columns = self._columns
        sending = np.zeros(self.num_nodes, dtype=bool)
        sending[columns.src] = True
        # Every other weight is positive; a NaN makes its row sum NaN.
        sending[columns.src[np.isnan(columns.weight)]] = False
        return self.node_labels(np.flatnonzero(sending))

    # ------------------------------------------------------------------
    # CSR rows (the batch kernels' input)
    # ------------------------------------------------------------------
    def out_rows(self) -> RowsCsr:
        """The out-rows as CSR over the node order (callers must not
        mutate it)."""
        return self._columns.out_rows

    def in_rows(self) -> RowsCsr:
        """The in-rows as CSR over the node order, as :meth:`out_rows`."""
        return self._columns.in_rows

    def row_positions(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """The CSR row of each of ``nodes`` (int64), ``-1`` for a node not
        in the graph."""
        return self._columns.positions(nodes)

    def node_labels(self, positions: np.ndarray) -> List[NodeId]:
        """The labels of the nodes at ``positions`` of the node order (the
        positions :meth:`out_rows` and :meth:`in_rows` index)."""
        return self._columns.labels.labels_of(self._columns.nodes[positions])

    def edge_weights(self) -> List[Weight]:
        """All edge weights as a list, in :meth:`edges` order (the paper's
        global weight distribution)."""
        return self.out_rows().data.tolist()

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def node_index(self) -> Tuple[List[NodeId], Dict[NodeId, int]]:
        """Stable node ordering for matrix computations.

        Returns ``(ordering, position)`` where ``ordering[i]`` is the node
        at row/column ``i`` and ``position[node] = i``.  Built once, so
        repeated calls return the *same* objects (callers must not mutate
        them).
        """
        return self._node_index

    @cached_property
    def _node_index(self) -> Tuple[List[NodeId], Dict[NodeId, int]]:
        ordering = self.nodes()
        return ordering, dict(zip(ordering, range(len(ordering))))

    def to_adjacency_csr(
        self, position: Mapping[NodeId, int] | None = None
    ) -> sp.csr_matrix:
        """Weighted adjacency matrix ``C`` as a ``|V| x |V|`` CSR matrix.

        ``position`` may supply an externally fixed node ordering (it must
        cover every node); by default :meth:`node_index` order is used,
        and that matrix is built once (callers must not mutate it).
        """
        if position is None or position is self.node_index()[1]:
            return self._adjacency
        import scipy.sparse as sp

        order = np.fromiter(map(position.__getitem__, self.node_index()[0]), dtype=np.int64)
        columns = self._columns
        return sp.csr_matrix(
            (columns.weight, (order[columns.src], order[columns.dst])),
            shape=(len(position), len(position)),
        )

    @cached_property
    def _adjacency(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        indptr, cols, data = self.out_rows()
        adjacency = sp.csr_matrix(
            (data, cols, indptr), shape=(self.num_nodes, self.num_nodes), copy=True
        )
        adjacency.sort_indices()
        return adjacency

    def to_transition_csr(
        self, position: Mapping[NodeId, int] | None = None
    ) -> sp.csr_matrix:
        """Row-stochastic transition matrix ``P`` with ``P[i, j] = C[i, j] / sum_j C[i, j]``.

        Rows for nodes with no outgoing edges are left all-zero (the random
        walk "stalls" there; the RWR reset term keeps total mass bounded).
        Built once for the default ordering.
        """
        if position is None or position is self.node_index()[1]:
            return self._transition
        return _row_normalised(self.to_adjacency_csr(position))

    @cached_property
    def _transition(self) -> sp.csr_matrix:
        return _row_normalised(self._adjacency)

    def walk_matrix(self, symmetric: bool = False) -> sp.csr_matrix:
        """``P^T`` over the node order (column = source): the transposed
        transition matrix of the graph, or with ``symmetric`` of the graph
        plus its reverse, so a walk may cross an edge either way.  Built
        once per flag (callers must not mutate it)."""
        return self._symmetric_walk if symmetric else self._walk

    @cached_property
    def _walk(self) -> sp.csr_matrix:
        return self._transition.T.tocsr()

    @cached_property
    def _symmetric_walk(self) -> sp.csr_matrix:
        return _row_normalised((self._adjacency + self._adjacency.T).tocsr()).T.tocsr()

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
        builder = GraphBuilder()
        for node in nx_graph.nodes():
            builder.add_node(node)
        for src, dst, attrs in nx_graph.edges(data=True):
            builder.add_edge(src, dst, attrs.get("weight", 1.0))
        return builder.build()

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


def _row_normalised(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """``adjacency`` with each non-zero row divided by its sum."""
    import scipy.sparse as sp

    row_sums = np.asarray(adjacency.sum(axis=1)).ravel()
    inverse = np.zeros_like(row_sums)
    nonzero = row_sums > 0
    inverse[nonzero] = 1.0 / row_sums[nonzero]
    return (sp.diags(inverse) @ adjacency).tocsr()
