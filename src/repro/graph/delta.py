"""Edge/node deltas between consecutive window graphs.

The paper's methodology is built on *consecutive* windows: persistence,
identification and monitoring all compare ``G_t`` against ``G_{t+1}``,
which typically share most of their edges.  A :class:`WindowDelta` is the
compact description of what changed between two such graphs — per-edge
``(old_weight, new_weight)`` records plus the node churn — and is the
input contract of the incremental signature engine
(:meth:`repro.core.scheme.SignatureScheme.compute_all` with ``delta=``).

:meth:`WindowDelta.from_graphs` is the one producer: it diffs two built
graphs, at most one :class:`EdgeChange` per ordered pair.  Besides weight
changes it reports order changes, because a signature's float sums run
over adjacency rows (and matrix walks over node positions) in order: an
edge kept at the same weight in an out-row or in-row whose order changed
gets an equal-weight change, and :attr:`WindowDelta.moved_nodes` names
nodes whose order among the surviving nodes changed.

The diff runs over edge-key arrays (``src id << 32 | dst id`` over one
:class:`~repro.graph.batch.LabelTable`) and keeps its changes as columns;
the :class:`EdgeChange` objects are built when :attr:`WindowDelta.changes`
is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.graph.batch import LabelTable
from repro.types import NodeId, Weight

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.comm_graph import CommGraph

KIND_ADD = "add"
KIND_REMOVE = "remove"
KIND_REWEIGHT = "reweight"


@dataclass(frozen=True)
class EdgeChange:
    """One coalesced edge mutation: ``C[src, dst]`` went from ``old_weight``
    to ``new_weight`` (zero means "absent")."""

    src: NodeId
    dst: NodeId
    old_weight: Weight
    new_weight: Weight

    @property
    def kind(self) -> str:
        """``"add"`` (absent -> present), ``"remove"`` (present -> absent)
        or ``"reweight"`` (present both sides, weight changed)."""
        if self.old_weight == 0:
            return KIND_ADD
        if self.new_weight == 0:
            return KIND_REMOVE
        return KIND_REWEIGHT

    @property
    def structural(self) -> bool:
        """True when edge *existence* changed (add or remove) — the cases
        that alter degrees, not just weights."""
        return self.old_weight == 0 or self.new_weight == 0


class _Edges(NamedTuple):
    """A graph's edges in out-row order (sources in node order), over a
    label table: node ids in node order, each edge's end ids and weight,
    and its rank in its in-row (increasing along every in-row)."""

    nodes: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    in_rank: np.ndarray


def _edges_of(graph: "CommGraph", table: LabelTable) -> _Edges:
    out = graph.out_rows()
    num_nodes = len(out.indptr) - 1
    row = np.repeat(np.arange(num_nodes), np.diff(out.indptr))
    columns = graph._columns
    if columns is not None and columns.labels is table:
        nodes = columns.nodes.astype(np.int64)
    else:
        nodes = table.intern(graph.nodes()).astype(np.int64)
    if columns is not None:
        # A window's rows are restrictions of its one edge order.
        in_rank = columns.out_order
    else:
        into = graph.in_rows()
        in_keys = into.cols * num_nodes + np.repeat(np.arange(num_nodes), np.diff(into.indptr))
        in_rank = _find(in_keys, row * num_nodes + out.cols)
    return _Edges(nodes, nodes[row], nodes[out.cols], out.data, in_rank)


def _pair_table(old: "CommGraph", new: "CommGraph") -> LabelTable:
    """The label table both graphs' columns share, when each is column-backed
    over it or has no nodes; otherwise a fresh one to intern both into."""
    tables = {graph._columns.labels for graph in (old, new) if graph._columns is not None}
    if len(tables) == 1 and all(
        graph._columns is not None or not graph.num_nodes for graph in (old, new)
    ):
        return tables.pop()
    return LabelTable()


def _find(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each of ``queries`` in ``keys`` (distinct), ``-1`` if absent."""
    if not len(keys):
        return np.full(len(queries), -1, dtype=np.int64)
    sorter = np.argsort(keys)
    at = sorter[np.searchsorted(keys, queries, sorter=sorter).clip(max=len(keys) - 1)]
    return np.where(keys[at] == queries, at, -1)


def _moved(group: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Mask of the members whose place among a row's common members moved.

    ``ranks`` are the old ranks of each row's common members, in new
    order; rows are contiguous, and ``group`` tells neighbouring rows
    apart.  In every row the picked members include at least one of each
    pair the two orders put differently, and none when they agree.
    Either the members ranked below some earlier member or those ranked
    above some later one qualify; the smaller set is picked, so one member
    moving far costs one entry.  Offsetting each row's ranks above the
    rows before it makes one running max and one running min serve every
    row at once.
    """
    if len(ranks) < 2:
        return np.zeros(len(ranks), dtype=bool)
    starts = np.empty(len(group), dtype=bool)
    starts[0] = True
    np.not_equal(group[1:], group[:-1], out=starts[1:])
    row = np.cumsum(starts) - 1
    keyed = row * (int(ranks.max()) + 1) + ranks
    below = keyed < np.maximum.accumulate(keyed)
    above = keyed > np.minimum.accumulate(keyed[::-1])[::-1]
    pick_below = np.bincount(row, weights=below) <= np.bincount(row, weights=above)
    return np.where(pick_below[row], below, above)


class _ChangeColumns(NamedTuple):
    labels: LabelTable
    src: np.ndarray
    dst: np.ndarray
    old_weight: np.ndarray
    new_weight: np.ndarray


class WindowDelta:
    """The difference ``G_t -> G_{t+1}`` between two window graphs.

    ``changes`` holds one :class:`EdgeChange` per edge whose weight
    differs, or whose place in its out-row or in-row moved (with equal
    weights); ``added_nodes``/``removed_nodes`` record node churn (a node
    may churn without any weighted edge changing, e.g. endpoints of
    zero-weight records), and ``moved_nodes`` the surviving nodes whose
    order among the survivors changed.  An empty delta means the graphs
    are identical, orders included.  Deltas compare equal when all four
    are equal.
    """

    def __init__(
        self,
        changes: Iterable[EdgeChange] = (),
        added_nodes: Iterable[NodeId] = frozenset(),
        removed_nodes: Iterable[NodeId] = frozenset(),
        moved_nodes: Iterable[NodeId] = frozenset(),
    ) -> None:
        self._changes: Optional[Tuple[EdgeChange, ...]] = tuple(changes)
        self._columns: Optional[_ChangeColumns] = None
        self.added_nodes = frozenset(added_nodes)
        self.removed_nodes = frozenset(removed_nodes)
        self.moved_nodes = frozenset(moved_nodes)

    @property
    def changes(self) -> Tuple[EdgeChange, ...]:
        if self._changes is None:
            self._changes = self._edge_changes(slice(None))
        return self._changes

    def _edge_changes(self, index) -> Tuple[EdgeChange, ...]:
        columns = self._columns
        assert columns is not None
        return tuple(
            map(
                EdgeChange,
                columns.labels.labels_of(columns.src[index]),
                columns.labels.labels_of(columns.dst[index]),
                columns.old_weight[index].tolist(),
                columns.new_weight[index].tolist(),
            )
        )

    def __len__(self) -> int:
        if self._changes is None:
            return len(self._columns.src)
        return len(self._changes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowDelta):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def _fields(self) -> tuple:
        return (self.changes, self.added_nodes, self.removed_nodes, self.moved_nodes)

    def __repr__(self) -> str:
        return (
            f"WindowDelta(changes={self.changes!r}, added_nodes={self.added_nodes!r}, "
            f"removed_nodes={self.removed_nodes!r}, moved_nodes={self.moved_nodes!r})"
        )

    @property
    def is_empty(self) -> bool:
        return (
            not len(self)
            and not self.added_nodes
            and not self.removed_nodes
            and not self.moved_nodes
        )

    @property
    def has_node_churn(self) -> bool:
        return bool(self.added_nodes or self.removed_nodes)

    def _ends(self, end: str) -> Set[NodeId]:
        if self._changes is None:
            columns = self._columns
            return set(columns.labels.labels_of(np.unique(getattr(columns, end))))
        return {getattr(change, end) for change in self._changes}

    def sources(self) -> Set[NodeId]:
        """Sources of changed edges (the nodes whose out-view changed)."""
        return self._ends("src")

    def destinations(self) -> Set[NodeId]:
        """Destinations of changed edges (the nodes whose in-view changed)."""
        return self._ends("dst")

    def endpoints(self) -> Set[NodeId]:
        """Every node incident to a changed edge."""
        return self.sources() | self.destinations()

    def structural_changes(self) -> Iterable[EdgeChange]:
        """Changes that added or removed an edge (degree-affecting)."""
        if self._changes is None:
            columns = self._columns
            return self._edge_changes(
                np.flatnonzero((columns.old_weight == 0) | (columns.new_weight == 0))
            )
        return (change for change in self._changes if change.structural)

    def churned_nodes(self) -> frozenset:
        """Nodes that entered or left ``V`` across the transition."""
        return self.added_nodes | self.removed_nodes

    @classmethod
    def from_graphs(cls, old: "CommGraph", new: "CommGraph") -> "WindowDelta":
        """Diff two graphs into a delta (edge weights compared exactly).

        Change order is deterministic: old-graph edge order first
        (removed, reweighted or moved), then new-graph order for added
        edges; edge order is out-row order, sources in node order.
        """
        table = _pair_table(old, new)
        a, b = _edges_of(old, table), _edges_of(new, table)
        old_at = _find((b.src << 32) | b.dst, (a.src << 32) | a.dst)
        kept = np.flatnonzero(old_at >= 0)
        new_weight = np.zeros(len(a.weight))
        new_weight[kept] = b.weight[old_at[kept]]
        new_at = np.full(len(b.weight), -1, dtype=np.int64)
        new_at[old_at[kept]] = kept
        # The kept edges in new out-row order, by their old index: each
        # out-row's old order is its old indices' order.
        common = np.flatnonzero(new_at >= 0)
        olds = new_at[common]
        changed = new_weight != a.weight
        changed[olds[_moved(b.src[common], olds)]] = True
        order = np.lexsort((b.in_rank[common], b.dst[common]))
        olds = olds[order]
        changed[olds[_moved(b.dst[common][order], a.in_rank[olds])]] = True
        picked, added = np.flatnonzero(changed), np.flatnonzero(new_at < 0)
        delta = cls(
            added_nodes=table.labels_of(b.nodes[~np.isin(b.nodes, a.nodes)]),
            removed_nodes=table.labels_of(a.nodes[~np.isin(a.nodes, b.nodes)]),
            moved_nodes=table.labels_of(_moved_nodes(a.nodes, b.nodes)),
        )
        delta._changes = None
        delta._columns = _ChangeColumns(
            table,
            np.concatenate([a.src[picked], b.src[added]]),
            np.concatenate([a.dst[picked], b.dst[added]]),
            np.concatenate([a.weight[picked], np.zeros(len(added))]),
            np.concatenate([new_weight[picked], b.weight[added]]),
        )
        return delta


def _moved_nodes(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The ids among ``new`` whose place among the common ids moved."""
    common = new[np.isin(new, old)]
    ranks = _find(old, common)
    return common[_moved(np.zeros(len(common), dtype=np.int8), ranks)]
