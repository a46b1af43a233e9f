"""Packed signature windows and the one shared-term distance kernel.

A :class:`SignaturePack` is the one encoding of a window's signatures:
contiguous member-id/weight CSR arrays plus owner and member node
tables.  The batch kernels emit it (:func:`top_k_pack` ranks and cuts
top-k in numpy), the shared-memory engine ships it, the history store
writes it, and it reads as a mapping ``owner -> Signature`` that decodes
a row only when the row is read.

Every quantitative result in the paper reduces to massive numbers of
signature-distance evaluations: all-pairs uniqueness, cross-window
self-identification ROC and robustness are all Theta(n^2) ``Dist`` calls
per window.  This module computes the four paper distances (Section
IV-B) with one kernel over packs.  Each distance is defined once in
:mod:`repro.core.distances`: every shared-member sum runs sequentially
from ``0.0`` in ``str(label)`` order, totals are :func:`math.fsum`, and
one :func:`~repro.core.distances.finish` turns (count, shared sums,
totals, sizes) into the value.  The kernel gathers the (pair, member)
terms member column by member column in label order and accumulates them
with :func:`numpy.bincount`, which adds each bin's terms one at a time in
input order.  So :func:`pairwise_matrix`, :func:`cross_matrix`,
:func:`cross_pair_distances`, :func:`signature_distances` and the scalar
functions give the same bytes.

A full matrix between packs ``a`` and ``b`` materialises
``sum_c m_a,c * m_b,c`` terms, where ``m_x,c`` is the number of rows of
``x`` holding member ``c``: small for top-k signatures, quadratic in the
population for a member every signature holds.  Terms are generated
``_TERM_CHUNK`` at a time, so such a member costs time, not memory
beyond the output.

An unregistered ``DistanceFunction`` callable runs as a scalar loop over
the decoded rows, inside the same entry points.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.distances import DistanceFunction, finish, resolve_distance
from repro.core.signature import Signature
from repro.exceptions import DistanceError
from repro.graph.batch import dense_ranks, first_occurrence
from repro.types import NodeId

#: A distance spec accepted by the kernels: registry name or callable.
MetricSpec = Union[str, DistanceFunction]

#: Pairs processed per chunk by the explicit-pair kernel (memory bound).
_PAIR_CHUNK = 1 << 18

#: (pair, member) terms generated per chunk by the matrix kernel.
_TERM_CHUNK = 1 << 21


class SignaturePack(Mapping):
    """A window of signatures interned into CSR weight arrays.

    Row ``i`` holds the weight vector of ``owners[i]`` over the shared
    member vocabulary ``node_table``: its entries are
    ``indices[indptr[i]:indptr[i + 1]]`` (column ``c`` is member node
    ``node_table[c]``) with weights ``data`` at the same positions, in
    signature order (weight descending, then ``str`` of the member
    label).  Member columns are numbered in first-seen order over the rows.

    The pack is also a read-only mapping ``owner -> Signature`` in row
    order: a row is decoded into a :class:`Signature` each time it is read
    (never cached, so concurrent readers need no lock).  An owner that
    heads several rows (a pack built from an iterable of signatures) maps
    to its first row; :attr:`signatures` decodes every row.
    """

    __slots__ = (
        "owners", "node_table", "indptr", "indices", "data", "sizes", "_row_of", "_totals",
        "_members",
    )

    def __init__(
        self,
        owners: Sequence[NodeId],
        node_table: Sequence[NodeId],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.owners = tuple(owners)
        self.node_table = tuple(node_table)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.sizes = np.diff(self.indptr).astype(np.float64)
        # Derived on first use by the distance kernel (a window close needs neither).
        self._totals: np.ndarray | None = None
        self._members: "_MemberColumns | None" = None
        # Assigned last row first, so a repeated owner keeps its first row.
        self._row_of = dict(zip(reversed(self.owners), range(len(self.owners) - 1, -1, -1)))

    @classmethod
    def from_signatures(
        cls,
        signatures: Mapping[NodeId, Signature] | Iterable[Signature],
        order: Sequence[NodeId] | None = None,
    ) -> "SignaturePack":
        """Intern signatures into a pack.

        ``signatures`` is either a mapping ``owner -> Signature`` (rows in
        mapping order, or in ``order`` if given) or an iterable of
        signatures (rows in iteration order; ``order`` is not allowed).
        Member-node column ids are assigned in first-seen order, which is
        deterministic because signature entries iterate weight-descending.
        A pack is taken as it is, or its ``order`` rows are taken without
        decoding them, with the member table renumbered first-seen.
        """
        if isinstance(signatures, SignaturePack):
            if order is None:
                return signatures
            return signatures._take(order)
        if isinstance(signatures, Mapping):
            if order is not None:
                try:
                    rows = [(node, signatures[node]) for node in order]
                except KeyError as error:
                    raise DistanceError(
                        f"no signature for node {error.args[0]!r} in pack order"
                    ) from error
            else:
                rows = list(signatures.items())
        else:
            if order is not None:
                raise DistanceError("order= requires a mapping of signatures")
            rows = [(signature.owner, signature) for signature in signatures]

        column_of: Dict[NodeId, int] = {}
        indptr: List[int] = [0]
        indices: List[int] = []
        data: List[float] = []
        for _owner, signature in rows:
            for member, weight in signature.entries:
                column = column_of.setdefault(member, len(column_of))
                indices.append(column)
                data.append(weight)
            indptr.append(len(indices))
        return cls([owner for owner, _signature in rows], column_of, indptr, indices, data)

    @classmethod
    def concat(cls, packs: Sequence["SignaturePack"]) -> "SignaturePack":
        """The packs' rows one after another, over one first-seen member
        table (each pack's table is first-seen over its own rows, so the
        joined table adds each pack's new labels in its table order)."""
        if len(packs) == 1:
            return packs[0]
        column_of: Dict[NodeId, int] = {}
        indices: List[np.ndarray] = []
        for pack in packs:
            remap = np.fromiter(
                (column_of.setdefault(node, len(column_of)) for node in pack.node_table),
                dtype=np.int64,
                count=len(pack.node_table),
            )
            indices.append(remap[pack.indices])
        offsets = np.cumsum([0] + [len(pack.data) for pack in packs[:-1]])
        return cls(
            [owner for pack in packs for owner in pack.owners],
            column_of,
            np.concatenate(
                [[0]] + [pack.indptr[1:] + offset for pack, offset in zip(packs, offsets)]
            ),
            np.concatenate(indices),
            np.concatenate([pack.data for pack in packs]),
        )

    def _take(self, order: Sequence[NodeId]) -> "SignaturePack":
        """The rows of the owners in ``order``, not decoded."""
        try:
            rows = np.fromiter(
                map(self._row_of.__getitem__, order), dtype=np.int64, count=len(order)
            )
        except KeyError as error:
            raise DistanceError(
                f"no signature for node {error.args[0]!r} in pack order"
            ) from error
        indptr = self.indptr
        lengths = indptr[rows + 1] - indptr[rows]
        ends = np.cumsum(lengths)
        entries = np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
            indptr[rows] - (ends - lengths), lengths
        )
        distinct, columns = first_occurrence(self.indices[entries])
        return SignaturePack(
            order,
            [self.node_table[column] for column in distinct.tolist()],
            np.concatenate([[0], ends]),
            columns,
            self.data[entries],
        )

    def __reduce__(self):
        # The derived columns are rebuilt, not shipped.
        return (type(self), (self.owners, self.node_table, self.indptr, self.indices, self.data))

    def row(self, index: int) -> Signature:
        """Decode row ``index`` into its :class:`Signature`."""
        lo, hi = int(self.indptr[index]), int(self.indptr[index + 1])
        members = map(self.node_table.__getitem__, self.indices[lo:hi].tolist())
        return Signature(self.owners[index], dict(zip(members, self.data[lo:hi].tolist())))

    @property
    def totals(self) -> np.ndarray:
        """Each row's weight total, :func:`math.fsum` as
        :attr:`Signature.total_weight` is."""
        if self._totals is None:
            values, bounds = self.data.tolist(), self.indptr.tolist()
            self._totals = np.array(
                [math.fsum(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])], dtype=float
            )
        return self._totals

    @property
    def signatures(self) -> Tuple[Signature, ...]:
        """Every row decoded, in row order (what the scalar loop reads)."""
        return tuple(map(self.row, range(len(self.owners))))

    @property
    def nbytes(self) -> int:
        """Bytes held by the pack's numeric arrays (CSR triple plus the
        derived per-row totals/sizes) — the footprint that matters for
        memory accounting.  The Python-side id tables
        (``owners``/``node_table``) are excluded: they are interned
        objects, not buffers."""
        return int(
            self.data.nbytes
            + self.indices.nbytes
            + self.indptr.nbytes
            + self.totals.nbytes
            + self.sizes.nbytes
        )

    def __getitem__(self, owner: NodeId) -> Signature:
        return self.row(self._row_of[owner])

    def __contains__(self, owner: object) -> bool:
        return owner in self._row_of

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.owners)

    def __len__(self) -> int:
        return len(self.owners)

    def __repr__(self) -> str:
        return (
            f"SignaturePack(n={len(self.owners)}, vocab={len(self.node_table)}, "
            f"nnz={len(self.data)})"
        )


def top_k_pack(
    owners: Sequence[NodeId],
    owner: np.ndarray,
    candidate: np.ndarray,
    weight: np.ndarray,
    labels_of: Callable[[np.ndarray], List[NodeId]],
    k: int,
) -> SignaturePack:
    """The top-``k`` signatures of ``owners`` from candidate columns.

    Entry ``e`` gives owner ``owners[owner[e]]`` the candidate node at
    position ``candidate[e]`` with relevance ``weight[e] > 0``; an owner
    has each candidate at most once, and ``labels_of(positions)`` gives
    the nodes' labels.  Entries rank by owner, weight descending, the
    rank of ``str(label)`` among the distinct candidates, then entry
    position, and each owner keeps its first ``k``; member columns are
    numbered first-seen in that order.  :meth:`Signature.from_relevance`,
    the per-owner ranker (rwr-push, the streaming builders), ranks and
    cuts the same way: given each owner's entries as a relevance dict in
    entry order, :meth:`SignaturePack.from_signatures` of its signatures
    equals this pack field for field.
    """
    num_owners = len(owners)
    counts = np.bincount(owner, minlength=num_owners)
    over = np.flatnonzero(counts > k)
    if len(over):
        # Only entries at or above their owner's k-th largest weight can
        # make the cut, so only their labels are ranked.
        ranked = np.lexsort((-weight, owner))
        kth = np.zeros(num_owners)
        kth[over] = weight[ranked[np.cumsum(counts)[over] - counts[over] + k - 1]]
        keep = np.flatnonzero(weight >= kth[owner])
        owner, candidate, weight = owner[keep], candidate[keep], weight[keep]
    order = np.lexsort(
        (dense_ranks(candidate, lambda positions: list(map(str, labels_of(positions)))), -weight, owner)
    )
    owner, candidate, weight = owner[order], candidate[order], weight[order]
    counts = np.bincount(owner, minlength=num_owners)
    top = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts) < k
    distinct, columns = first_occurrence(candidate[top])
    indptr = np.zeros(num_owners + 1, dtype=np.int64)
    np.cumsum(np.minimum(counts, k), out=indptr[1:])
    return SignaturePack(owners, labels_of(distinct), indptr, columns, weight[top])


# ----------------------------------------------------------------------
# The shared-term kernel
# ----------------------------------------------------------------------
class _MemberColumns:
    """Entries grouped by member, members numbered in ``str(label)`` order.

    ``column_of`` numbers the members in label order; ``columns``,
    ``rows`` and ``weights`` are the entries sorted by column, rows
    ascending within a column, and column ``c`` holds entries
    ``indptr[c]:indptr[c + 1]``.  Built over another pack's ``column_of``,
    it keeps only the members that pack has (no other member can be
    shared with it).
    """

    __slots__ = ("column_of", "columns", "rows", "weights", "indptr")

    def __init__(
        self,
        column_of: Dict[NodeId, int],
        columns: np.ndarray,
        rows: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        # Rows arrive ascending, so a stable sort by column keeps them so.
        order = np.argsort(columns, kind="stable")
        self.column_of = column_of
        self.columns = columns[order]
        self.rows = rows[order]
        self.weights = weights[order]
        self.indptr = np.searchsorted(self.columns, np.arange(len(column_of) + 1))

    @classmethod
    def of(cls, pack: SignaturePack, column_of: Dict[NodeId, int] | None = None):
        """``pack``'s entries over ``column_of`` (default: its own members,
        computed once per pack)."""
        if column_of is None:
            if pack._members is None:
                ordered = sorted(pack.node_table, key=str)
                pack._members = cls.of(pack, dict(zip(ordered, range(len(ordered)))))
            return pack._members
        return cls(column_of, *_entries(pack, column_of))

    @classmethod
    def of_signature(cls, signature: Signature, column_of: Dict[NodeId, int]):
        """One signature as row 0 over ``column_of``."""
        matched = [
            (column_of[member], weight)
            for member, weight in signature.entries
            if member in column_of
        ]
        return cls(
            column_of,
            np.array([column for column, _weight in matched], dtype=np.int64),
            np.zeros(len(matched), dtype=np.int64),
            np.array([weight for _column, weight in matched], dtype=np.float64),
        )


def _entries(
    pack: SignaturePack, column_of: Dict[NodeId, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(columns, rows, weights)`` of ``pack``'s entries whose member is in
    ``column_of``, in row order."""
    remap = np.fromiter(
        (column_of.get(node, -1) for node in pack.node_table),
        dtype=np.int64,
        count=len(pack.node_table),
    )
    columns = remap[pack.indices]
    rows = np.repeat(np.arange(len(pack), dtype=np.int64), np.diff(pack.indptr))
    kept = columns >= 0
    return columns[kept], rows[kept], pack.data[kept]


#: The shared-member terms each registered distance sums, by the
#: :func:`~repro.core.distances.finish` argument they feed (``None``: count).
_TERMS: Dict[str, Dict[str, Callable | None]] = {
    "jaccard": {"count": None},
    "dice": {"shared": np.add},
    "sdice": {"min_mass": np.minimum},
    "shel": {
        "shared": lambda weight_a, weight_b: np.sqrt(weight_a) * np.sqrt(weight_b),
        "min_mass": np.minimum,
    },
}


def _shared_sums(
    name: str,
    num_pairs: int,
    chunks: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Dict[str, np.ndarray]:
    """Each pair's sums of its ``(pair, weight_a, weight_b)`` terms.

    :func:`numpy.bincount` adds a bin's weights one at a time in input
    order, starting from 0.0, so a pair's sum is the sequential sum of its
    terms in the order the chunks give them.  A later chunk first adds
    each pair's running sum to a fresh 0.0 (exact), then its own terms.
    """
    sums: Dict[str, np.ndarray] = {}
    for pair, weight_a, weight_b in chunks:
        for key, term in _TERMS[name].items():
            if term is None:
                counted = np.bincount(pair, minlength=num_pairs)
                sums[key] = sums[key] + counted if key in sums else counted
            elif key in sums:
                sums[key] = np.bincount(
                    np.concatenate([np.arange(num_pairs), pair]),
                    np.concatenate([sums[key], term(weight_a, weight_b)]),
                    minlength=num_pairs,
                )
            else:
                sums[key] = np.bincount(pair, term(weight_a, weight_b), minlength=num_pairs)
    for key in _TERMS[name]:
        sums.setdefault(key, np.zeros(num_pairs))
    return sums


def _column_terms(
    columns_a: _MemberColumns, columns_b: _MemberColumns, num_b: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (row of a, row of b, shared member) term, member column by
    member column in label order, about ``_TERM_CHUNK`` at a time.

    Each entry of ``a`` pairs with every entry of ``b`` in its column, so
    the terms are ``a``'s entries, each repeated once per ``b`` entry of
    its column.  The pair id of rows ``(i, j)`` is ``i * num_b + j``.
    """
    first_b = columns_b.indptr[columns_a.columns]
    repeats = columns_b.indptr[columns_a.columns + 1] - first_b
    ends = np.cumsum(repeats)
    lo = 0
    while lo < len(repeats):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _TERM_CHUNK, side="right")))
        counts = repeats[lo:hi]
        entry_b = np.arange(int(ends[hi - 1]) - done) + np.repeat(
            first_b[lo:hi] - (ends[lo:hi] - done - counts), counts
        )
        yield (
            np.repeat(columns_a.rows[lo:hi] * num_b, counts) + columns_b.rows[entry_b],
            np.repeat(columns_a.weights[lo:hi], counts),
            columns_b.weights[entry_b],
        )
        lo = hi


def _matrix(
    name: str,
    columns_a: _MemberColumns,
    columns_b: _MemberColumns,
    totals_a: np.ndarray,
    totals_b: np.ndarray,
    sizes_a: np.ndarray,
    sizes_b: np.ndarray,
) -> np.ndarray:
    """The ``len(a) x len(b)`` distance matrix through the shared-term
    kernel, ``a`` over ``b``'s member columns."""
    num_a, num_b = len(totals_a), len(totals_b)
    sums = _shared_sums(name, num_a * num_b, _column_terms(columns_a, columns_b, num_b))
    if name == "jaccard":
        sums["size"] = np.add.outer(sizes_a, sizes_b).ravel()
    else:
        sums["total"] = np.add.outer(totals_a, totals_b).ravel()
    return finish(name, **sums).reshape(num_a, num_b)


def _pack_matrix(name: str, pack_a: SignaturePack, pack_b: SignaturePack) -> np.ndarray:
    columns_b = _MemberColumns.of(pack_b)
    columns_a = columns_b if pack_a is pack_b else _MemberColumns.of(pack_a, columns_b.column_of)
    return _matrix(
        name, columns_a, columns_b, pack_a.totals, pack_b.totals, pack_a.sizes, pack_b.sizes
    )


def _label_rows(
    pack: SignaturePack, column_of: Dict[NodeId, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``pack`` as CSR ``(indptr, columns, weights)`` over ``column_of``,
    each row's members in label order."""
    columns, rows, weights = _entries(pack, column_of)
    order = np.lexsort((columns, rows))
    indptr = np.zeros(len(pack) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(pack)), out=indptr[1:])
    return indptr, columns[order], weights[order]


def _expand(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(pair, entry)``: the entries of each of ``rows`` in turn, with the
    position in ``rows`` they belong to."""
    lengths = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(lengths)
    pair = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
    entry = np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
        indptr[rows] - (ends - lengths), lengths
    )
    return pair, entry


def _pairs(
    name: str,
    pack_a: SignaturePack,
    pack_b: SignaturePack,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> np.ndarray:
    """Distances for explicit row pairs through the shared-term kernel.

    A pair's shared members are where its two rows' ``pair * width +
    column`` keys meet; both key lists ascend, so the matched terms come
    pair by pair, in label order within a pair.
    """
    column_of = _MemberColumns.of(pack_b).column_of
    width = len(column_of)
    indptr_b, columns_b, weights_b = _label_rows(pack_b, column_of)
    if pack_a is pack_b:
        indptr_a, columns_a, weights_a = indptr_b, columns_b, weights_b
    else:
        indptr_a, columns_a, weights_a = _label_rows(pack_a, column_of)
    out = np.empty(len(rows_a))
    for lo in range(0, len(rows_a), _PAIR_CHUNK):
        chunk_a, chunk_b = rows_a[lo : lo + _PAIR_CHUNK], rows_b[lo : lo + _PAIR_CHUNK]
        pair_a, entry_a = _expand(indptr_a, chunk_a)
        pair_b, entry_b = _expand(indptr_b, chunk_b)
        key_a = pair_a * width + columns_a[entry_a]
        # A sentinel past every key gives each key_a a position to compare.
        key_b = np.append(pair_b * width + columns_b[entry_b], np.iinfo(np.int64).max)
        found = np.searchsorted(key_b, key_a)
        shared = key_b[found] == key_a
        terms = (
            pair_a[shared],
            weights_a[entry_a[shared]],
            weights_b[entry_b[found[shared]]],
        )
        sums = _shared_sums(name, len(chunk_a), [terms])
        if name == "jaccard":
            sums["size"] = pack_a.sizes[chunk_a] + pack_b.sizes[chunk_b]
        else:
            sums["total"] = pack_a.totals[chunk_a] + pack_b.totals[chunk_b]
        out[lo : lo + len(chunk_a)] = finish(name, **sums)
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _scalar(
    function: DistanceFunction,
    pack_a: SignaturePack,
    pack_b: SignaturePack,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> np.ndarray:
    """The one scalar loop, for unregistered callables: ``function`` on each
    decoded pair of rows."""
    signatures_a = pack_a.signatures
    signatures_b = signatures_a if pack_b is pack_a else pack_b.signatures
    pairs = zip(rows_a.tolist(), rows_b.tolist())
    return np.array([function(signatures_a[i], signatures_b[j]) for i, j in pairs], dtype=float)


def _run(
    op: str,
    metric: MetricSpec,
    pairs: int,
    kernel: Callable[[str], np.ndarray],
    scalar: Callable[[DistanceFunction], np.ndarray],
) -> np.ndarray:
    """Resolve ``metric`` and run the kernel (registered distance) or the
    scalar loop (any other callable), counted as ``kernel.calls`` and
    ``kernel.pairs`` with ``path=batch|scalar``."""
    name, function = resolve_distance(metric)
    path = "scalar" if name is None else "batch"
    label = name or "custom"
    obs.counter("kernel.calls", op=op, path=path, metric=label).inc()
    obs.counter("kernel.pairs", op=op, path=path, metric=label).inc(pairs)
    with obs.span(f"kernel.{op}", path=path, metric=label):
        return scalar(function) if name is None else kernel(name)


def pairwise_matrix(pack: SignaturePack, metric: MetricSpec = "jaccard") -> np.ndarray:
    """All-pairs distance matrix within one pack (``n x n``, symmetric)."""
    count = len(pack)

    def scalar(function: DistanceFunction) -> np.ndarray:
        rows, cols = np.triu_indices(count)
        out = np.empty((count, count))
        out[rows, cols] = out[cols, rows] = _scalar(function, pack, pack, rows, cols)
        return out

    return _run(
        "pairwise", metric, count * count, lambda name: _pack_matrix(name, pack, pack), scalar
    )


def cross_matrix(
    pack_a: SignaturePack, pack_b: SignaturePack, metric: MetricSpec = "jaccard"
) -> np.ndarray:
    """Distance matrix between two packs (``len(a) x len(b)``).

    The packs need not share a vocabulary: members are matched by label.
    """
    num_a, num_b = len(pack_a), len(pack_b)

    def scalar(function: DistanceFunction) -> np.ndarray:
        rows = np.repeat(np.arange(num_a), num_b)
        cols = np.tile(np.arange(num_b), num_a)
        return _scalar(function, pack_a, pack_b, rows, cols).reshape(num_a, num_b)

    return _run(
        "cross", metric, num_a * num_b, lambda name: _pack_matrix(name, pack_a, pack_b), scalar
    )


def signature_distances(
    signature: Signature, pack: SignaturePack, metric: MetricSpec = "jaccard"
) -> np.ndarray:
    """Distances from ``signature`` to every row of ``pack``: row 0 of
    ``cross_matrix`` against a one-row pack, without packing the signature
    (the pack's member columns are derived once, on its first query)."""

    def kernel(name: str) -> np.ndarray:
        columns = _MemberColumns.of(pack)
        return _matrix(
            name,
            _MemberColumns.of_signature(signature, columns.column_of),
            columns,
            np.array([signature.total_weight]),
            pack.totals,
            np.array([float(len(signature))]),
            pack.sizes,
        )[0]

    def scalar(function: DistanceFunction) -> np.ndarray:
        return np.array([function(signature, row) for row in pack.signatures], dtype=np.float64)

    return _run("signature", metric, len(pack), kernel, scalar)


def cross_pair_distances(
    pack_a: SignaturePack,
    pack_b: SignaturePack,
    rows_a: Sequence[int],
    rows_b: Sequence[int],
    metric: MetricSpec = "jaccard",
) -> np.ndarray:
    """Distances for explicit ``(row in a, row in b)`` pairs."""
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    if rows_a.shape != rows_b.shape:
        raise DistanceError("pair index arrays must have identical length")
    return _run(
        "pairs",
        metric,
        len(rows_a),
        lambda name: _pairs(name, pack_a, pack_b, rows_a, rows_b),
        lambda function: _scalar(function, pack_a, pack_b, rows_a, rows_b),
    )


def pair_distances(
    pack: SignaturePack,
    rows_i: Sequence[int],
    rows_j: Sequence[int],
    metric: MetricSpec = "jaccard",
) -> np.ndarray:
    """Distances for explicit row pairs within one pack."""
    return cross_pair_distances(pack, pack, rows_i, rows_j, metric)
