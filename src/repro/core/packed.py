"""Packed signature windows and vectorized batch distance kernels.

Every quantitative result in the paper reduces to massive numbers of
signature-distance evaluations: all-pairs uniqueness, cross-window
self-identification ROC and robustness are all Theta(n^2) ``Dist`` calls
per window.  This module interns a window's signatures into a CSR-style
pack — contiguous member-id/weight arrays plus a node-id table — and
implements the four paper distances (Section IV-B) as batch kernels over
scipy sparse products:

* **intersection mass** (Jaccard counts, Dice cross-mass, SHel geometric
  mass) comes from CSR dot products: ``B @ B.T``, ``W @ B.T + B @ W.T``
  and ``sqrt(W) @ sqrt(W).T`` where ``B`` is the binary membership matrix;
* **min/max mass** (SDice numerator, the shared max-over-union
  denominator) uses ``min(a, b) = (a + b - |a - b|) / 2`` for explicit
  pair lists, and an exact threshold decomposition
  (``min(a, b) = sum_k (u_k - u_{k-1}) [a >= u_k][b >= u_k]``) expressed
  as one sparse product for full distance matrices;
* ``sum_{union} max = total_1 + total_2 - sum_{shared} min`` (exact for
  non-negative weights) removes every union-side reduction.

All kernels agree with the scalar :mod:`repro.core.distances` functions to
well within ``1e-9``; exact cases (disjoint supports -> 1, both empty ->
0) are bit-identical.  A dispatch layer falls back to the scalar functions
for unregistered distances so arbitrary ``DistanceFunction`` callables
keep working — just without the speedup.

The threshold decomposition materialises ``sum_c m_c * (m_c + 1) / 2``
expanded entries, where ``m_c`` is the number of signatures containing
member ``c``; for top-k signatures over populations in the tens of
thousands this is small, but a single member shared by *every* signature
contributes quadratically — the practical ceiling is around 10^5
signatures per pack.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.distances import OUT_OF_RANGE_TOL, DistanceFunction, resolve_distance
from repro.core.signature import Signature
from repro.exceptions import DistanceError
from repro.types import NodeId

#: Distance names with a registered batch kernel.
BATCH_METRICS: Tuple[str, ...] = ("jaccard", "dice", "sdice", "shel")

#: A distance spec accepted by the kernels: registry name or callable.
MetricSpec = Union[str, DistanceFunction]

#: Pairs processed per chunk by the explicit-pair kernels (memory bound).
_PAIR_CHUNK = 1 << 18

_batch_enabled = True


@contextlib.contextmanager
def batch_disabled() -> Iterator[None]:
    """Force the scalar fallback path inside the ``with`` block.

    Used by the perf harness to time the scalar loop through the exact
    same call sites, and by tests to compare the two paths.
    """
    global _batch_enabled
    previous = _batch_enabled
    _batch_enabled = False
    try:
        yield
    finally:
        _batch_enabled = previous


def batch_enabled() -> bool:
    """Whether batch kernels are currently allowed to engage."""
    return _batch_enabled


class SignaturePack:
    """A window of signatures interned into one CSR weight matrix.

    Row ``i`` holds the weight vector of ``owners[i]`` over the shared
    member vocabulary ``node_table`` (column ``c`` is member node
    ``node_table[c]``).  The original :class:`Signature` objects are kept
    so the scalar fallback path can run against the identical inputs.
    """

    __slots__ = ("owners", "signatures", "node_table", "matrix", "totals", "sizes")

    def __init__(
        self,
        owners: Tuple[NodeId, ...],
        signatures: Tuple[Signature, ...],
        node_table: Tuple[NodeId, ...],
        matrix: sparse.csr_matrix,
    ) -> None:
        self.owners = owners
        self.signatures = signatures
        self.node_table = node_table
        self.matrix = matrix
        self.totals = np.asarray(matrix.sum(axis=1)).ravel()
        self.sizes = np.diff(matrix.indptr).astype(np.float64)

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
        """
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
        matrix = sparse.csr_matrix(
            (
                np.asarray(data, dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(indptr, dtype=np.int64),
            ),
            shape=(len(rows), len(column_of)),
        )
        return cls(
            owners=tuple(owner for owner, _signature in rows),
            signatures=tuple(signature for _owner, signature in rows),
            node_table=tuple(column_of),
            matrix=matrix,
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the pack's numeric arrays (CSR triple plus the
        derived per-row totals/sizes) — the footprint that matters for
        memory accounting.  The Python-side
        id tables (``owners``/``node_table``/``signatures``) are excluded:
        they are interned objects, not buffers."""
        matrix = self.matrix
        return int(
            matrix.data.nbytes
            + matrix.indices.nbytes
            + matrix.indptr.nbytes
            + self.totals.nbytes
            + self.sizes.nbytes
        )

    def __len__(self) -> int:
        return len(self.owners)

    def __repr__(self) -> str:
        return (
            f"SignaturePack(n={len(self.owners)}, vocab={len(self.node_table)}, "
            f"nnz={self.matrix.nnz})"
        )


# ----------------------------------------------------------------------
# Column alignment between packs
# ----------------------------------------------------------------------
def _aligned_matrices(
    pack_a: SignaturePack, pack_b: SignaturePack
) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Re-index two packs onto a shared column space (union vocabulary)."""
    if pack_a is pack_b or pack_a.node_table == pack_b.node_table:
        return pack_a.matrix, pack_b.matrix
    column_of = {node: column for column, node in enumerate(pack_a.node_table)}
    for node in pack_b.node_table:
        column_of.setdefault(node, len(column_of))
    vocabulary = len(column_of)
    matrix_a = sparse.csr_matrix(
        (pack_a.matrix.data, pack_a.matrix.indices, pack_a.matrix.indptr),
        shape=(len(pack_a), vocabulary),
    )
    remap = np.asarray(
        [column_of[node] for node in pack_b.node_table], dtype=np.int64
    )
    matrix_b = sparse.csr_matrix(
        (
            pack_b.matrix.data,
            remap[pack_b.matrix.indices] if pack_b.matrix.nnz else pack_b.matrix.indices,
            pack_b.matrix.indptr,
        ),
        shape=(len(pack_b), vocabulary),
    )
    return matrix_a, matrix_b


def _binary(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Membership indicator matrix (same sparsity, all-ones data)."""
    return sparse.csr_matrix(
        (np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=matrix.shape
    )


def _sqrt(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (np.sqrt(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape
    )


# ----------------------------------------------------------------------
# Exact pairwise min-mass via threshold decomposition
# ----------------------------------------------------------------------
def _threshold_expansion(
    matrix: sparse.csr_matrix,
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """Expand ``matrix`` so that min-masses become one sparse product.

    Sort each column's entries by weight ascending; entry ranks define
    thresholds ``u_1 <= ... <= u_m`` with deltas ``d_k = u_k - u_{k-1}``.
    The expansion ``E[r, (c, k)] = 1`` iff row ``r``'s weight in column
    ``c`` is at least ``u_k``; then ``(E * d) @ E.T`` has ``(a, b)`` entry
    ``sum_c min(w_ac, w_bc)`` exactly (the deltas telescope back to the
    smaller weight).
    """
    csc = matrix.tocsc()
    nnz = csc.nnz
    if nnz == 0:
        return sparse.csr_matrix((matrix.shape[0], 0)), np.empty(0)
    counts = np.diff(csc.indptr)
    column_ids = np.repeat(np.arange(csc.shape[1]), counts)
    order = np.lexsort((csc.data, column_ids))
    rows_sorted = csc.indices[order]
    weights_sorted = csc.data[order]
    block_starts = np.repeat(csc.indptr[:-1], counts)
    ranks = np.arange(nnz) - block_starts
    deltas = weights_sorted.copy()
    later = np.nonzero(ranks > 0)[0]
    deltas[later] -= weights_sorted[later - 1]
    # Entry at rank k spawns indicator 1s for thresholds 0..k; expanded
    # column (c, k) reuses the sorted position index block_start + k.
    repeats = ranks + 1
    total = int(repeats.sum())
    offsets = np.arange(total) - np.repeat(np.cumsum(repeats) - repeats, repeats)
    expanded_rows = np.repeat(rows_sorted, repeats)
    expanded_columns = np.repeat(block_starts, repeats) + offsets
    expansion = sparse.csr_matrix(
        (np.ones(total), (expanded_rows, expanded_columns)),
        shape=(matrix.shape[0], nnz),
    )
    return expansion, deltas


def _min_mass_matrix(
    matrix_a: sparse.csr_matrix, matrix_b: sparse.csr_matrix
) -> np.ndarray:
    """Dense ``(i, j) -> sum_c min(a_ic, b_jc)`` over aligned matrices."""
    if matrix_a is matrix_b:
        expansion, deltas = _threshold_expansion(matrix_a)
        scaled = expansion.multiply(deltas[None, :]).tocsr()
        return np.asarray((scaled @ expansion.T).todense())
    split = matrix_a.shape[0]
    stacked = sparse.vstack([matrix_a, matrix_b], format="csr")
    expansion, deltas = _threshold_expansion(stacked)
    scaled = expansion[:split].multiply(deltas[None, :]).tocsr()
    return np.asarray((scaled @ expansion[split:].T).todense())


# ----------------------------------------------------------------------
# Matrix kernels
# ----------------------------------------------------------------------
def _finish(
    numerator: np.ndarray, denominator: np.ndarray
) -> np.ndarray:
    """``clamp01(1 - num/den)`` with the empty-vs-empty convention.

    A zero denominator only happens when both signatures are empty (all
    weights are strictly positive), which the paper defines as distance 0.
    """
    out = np.zeros_like(denominator)
    occupied = denominator > 0
    np.divide(numerator, denominator, out=out, where=occupied)
    np.subtract(1.0, out, out=out, where=occupied)
    registry = obs.get_registry()
    if registry.enabled:
        bad = int(
            np.count_nonzero(out < -OUT_OF_RANGE_TOL)
            + np.count_nonzero(out > 1.0 + OUT_OF_RANGE_TOL)
        )
        if bad:
            registry.counter("distance.out_of_range", path="batch").inc(bad)
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _matrix_kernel(
    name: str,
    matrix_a: sparse.csr_matrix,
    matrix_b: sparse.csr_matrix,
    totals_a: np.ndarray,
    totals_b: np.ndarray,
    sizes_a: np.ndarray,
    sizes_b: np.ndarray,
) -> np.ndarray:
    binary_a, binary_b = _binary(matrix_a), _binary(matrix_b)
    total_mass = totals_a[:, None] + totals_b[None, :]
    if name == "jaccard":
        intersection = np.asarray((binary_a @ binary_b.T).todense())
        union = sizes_a[:, None] + sizes_b[None, :] - intersection
        return _finish(intersection, union)
    if name == "dice":
        numerator = np.asarray(
            (matrix_a @ binary_b.T).todense() + (binary_a @ matrix_b.T).todense()
        )
        return _finish(numerator, total_mass)
    if name == "sdice":
        minimum = _min_mass_matrix(matrix_a, matrix_b)
        return _finish(minimum, total_mass - minimum)
    if name == "shel":
        numerator = np.asarray((_sqrt(matrix_a) @ _sqrt(matrix_b).T).todense())
        minimum = _min_mass_matrix(matrix_a, matrix_b)
        return _finish(numerator, total_mass - minimum)
    raise DistanceError(f"no batch kernel registered for {name!r}")


def _scalar_matrix(
    signatures_a: Sequence[Signature],
    signatures_b: Sequence[Signature],
    function: DistanceFunction,
    symmetric: bool,
) -> np.ndarray:
    out = np.empty((len(signatures_a), len(signatures_b)))
    if symmetric:
        for i, first in enumerate(signatures_a):
            for j in range(i, len(signatures_b)):
                out[i, j] = function(first, signatures_b[j])
                out[j, i] = out[i, j]
        return out
    for i, first in enumerate(signatures_a):
        for j, second in enumerate(signatures_b):
            out[i, j] = function(first, second)
    return out


def _dispatch(metric: MetricSpec) -> Tuple[str | None, DistanceFunction]:
    """Resolve a metric to ``(batch_kernel_name | None, scalar_function)``."""
    name, function = resolve_distance(metric)
    if not _batch_enabled or name not in BATCH_METRICS:
        return None, function
    return name, function


def _resolve_with_label(
    metric: MetricSpec,
) -> Tuple[str | None, DistanceFunction, str]:
    """Like :func:`_dispatch`, plus a metric label for observability.

    The label is the registry name even when the scalar fallback engages
    (batch disabled), and ``"custom"`` for unregistered callables — so the
    ``kernel.calls``/``kernel.pairs`` counters expose the batch-vs-scalar
    hit rate per distance.
    """
    name, function = resolve_distance(metric)
    if _batch_enabled and name in BATCH_METRICS:
        return name, function, name
    return None, function, (name or "custom")


def _record_kernel(registry, op: str, path: str, metric_label: str, pairs: int) -> None:
    """Count one kernel invocation and its pair workload (registry enabled)."""
    registry.counter("kernel.calls", op=op, path=path, metric=metric_label).inc()
    registry.counter("kernel.pairs", op=op, path=path, metric=metric_label).inc(pairs)


def batch_metric_name(metric: MetricSpec) -> str | None:
    """The batch-kernel name for a metric, or ``None`` if the scalar
    fallback would be used (unregistered callable, or batch disabled)."""
    name, _function = _dispatch(metric)
    return name


def pairwise_matrix(pack: SignaturePack, metric: MetricSpec = "jaccard") -> np.ndarray:
    """All-pairs distance matrix within one pack (``n x n``, symmetric).

    Registered distances run through the batch kernels; anything else
    falls back to the scalar functions (bit-compatible, just slower).
    """
    name, function, label = _resolve_with_label(metric)
    path = "batch" if name is not None else "scalar"
    registry = obs.get_registry()
    if registry.enabled:
        _record_kernel(registry, "pairwise", path, label, len(pack) * len(pack))
    with registry.span("kernel.pairwise", path=path, metric=label):
        if name is None:
            return _scalar_matrix(pack.signatures, pack.signatures, function, True)
        return _matrix_kernel(
            name, pack.matrix, pack.matrix, pack.totals, pack.totals, pack.sizes, pack.sizes
        )


def cross_matrix(
    pack_a: SignaturePack, pack_b: SignaturePack, metric: MetricSpec = "jaccard"
) -> np.ndarray:
    """Distance matrix between two packs (``len(a) x len(b)``).

    The packs need not share a vocabulary — columns are re-indexed onto
    the union node table first.
    """
    name, function, label = _resolve_with_label(metric)
    path = "batch" if name is not None else "scalar"
    registry = obs.get_registry()
    if registry.enabled:
        _record_kernel(registry, "cross", path, label, len(pack_a) * len(pack_b))
    with registry.span("kernel.cross", path=path, metric=label):
        if name is None:
            return _scalar_matrix(pack_a.signatures, pack_b.signatures, function, False)
        matrix_a, matrix_b = _aligned_matrices(pack_a, pack_b)
        return _matrix_kernel(
            name, matrix_a, matrix_b, pack_a.totals, pack_b.totals, pack_a.sizes, pack_b.sizes
        )


# ----------------------------------------------------------------------
# Explicit-pair kernels
# ----------------------------------------------------------------------
def _pair_kernel(
    name: str,
    matrix_a: sparse.csr_matrix,
    matrix_b: sparse.csr_matrix,
    totals_a: np.ndarray,
    totals_b: np.ndarray,
    sizes_a: np.ndarray,
    sizes_b: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> np.ndarray:
    """Distances for explicit row pairs, chunked to bound memory.

    Min-mass uses the elementwise identity
    ``sum_j min(a_j, b_j) = (total_a + total_b - |a - b|_1) / 2``
    (valid because weights vanish outside each signature's support).
    """

    def row_sum(matrix) -> np.ndarray:
        return np.asarray(matrix.sum(axis=1)).ravel()

    out = np.empty(len(rows_a))
    for start in range(0, len(rows_a), _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, len(rows_a))
        index_a, index_b = rows_a[start:stop], rows_b[start:stop]
        chunk_a, chunk_b = matrix_a[index_a], matrix_b[index_b]
        total_mass = totals_a[index_a] + totals_b[index_b]
        if name == "jaccard":
            intersection = row_sum(_binary(chunk_a).multiply(_binary(chunk_b)))
            union = sizes_a[index_a] + sizes_b[index_b] - intersection
            out[start:stop] = _finish(intersection, union)
        elif name == "dice":
            numerator = row_sum(chunk_a.multiply(_binary(chunk_b))) + row_sum(
                _binary(chunk_a).multiply(chunk_b)
            )
            out[start:stop] = _finish(numerator, total_mass)
        elif name == "sdice":
            l1 = row_sum(abs(chunk_a - chunk_b))
            minimum = 0.5 * (total_mass - l1)
            out[start:stop] = _finish(minimum, total_mass - minimum)
        elif name == "shel":
            numerator = row_sum(_sqrt(chunk_a).multiply(_sqrt(chunk_b)))
            l1 = row_sum(abs(chunk_a - chunk_b))
            minimum = 0.5 * (total_mass - l1)
            out[start:stop] = _finish(numerator, total_mass - minimum)
        else:
            raise DistanceError(f"no batch kernel registered for {name!r}")
    return out


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
    name, function, label = _resolve_with_label(metric)
    path = "batch" if name is not None else "scalar"
    registry = obs.get_registry()
    if registry.enabled:
        _record_kernel(registry, "pairs", path, label, len(rows_a))
    with registry.span("kernel.pairs", path=path, metric=label):
        if name is None:
            return np.asarray(
                [
                    function(pack_a.signatures[i], pack_b.signatures[j])
                    for i, j in zip(rows_a, rows_b)
                ]
            )
        matrix_a, matrix_b = _aligned_matrices(pack_a, pack_b)
        return _pair_kernel(
            name,
            matrix_a,
            matrix_b,
            pack_a.totals,
            pack_b.totals,
            pack_a.sizes,
            pack_b.sizes,
            rows_a,
            rows_b,
        )


def pair_distances(
    pack: SignaturePack,
    rows_i: Sequence[int],
    rows_j: Sequence[int],
    metric: MetricSpec = "jaccard",
) -> np.ndarray:
    """Distances for explicit row pairs within one pack."""
    return cross_pair_distances(pack, pack, rows_i, rows_j, metric)
