"""ROC curves and AUC, following the paper's construction (Section IV-C).

The paper evaluates identity matching as a retrieval problem: a query
signature is compared against a candidate population, candidates are ranked
by ascending distance, and the ROC curve walks the ranked list — stepping
up on a true match and right on a non-match.  Two variants are used:

* **self-identification** (Fig. 2/3): query ``sigma_t(v)`` against
  ``sigma_{t+1}(u)`` for all ``u``; the single positive is ``u = v``.
* **set queries** (Fig. 5, multiusage): the positives are the other labels
  ``S_u`` registered to the same user; up-steps are ``1/|positives|`` and
  right-steps ``1/|negatives|``.

Ties in distance are handled as diagonal segments (equivalently, the AUC
is the Mann-Whitney statistic with the standard 1/2 tie correction), which
is what "ties broken arbitrarily" converges to in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.core.distances import DistanceFunction
from repro.core.packed import SignaturePack, cross_matrix
from repro.core.signature import Signature
from repro.exceptions import ExperimentError
from repro.types import NodeId

#: Grid used when averaging per-query curves onto a common FPR axis.
DEFAULT_GRID_SIZE = 101


@dataclass(frozen=True)
class RocCurve:
    """A ROC curve on a fixed false-positive-rate grid, plus its exact AUC.

    ``auc`` is computed exactly from the scores (Mann-Whitney with tie
    correction), not from the gridded curve, so it does not suffer
    interpolation error.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    def __post_init__(self) -> None:
        if self.fpr.shape != self.tpr.shape:
            raise ExperimentError("fpr and tpr grids must have identical shape")


def auc_from_scores(
    positive_scores: Sequence[float], negative_scores: Sequence[float]
) -> float:
    """Mann-Whitney AUC where *smaller* scores rank higher (distances).

    Returns the probability that a random positive outranks a random
    negative, counting ties as one half.
    """
    positives = np.asarray(positive_scores, dtype=float)
    negatives = np.asarray(negative_scores, dtype=float)
    if positives.size == 0 or negatives.size == 0:
        raise ExperimentError("AUC requires at least one positive and one negative")
    # P(pos < neg) + 0.5 * P(pos == neg), vectorised via searchsorted.
    sorted_negatives = np.sort(negatives)
    below = np.searchsorted(sorted_negatives, positives, side="left")
    above = np.searchsorted(sorted_negatives, positives, side="right")
    wins = (negatives.size - above) + 0.5 * (above - below)
    return float(wins.sum() / (positives.size * negatives.size))


def roc_from_scores(
    positive_scores: Sequence[float],
    negative_scores: Sequence[float],
    grid_size: int = DEFAULT_GRID_SIZE,
) -> RocCurve:
    """Build a gridded ROC curve from distance scores (smaller = better).

    Tied blocks produce diagonal segments; the curve is then sampled at
    ``grid_size`` evenly spaced FPR points for averaging across queries.
    """
    positives = np.asarray(positive_scores, dtype=float)
    negatives = np.asarray(negative_scores, dtype=float)
    if positives.size == 0 or negatives.size == 0:
        raise ExperimentError("ROC requires at least one positive and one negative")

    scores = np.concatenate([positives, negatives])
    labels = np.concatenate(
        [np.ones(positives.size, dtype=bool), np.zeros(negatives.size, dtype=bool)]
    )
    order = np.argsort(scores, kind="stable")
    scores, labels = scores[order], labels[order]

    fpr_points: List[float] = [0.0]
    tpr_points: List[float] = [0.0]
    tp = fp = 0
    index = 0
    total = scores.size
    while index < total:
        # Advance over one block of tied scores.
        block_end = index
        while block_end < total and scores[block_end] == scores[index]:
            block_end += 1
        tp += int(labels[index:block_end].sum())
        fp += int((~labels[index:block_end]).sum())
        fpr_points.append(fp / negatives.size)
        tpr_points.append(tp / positives.size)
        index = block_end

    grid = np.linspace(0.0, 1.0, grid_size)
    tpr_grid = np.interp(grid, np.asarray(fpr_points), np.asarray(tpr_points))
    return RocCurve(fpr=grid, tpr=tpr_grid, auc=auc_from_scores(positives, negatives))


def average_roc(curves: Sequence[RocCurve]) -> RocCurve:
    """Vertically average curves sharing a grid; AUC is the mean of exact AUCs."""
    if not curves:
        raise ExperimentError("cannot average zero ROC curves")
    grid = curves[0].fpr
    for curve in curves[1:]:
        if curve.fpr.shape != grid.shape or not np.allclose(curve.fpr, grid):
            raise ExperimentError("ROC curves must share the same FPR grid to average")
    mean_tpr = np.mean(np.stack([curve.tpr for curve in curves]), axis=0)
    mean_auc = float(np.mean([curve.auc for curve in curves]))
    return RocCurve(fpr=grid, tpr=mean_tpr, auc=mean_auc)


def auc_from_ranks(
    positive_scores: Sequence[float], negative_scores: Sequence[float]
) -> float:
    """Alias of :func:`auc_from_scores` (kept for the public API surface)."""
    return auc_from_scores(positive_scores, negative_scores)


@dataclass(frozen=True)
class IdentityRocResult:
    """Output of :func:`roc_identity`: per-node AUCs plus the averaged curve."""

    mean_auc: float
    per_node_auc: Dict[NodeId, float]
    curve: RocCurve


def roc_identity(
    signatures_now: Mapping[NodeId, Signature],
    signatures_next: Mapping[NodeId, Signature],
    distance: DistanceFunction | str,
    queries: Iterable[NodeId] | None = None,
    candidates: Sequence[NodeId] | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> IdentityRocResult:
    """Self-identification ROC across consecutive windows (Fig. 2/3 protocol).

    For each query ``v``, ranks all candidates ``u`` by
    ``Dist(sigma_t(v), sigma_{t+1}(u))``; the positive is ``u = v``.
    Queries default to nodes with signatures in both windows; candidates
    default to all nodes with a ``t+1`` signature.

    The full query-candidate score matrix is one
    :func:`~repro.core.packed.cross_matrix` call.
    """
    if queries is None:
        queries = [node for node in signatures_now if node in signatures_next]
    queries = list(queries)
    if candidates is None:
        candidates = list(signatures_next)
    candidates = list(candidates)
    if not queries:
        raise ExperimentError("roc_identity requires at least one query node")

    score_rows = _score_matrix(
        signatures_now, signatures_next, distance, queries, candidates
    )
    per_node_auc: Dict[NodeId, float] = {}
    curves: List[RocCurve] = []
    for query, scores in zip(queries, score_rows):
        positive_scores: List[float] = []
        negative_scores: List[float] = []
        for candidate, score in zip(candidates, scores):
            if candidate == query:
                positive_scores.append(score)
            else:
                negative_scores.append(score)
        if not positive_scores:
            raise ExperimentError(f"query {query!r} missing from candidate set")
        curve = roc_from_scores(positive_scores, negative_scores, grid_size)
        per_node_auc[query] = curve.auc
        curves.append(curve)
    averaged = average_roc(curves)
    return IdentityRocResult(
        mean_auc=averaged.auc, per_node_auc=per_node_auc, curve=averaged
    )


def _score_matrix(
    signatures_now: Mapping[NodeId, Signature],
    signatures_next: Mapping[NodeId, Signature],
    distance: DistanceFunction | str,
    queries: Sequence[NodeId],
    candidates: Sequence[NodeId],
) -> np.ndarray:
    """The ``Dist(sigma_t(query), sigma_{t+1}(candidate))`` score matrix,
    one :func:`~repro.core.packed.cross_matrix` call."""
    pack_queries = SignaturePack.from_signatures(signatures_now, order=queries)
    pack_candidates = SignaturePack.from_signatures(signatures_next, order=candidates)
    return cross_matrix(pack_queries, pack_candidates, distance)


@dataclass(frozen=True)
class SetQueryRocResult:
    """Output of :func:`roc_set_query`: per-query AUCs plus averaged curve."""

    mean_auc: float
    per_query_auc: Dict[NodeId, float]
    curve: RocCurve


def roc_set_query(
    signatures: Mapping[NodeId, Signature],
    positives_by_query: Mapping[NodeId, Iterable[NodeId]],
    distance: DistanceFunction | str,
    candidates: Sequence[NodeId] | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> SetQueryRocResult:
    """Set-valued retrieval ROC within one window (Fig. 5 protocol).

    For each query ``v``, every other candidate is ranked by
    ``Dist(sigma(v), sigma(w))``; the positives are the other members of
    ``v``'s ground-truth set (``S_u`` minus ``v`` itself — the query is
    excluded from its own ranked list since matching oneself at distance
    zero carries no information).
    """
    if candidates is None:
        candidates = list(signatures)
    candidates = list(candidates)
    queries = list(positives_by_query)
    for query in queries:
        if query not in signatures:
            raise ExperimentError(f"query {query!r} has no signature")
    score_rows = _score_matrix(signatures, signatures, distance, queries, candidates)
    per_query_auc: Dict[NodeId, float] = {}
    curves: List[RocCurve] = []
    for query, scores in zip(queries, score_rows):
        raw_positives = positives_by_query[query]
        positive_set = {node for node in raw_positives if node != query}
        if not positive_set:
            raise ExperimentError(f"query {query!r} has no positives besides itself")
        positive_scores: List[float] = []
        negative_scores: List[float] = []
        for candidate, score in zip(candidates, scores):
            if candidate == query:
                continue
            if candidate in positive_set:
                positive_scores.append(score)
            else:
                negative_scores.append(score)
        if not positive_scores or not negative_scores:
            raise ExperimentError(
                f"query {query!r}: candidate set lacks positives or negatives"
            )
        curve = roc_from_scores(positive_scores, negative_scores, grid_size)
        per_query_auc[query] = curve.auc
        curves.append(curve)
    if not curves:
        raise ExperimentError("roc_set_query requires at least one query")
    averaged = average_roc(curves)
    return SetQueryRocResult(
        mean_auc=averaged.auc, per_query_auc=per_query_auc, curve=averaged
    )
