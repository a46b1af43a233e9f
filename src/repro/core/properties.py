"""Signature property measurements (Section II-C of the paper).

For a distance ``Dist`` in [0, 1]:

* persistence of ``v``:  ``1 - Dist(sigma_t(v), sigma_{t+1}(v))``
* uniqueness of ``(v, u)``:  ``Dist(sigma_t(v), sigma_t(u))``, ``u != v``
* robustness of ``v``:  ``1 - Dist(sigma_t(v), sigma_hat_t(v))`` where
  ``sigma_hat`` comes from a perturbed graph.

Larger is better for all three.  :func:`property_ellipse` reproduces the
paper's Figure 1 summary: mean +/- standard deviation of persistence (x)
and uniqueness (y) over the evaluation population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.distances import DistanceFunction
from repro.core.packed import (
    SignaturePack,
    cross_pair_distances,
    pair_distances,
    pairwise_matrix,
)
from repro.core.signature import Signature
from repro.exceptions import ExperimentError
from repro.types import NodeId

# Above this population size an n x n dense distance matrix (8 n^2 bytes)
# stops being a win over the chunked explicit-pair kernel.
_FULL_MATRIX_MAX_NODES = 4096


def persistence(
    signature_now: Signature, signature_next: Signature, distance: DistanceFunction
) -> float:
    """``1 - Dist(sigma_t(v), sigma_{t+1}(v))`` for one node's two signatures."""
    return 1.0 - distance(signature_now, signature_next)


def uniqueness(
    signature_v: Signature, signature_u: Signature, distance: DistanceFunction
) -> float:
    """``Dist(sigma_t(v), sigma_t(u))`` for two distinct nodes in one window."""
    return distance(signature_v, signature_u)


def robustness(
    signature: Signature, perturbed_signature: Signature, distance: DistanceFunction
) -> float:
    """``1 - Dist(sigma_t(v), sigma_hat_t(v))`` against a perturbed graph."""
    return 1.0 - distance(signature, perturbed_signature)


@dataclass(frozen=True)
class PropertyEllipse:
    """Mean/std summary of persistence and uniqueness for one scheme.

    Matches the paper's Figure 1 rendering: the ellipse is centred at
    ``(mean_persistence, mean_uniqueness)`` with the standard deviations as
    the axis diameters.
    """

    scheme: str
    distance: str
    mean_persistence: float
    std_persistence: float
    mean_uniqueness: float
    std_uniqueness: float
    num_nodes: int
    num_pairs: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "scheme": self.scheme,
            "distance": self.distance,
            "mean_persistence": self.mean_persistence,
            "std_persistence": self.std_persistence,
            "mean_uniqueness": self.mean_uniqueness,
            "std_uniqueness": self.std_uniqueness,
            "num_nodes": self.num_nodes,
            "num_pairs": self.num_pairs,
        }


def persistence_values(
    signatures_now: Mapping[NodeId, Signature],
    signatures_next: Mapping[NodeId, Signature],
    distance: DistanceFunction,
    nodes: Iterable[NodeId] | None = None,
) -> Dict[NodeId, float]:
    """Per-node persistence between two consecutive windows.

    ``nodes`` defaults to the nodes present in *both* signature maps.
    """
    if nodes is None:
        nodes = [node for node in signatures_now if node in signatures_next]
    nodes = list(nodes)
    for node in nodes:
        if node not in signatures_now or node not in signatures_next:
            raise ExperimentError(f"node {node!r} lacks a signature in one window")
    pack_now = SignaturePack.from_signatures(signatures_now, order=nodes)
    pack_next = SignaturePack.from_signatures(signatures_next, order=nodes)
    diagonal = np.arange(len(nodes))
    distances = cross_pair_distances(pack_now, pack_next, diagonal, diagonal, distance)
    return {node: 1.0 - value for node, value in zip(nodes, distances.tolist())}


def uniqueness_values(
    signatures: Mapping[NodeId, Signature],
    distance: DistanceFunction,
    nodes: Sequence[NodeId] | None = None,
    max_pairs: int | None = None,
    seed: int = 0,
) -> List[float]:
    """Pairwise uniqueness values ``Dist(sigma(v), sigma(u))`` over distinct pairs.

    The paper evaluates all ordered pairs; with symmetric distances the
    unordered pairs carry the same information, so we enumerate unordered
    pairs.  For large populations, ``max_pairs`` caps the enumeration by
    uniform sampling without replacement: flat *pair indices* are drawn
    with ``random.Random(seed).sample`` and decoded to ``(i, j)`` row
    pairs, so the cost stays O(max_pairs) even when ``max_pairs``
    approaches the total pair count (a rejection-sampling loop would
    degrade badly there).  Sampling is seeded and deterministic.

    Distances come from the kernel entry points of :mod:`repro.core.packed`
    (custom callables run their scalar loop there).
    """
    population = list(nodes) if nodes is not None else list(signatures)
    count = len(population)
    total_pairs = count * (count - 1) // 2
    if total_pairs == 0:
        return []
    sampled = max_pairs is not None and max_pairs < total_pairs
    if sampled:
        flat = random.Random(seed).sample(range(total_pairs), max_pairs)
        rows, cols = _decode_pair_indices(np.asarray(flat, dtype=np.int64), count)
    else:
        rows, cols = np.triu_indices(count, k=1)
    pack = SignaturePack.from_signatures(signatures, order=population)
    if not sampled and count <= _FULL_MATRIX_MAX_NODES:
        # Full enumeration: one n x n kernel invocation beats gathering
        # the O(n^2) explicit pair list row by row.
        return pairwise_matrix(pack, distance)[rows, cols].tolist()
    return pair_distances(pack, rows, cols, distance).tolist()


def _decode_pair_indices(
    flat: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode flat unordered-pair indices to ``(i, j)`` with ``i < j``.

    Pairs are numbered in :func:`itertools.combinations` order: row ``i``
    owns the contiguous block of indices pairing it with ``j > i``.
    """
    block_sizes = np.arange(count - 1, -1, -1, dtype=np.int64)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(block_sizes[:-1])]
    )
    rows = np.searchsorted(offsets, flat, side="right") - 1
    cols = flat - offsets[rows] + rows + 1
    return rows, cols


def property_ellipse(
    signatures_now: Mapping[NodeId, Signature],
    signatures_next: Mapping[NodeId, Signature],
    distance: DistanceFunction,
    scheme_name: str = "",
    distance_name: str = "",
    nodes: Sequence[NodeId] | None = None,
    max_pairs: int | None = None,
    seed: int = 0,
) -> PropertyEllipse:
    """Figure 1 summary point: persistence/uniqueness mean and spread.

    Persistence is measured between the two windows for each node;
    uniqueness is measured within the first window over node pairs.
    """
    if nodes is None:
        nodes = [node for node in signatures_now if node in signatures_next]
    per_node = persistence_values(signatures_now, signatures_next, distance, nodes)
    pairwise = uniqueness_values(
        signatures_now, distance, nodes=nodes, max_pairs=max_pairs, seed=seed
    )
    persistence_array = np.asarray(list(per_node.values()), dtype=float)
    uniqueness_array = np.asarray(pairwise, dtype=float)
    return PropertyEllipse(
        scheme=scheme_name,
        distance=distance_name,
        mean_persistence=float(persistence_array.mean()) if persistence_array.size else 0.0,
        std_persistence=float(persistence_array.std()) if persistence_array.size else 0.0,
        mean_uniqueness=float(uniqueness_array.mean()) if uniqueness_array.size else 0.0,
        std_uniqueness=float(uniqueness_array.std()) if uniqueness_array.size else 0.0,
        num_nodes=len(per_node),
        num_pairs=len(pairwise),
    )
