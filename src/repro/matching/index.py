"""Exact nearest-neighbour index over one window's signatures.

Brute force, but organised as an index so the approximate LSH variant is a
counterpart; also the ground truth the LSH recall bench compares against.
The index is immutable: it is built once over a window's
:class:`~repro.core.packed.SignaturePack`, and :meth:`SignatureIndex.query`
and :meth:`SignatureIndex.pairs_within` run through the pack's shared-term
kernel, so their distances have the scalar functions' bytes.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Tuple

import numpy as np

from repro.core.packed import (
    MetricSpec,
    SignaturePack,
    pairwise_matrix,
    signature_distances,
)
from repro.core.signature import Signature
from repro.exceptions import MatchingError
from repro.types import NodeId


class SignatureIndex:
    """An immutable queryable window of signatures keyed by owner.

    ``signatures`` is a pack (taken as it is), a mapping ``owner ->
    Signature`` or an iterable of signatures (packed once); an owner with
    several signatures is stored under its first.
    """

    def __init__(
        self,
        signatures: Mapping[NodeId, Signature] | Iterable[Signature],
        distance: MetricSpec = "jaccard",
    ) -> None:
        self.pack = SignaturePack.from_signatures(signatures)
        self.distance = distance
        # Each row's rank by str(owner): ties in (distance, str(owner))
        # keep row order, as a stable sort would.
        keys = list(map(str, self.pack.owners))
        rank_of = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        self._owner_rank = np.array([rank_of[key] for key in keys], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.pack)

    def __contains__(self, owner: NodeId) -> bool:
        return owner in self.pack

    def get(self, owner: NodeId) -> Signature:
        if owner not in self.pack:
            raise MatchingError(f"no signature stored for {owner!r}")
        return self.pack[owner]

    def owners(self) -> List[NodeId]:
        return list(self.pack.owners)

    # ------------------------------------------------------------------
    def query(
        self,
        signature: Signature,
        k: int = 1,
        exclude_self: bool = True,
    ) -> List[Tuple[NodeId, float]]:
        """The ``k`` nearest stored signatures, as (owner, distance), best
        first, ties by ``str(owner)``.

        ``exclude_self`` drops any stored signature with the query's owner
        (the usual setting: a node should not match itself).
        """
        if k < 1:
            raise MatchingError(f"k must be >= 1, got {k}")
        distances = signature_distances(signature, self.pack, self.distance)
        owners = self.pack.owners
        scored: List[Tuple[NodeId, float]] = []
        for row in np.lexsort((self._owner_rank, distances)).tolist():
            if exclude_self and owners[row] == signature.owner:
                continue
            scored.append((owners[row], float(distances[row])))
            if len(scored) == k:
                break
        return scored

    def pairs_within(self, threshold: float) -> List[Tuple[NodeId, NodeId, float]]:
        """All stored pairs with distance below ``threshold`` (ascending).

        This is the multiusage detector's workload; quadratic by design.
        """
        if not 0 <= threshold <= 1:
            raise MatchingError(f"threshold must be in [0, 1], got {threshold}")
        owners = self.pack.owners
        rows, cols = np.triu_indices(len(owners), k=1)
        distances = pairwise_matrix(self.pack, self.distance)[rows, cols]
        near = distances < threshold
        results = [
            (owners[first], owners[second], score)
            for first, second, score in zip(
                rows[near].tolist(), cols[near].tolist(), distances[near].tolist()
            )
        ]
        results.sort(key=lambda item: (item[2], str(item[0]), str(item[1])))
        return results
