"""Extension experiment X2 (Section VI): LSH approximate signature matching.

The paper points to Locality-Sensitive Hashing for scalable signature
comparison under the Jaccard distance.  LSH is a *near*-neighbour filter:
its banding S-curve passes pairs above a similarity threshold and drops
the rest, which is exactly the multiusage-detection workload ("find label
pairs with highly similar signatures").  The experiment therefore
measures, on the network dataset:

* **pair recall** — of all signature pairs within Jaccard distance
  ``near_threshold`` (the multiusage candidates found by exact brute
  force), what fraction does the LSH index surface as candidates;
* **candidate ratio** — the fraction of all pairs LSH actually had to
  score exactly (the speed lever: brute force scores 100%);
* wall-clock for both paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Set, Tuple

from repro.core.distances import dist_jaccard
from repro.core.scheme import create_scheme
from repro.experiments.config import NETWORK_K, ExperimentConfig, get_enterprise_dataset
from repro.experiments.report import format_table
from repro.matching.index import SignatureIndex
from repro.matching.lsh import ApproxSignatureIndex


@dataclass(frozen=True)
class LshQuality:
    """Near-pair recall and work ratio of LSH matching vs exact brute force."""

    bands: int
    rows_per_band: int
    near_threshold: float
    num_near_pairs: int
    pair_recall: float
    candidate_ratio: float
    exact_seconds: float
    lsh_seconds: float


def run_lsh_quality(
    bands: int = 64,
    rows_per_band: int = 2,
    near_threshold: float = 0.8,
    config: ExperimentConfig | None = None,
) -> LshQuality:
    """Index window-0 TT signatures; recover all near pairs via LSH."""
    config = config or ExperimentConfig()
    data = get_enterprise_dataset(config.scale)
    graph = data.graphs[0]
    population = data.local_hosts
    signatures = create_scheme("tt", k=NETWORK_K).compute_all(graph, population)

    exact_index = SignatureIndex(signatures, dist_jaccard)
    start = time.perf_counter()
    near_pairs: Set[Tuple] = {
        (first, second) for first, second, _score in exact_index.pairs_within(near_threshold)
    }
    exact_seconds = time.perf_counter() - start

    approx_index = ApproxSignatureIndex(bands=bands, rows_per_band=rows_per_band)
    start = time.perf_counter()
    approx_index.add_all(signatures.values())
    candidate_pairs: Set[Tuple] = set()
    for node in population:
        sketch = approx_index.minhasher.sketch_signature(signatures[node])
        for other in approx_index.lsh.candidates(sketch, exclude=node):
            candidate_pairs.add((node, other) if str(node) <= str(other) else (other, node))
    recovered = {
        pair
        for pair in candidate_pairs
        if dist_jaccard(signatures[pair[0]], signatures[pair[1]]) < near_threshold
    }
    lsh_seconds = time.perf_counter() - start

    total_pairs = len(population) * (len(population) - 1) // 2
    ordered_near = {
        (first, second) if str(first) <= str(second) else (second, first)
        for first, second in near_pairs
    }
    recall = len(recovered & ordered_near) / len(ordered_near) if ordered_near else 1.0
    return LshQuality(
        bands=bands,
        rows_per_band=rows_per_band,
        near_threshold=near_threshold,
        num_near_pairs=len(ordered_near),
        pair_recall=recall,
        candidate_ratio=len(candidate_pairs) / total_pairs if total_pairs else 0.0,
        exact_seconds=exact_seconds,
        lsh_seconds=lsh_seconds,
    )


def format_lsh_quality(result: LshQuality) -> str:
    """Render the LSH quality summary (the seeded columns, no timings)."""
    rows = [
        [
            f"{result.bands}x{result.rows_per_band}",
            result.near_threshold,
            result.num_near_pairs,
            result.pair_recall,
            result.candidate_ratio,
        ]
    ]
    return format_table(
        [
            "bands x rows",
            "near_thresh",
            "near_pairs",
            "pair_recall",
            "candidate_ratio",
        ],
        rows,
        title="Extension X2: LSH near-pair recovery vs brute force (Dist_Jac)",
    )
