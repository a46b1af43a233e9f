"""Bench X2 — Section VI: LSH approximate signature matching.

The paper points to LSH (Indyk-Motwani) for scalable nearest-neighbour
search under Dist_Jac.  The bench measures near-pair recall against exact
brute force and the candidate-set ratio (the work saved).
"""

from benchmarks.conftest import run_once
from repro.experiments.ext_lsh import format_lsh_quality, run_lsh_quality


def test_lsh_near_pair_recovery(benchmark, paper_config, record_result):
    result = run_once(benchmark, lambda: run_lsh_quality(config=paper_config))
    record_result("ext_lsh_quality", format_lsh_quality(result))
    # Wall clock varies by host, so it stays out of the pinned table.
    benchmark.extra_info.update(
        exact_s=result.exact_seconds, lsh_s=result.lsh_seconds
    )

    # The ground truth must be non-trivial (alias pairs and similar hosts).
    assert result.num_near_pairs > 50

    # LSH recovers nearly all near pairs while scoring a small fraction of
    # the quadratic pair space.
    assert result.pair_recall > 0.9
    assert result.candidate_ratio < 0.3


def test_lsh_banding_tradeoff(benchmark, paper_config):
    """More rows per band -> stricter filter: fewer candidates, lower recall."""
    loose = run_once(benchmark, lambda: run_lsh_quality(bands=64, rows_per_band=2, config=paper_config))
    strict = run_lsh_quality(bands=32, rows_per_band=4, config=paper_config)
    assert strict.candidate_ratio <= loose.candidate_ratio
    assert strict.pair_recall <= loose.pair_recall + 0.02
