"""Bench X4 — local-push RWR: accuracy/sparsity/speed vs the exact scheme.

Section VI leaves scalable RWR computation open; the push algorithm
answers it with per-query work independent of |V|.  Measured here: top-k
agreement with exact RWR, the fraction of the graph each query touches,
and wall-clock, across epsilon settings.  The pinned table holds the
seeded columns; wall-clock goes to the benchmark record's ``extra_info``.
"""

import time

from benchmarks.conftest import run_once
from repro.core.distances import dist_jaccard
from repro.core.scheme import create_scheme
from repro.experiments.config import NETWORK_K, get_enterprise_dataset
from repro.experiments.report import format_table


def test_push_rwr_quality_sweep(benchmark, record_result):
    data = get_enterprise_dataset("paper")
    graph = data.graphs[0]
    hosts = data.local_hosts[:100]
    exact_scheme = create_scheme("rwr", k=NETWORK_K, reset_probability=0.1)
    exact = exact_scheme.compute_all(graph, hosts)

    def sweep():
        rows = []
        for epsilon in (1e-4, 1e-5, 1e-6):
            push = create_scheme(
                "rwr-push", k=NETWORK_K, reset_probability=0.1, epsilon=epsilon
            )
            start = time.perf_counter()
            signatures = {host: push.compute(graph, host) for host in hosts}
            elapsed = time.perf_counter() - start
            agreement = 1.0 - sum(
                dist_jaccard(signatures[host], exact[host]) for host in hosts
            ) / len(hosts)
            touched = sum(
                push.touched_size(graph, host) for host in hosts[:10]
            ) / (10 * graph.num_nodes)
            rows.append([f"{epsilon:g}", agreement, touched, elapsed])
        return rows

    rows = run_once(benchmark, sweep)
    # Wall clock varies by host, so it stays out of the pinned table.
    benchmark.extra_info["seconds_100_queries"] = {
        epsilon: elapsed for epsilon, *_, elapsed in rows
    }
    record_result(
        "ext_push_rwr",
        format_table(
            ["epsilon", "top-k set agreement", "touched fraction"],
            [row[:3] for row in rows],
            title="Extension X4: local-push RWR vs exact (300-host window)",
        ),
    )
    agreements = [row[1] for row in rows]
    touched_fractions = [row[2] for row in rows]
    # Tighter epsilon -> better agreement and more of the graph touched.
    assert agreements == sorted(agreements)
    assert touched_fractions == sorted(touched_fractions)
    # At the tight end the approximation is essentially exact.
    assert agreements[-1] > 0.9, rows
    # At the coarse end the query is genuinely local.
    assert touched_fractions[0] < 0.8, rows
