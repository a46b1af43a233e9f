"""Perf regression guard for the batch distance kernels.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` (CI's bench
job does).  The scalar baseline runs through the same call sites as an
unregistered wrapper of the registered distance, which the kernel entry
points run as their scalar loop.  The two must agree bit for bit; the
speedup floor is deliberately generous (3x on a 2,000-node window, vs.
the >= 10x recorded in ``BENCH_distance_kernels.json``) so the guard
catches a vectorization regression — a kernel silently falling back to
the scalar loop — without flaking on noisy shared runners.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.distances import available_distances
from repro.core.packed import SignaturePack, cross_matrix
from repro.core.properties import uniqueness_values

from tools.bench import scalar_baseline, synthetic_window, warm_up

BENCH_JSON = Path(__file__).parent / "BENCH_distance_kernels.json"
SPEEDUP_FLOOR = 3.0
#: Max relative cost of observability on the hot kernel path (plus a small
#: absolute slack so sub-10ms timing noise cannot flake the guard).
OBS_OVERHEAD_CEILING = 0.05
OBS_OVERHEAD_SLACK_S = 0.005


@pytest.fixture(scope="module")
def window():
    warm_up()
    return synthetic_window(2000, 10, seed=7)


@pytest.mark.parametrize("distance", available_distances())
def test_uniqueness_batch_beats_scalar(window, distance):
    nodes = sorted(window)
    start = time.perf_counter()
    batch = uniqueness_values(window, distance, nodes=nodes)
    batch_wall = time.perf_counter() - start
    start = time.perf_counter()
    scalar = uniqueness_values(window, scalar_baseline(distance), nodes=nodes)
    scalar_wall = time.perf_counter() - start
    assert batch == scalar
    assert scalar_wall / batch_wall >= SPEEDUP_FLOOR, (
        f"{distance}: batch {batch_wall:.3f}s vs scalar {scalar_wall:.3f}s — "
        "vectorized path regressed"
    )


def test_committed_bench_json_meets_acceptance():
    """The committed record must show >= 10x on all-pairs uniqueness at n=2000."""
    payload = json.loads(BENCH_JSON.read_text())
    assert payload["benchmark"] == "distance_kernels"
    assert payload["mode"] == "full"
    assert payload["window"]["n"] == 2000
    gate = [
        record
        for record in payload["results"]
        if record["op"] == "uniqueness_all_pairs"
    ]
    assert {record["distance"] for record in gate} == set(available_distances())
    for record in gate:
        assert record["speedup"] >= 10, record
        assert record["max_abs_diff"] == 0, record


def test_bench_record_mirrored_to_repo_root():
    """tools/bench.py mirrors its record to <repo>/BENCH_<name>.json so the
    cross-PR perf trajectory is diffable without digging into benchmarks/."""
    root_record = BENCH_JSON.parents[2] / "BENCH_distance_kernels.json"
    assert root_record.exists(), "root BENCH mirror missing; run tools/bench.py"
    payload = json.loads(root_record.read_text())
    assert payload["benchmark"] == "distance_kernels"
    assert payload["results"]


def _best_wall(function, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def test_noop_registry_adds_no_measurable_overhead(window):
    """The instrumented kernels under the default no-op registry must stay
    within 5% of the same work under a collecting registry — i.e. the
    instrumentation is not measurable on the hot path in either mode, so
    the disabled default matches the pre-instrumentation baseline."""
    nodes = sorted(window)

    def run():
        return uniqueness_values(window, "jaccard", nodes=nodes)

    registry = obs.MetricsRegistry()

    def run_collecting():
        with obs.use_registry(registry):
            return run()

    run()
    run_collecting()  # warm both paths before timing
    noop_wall = _best_wall(run)
    collecting_wall = _best_wall(run_collecting)
    ceiling = collecting_wall * (1 + OBS_OVERHEAD_CEILING) + OBS_OVERHEAD_SLACK_S
    assert noop_wall <= ceiling, (
        f"no-op registry path took {noop_wall:.4f}s vs {collecting_wall:.4f}s "
        "with collection on — the disabled path regressed"
    )
    # Sanity: the collecting run actually recorded the kernel traffic.
    assert registry.counter_total("kernel.calls") >= 1


def test_compute_all_not_slower_than_per_node_loop():
    """``compute_all`` must agree with the raw per-node loop and stay close
    to it in cost: its batch dispatch and counters may not tax the
    computation.  The 1.5x bound is generous —
    the two paths should be near-identical."""
    from repro.core.scheme import create_scheme
    from repro.graph.comm_graph import GraphBuilder

    rng = __import__("random").Random(13)
    builder = GraphBuilder()
    for _ in range(4000):
        builder.add_edge(f"n{rng.randrange(400)}", f"n{rng.randrange(400)}", 1.0)
    graph = builder.build()
    scheme = create_scheme("tt", k=10)
    nodes = graph.nodes()

    def direct():
        return {node: scheme.compute(graph, node) for node in nodes}

    def batched():
        return scheme.compute_all(graph, nodes)

    assert direct() == batched()  # warm + agreement
    direct_wall = _best_wall(direct)
    batched_wall = _best_wall(batched)
    assert batched_wall <= direct_wall * 1.5 + OBS_OVERHEAD_SLACK_S, (
        f"compute_all took {batched_wall:.4f}s vs {direct_wall:.4f}s "
        "for the raw per-node loop — its batch dispatch regressed"
    )


def test_cross_matrix_scalar_agreement_large_window():
    window_now = synthetic_window(400, 10, seed=11)
    window_next = synthetic_window(400, 10, seed=11, churn=0.3)
    order = sorted(window_now)
    pack_now = SignaturePack.from_signatures(window_now, order=order)
    pack_next = SignaturePack.from_signatures(window_next, order=order)
    for distance in available_distances():
        batch = cross_matrix(pack_now, pack_next, distance)
        scalar = cross_matrix(pack_now, pack_next, scalar_baseline(distance))
        assert batch.tobytes() == scalar.tobytes()
