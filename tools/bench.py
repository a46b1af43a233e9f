#!/usr/bin/env python
"""Perf regression harness: five gated bench stages over one driver.

- ``kernels``: scalar vs batch distance kernels through the same call sites
- ``shm``: shared-memory engine vs serial and pickle-``parallel_map`` recompute
- ``sketch``: sketch-tier accuracy-vs-memory curve
- ``service_slo``: seeded load through the in-process service: latency, digests, SLOs, traces
- ``history``: indexed vs brute-force history-store lookalike queries, and compaction

A full run writes ``benchmarks/perf/BENCH_<benchmark>.json`` and mirrors it
at the repo root, so the cross-PR trajectory diffs at a glance.  ``--quick``
(CI smoke: small inputs, full-scale gates off) writes only under the
git-ignored ``benchmarks/perf/quick/``.  ``--output`` and ``--obs-out`` name
one stage's file, so they need a single ``--stage``.

Usage::

    python tools/bench.py                         # kernels stage, full run
    python tools/bench.py --stage all --quick     # every stage, CI smoke
    python tools/bench.py --stage shm --output out.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import obs
from repro.core.distances import available_distances
from repro.core.packed import SignaturePack, batch_disabled, cross_matrix
from repro.core.properties import uniqueness_values
from repro.core.signature import Signature

PERF_DIR = REPO_ROOT / "benchmarks" / "perf"
#: Quick-mode records land here (git-ignored), never over a committed record.
QUICK_DIR = PERF_DIR / "quick"
AGREEMENT_TOLERANCE = 1e-9

#: Kernels acceptance gate (full mode): all-pairs uniqueness at n=2000.
MIN_KERNEL_SPEEDUP = 10.0

#: History-store acceptance gate (full mode): with >= HISTORY_GATE_ROWS
#: signatures stored, an LSH-indexed lookalike query must beat the
#: brute-force decode of the queried window by this factor.
MIN_HISTORY_INDEX_SPEEDUP = 5.0
HISTORY_GATE_ROWS = 100_000

#: Shared-memory engine acceptance gates, both measured at
#: SHM_GATE_WORKERS workers.  The vs-pickle ratio compares equal
#: parallelism (only the transport differs), so it transfers across core
#: counts and is enforced everywhere; the vs-serial ratio needs real
#: cores and is only enforced when the host has >= SHM_GATE_WORKERS CPUs.
MIN_SHM_SPEEDUP = 2.0
SHM_GATE_WORKERS = 4

#: Sketch-tier acceptance gates, both evaluated at the tier's default
#: budget on the full-mode trace: mean top-k overlap with the exact
#: signatures, and how far tier state sits below the exact graph's
#: adjacency (both sides priced at HOT_ENTRY_BYTES per entry, so the
#: ratio compares like with like).  The trace must reach
#: MIN_SKETCH_GRAPH_NODES graph nodes for the memory ratio to mean much.
MIN_SKETCH_OVERLAP = 0.9
MIN_SKETCH_MEMORY_RATIO = 4.0
MIN_SKETCH_GRAPH_NODES = 100_000

#: Service-SLO stage gate: a LatencyDigest built from the load run's exact
#: latencies must land every reported quantile within its advertised
#: relative accuracy of the true order statistic (plus float slop).
DIGEST_ERROR_SLOP = 1e-6


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def synthetic_window(count: int, k: int, seed: int, churn: float = 0.0) -> dict:
    """A seeded window of ``count`` signatures with ``k`` entries each.

    Members are drawn from a shared vocabulary sized for realistic overlap
    (a few percent of pairs share members, like hosts sharing peers).
    ``churn`` resamples that fraction of each signature's members — use it
    to derive a correlated "next window" from the same seed.
    """
    rng = random.Random(seed)
    vocab = [f"peer{i}" for i in range(max(4 * k, count // 2))]
    signatures = {}
    for i in range(count):
        owner = f"host{i}"
        members = rng.sample(vocab, k)
        if churn:
            fresh = rng.sample(vocab, k)
            members = [
                fresh[j] if rng.random() < churn else member
                for j, member in enumerate(members)
            ]
        signatures[owner] = Signature(
            owner, {member: rng.uniform(0.5, 20.0) for member in set(members)}
        )
    return signatures


def timed(function, repeats: int = 1):
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def check_same_signatures(what: str, expected: list, actual: list) -> None:
    """Raise unless two lists of signature maps match exactly: the same
    owners in the same order, with byte-identical entries."""
    if [list(m.items()) for m in expected] != [list(m.items()) for m in actual]:
        raise AssertionError(f"{what} diverged")


def check_agreement(op: str, distance: str, batch_values, scalar_values) -> float:
    batch_array = np.asarray(batch_values, dtype=np.float64)
    scalar_array = np.asarray(scalar_values, dtype=np.float64)
    worst = float(np.abs(batch_array - scalar_array).max()) if batch_array.size else 0.0
    if worst > AGREEMENT_TOLERANCE:
        raise AssertionError(
            f"{op}/{distance}: batch and scalar disagree by {worst:.3e} "
            f"(tolerance {AGREEMENT_TOLERANCE:.0e})"
        )
    return worst


def warm_up() -> None:
    """Prime BLAS threads / page caches so first-call cost is not timed."""
    signatures = synthetic_window(64, 10, seed=1)
    pack = SignaturePack.from_signatures(signatures)
    for distance in available_distances():
        cross_matrix(pack, pack, distance)
        uniqueness_values(signatures, distance)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def _scalar_vs_batch(op: str, n: int, pairs: int, compute, repeats: int) -> list:
    """Time ``compute(distance)`` batch and scalar for every distance."""
    rows = []
    for distance in available_distances():
        batch_wall, batch_result = timed(lambda: compute(distance), repeats=repeats)
        with batch_disabled():
            scalar_wall, scalar_result = timed(lambda: compute(distance))
        worst = check_agreement(op, distance, batch_result, scalar_result)
        rows.append(
            {
                "op": op,
                "distance": distance,
                "n": n,
                "pairs": pairs,
                "scalar_wall_s": round(scalar_wall, 6),
                "batch_wall_s": round(batch_wall, 6),
                "speedup": round(scalar_wall / batch_wall, 2),
                "max_abs_diff": worst,
            }
        )
    return rows


def bench_uniqueness(n: int, k: int, repeats: int) -> list:
    """All-pairs uniqueness: the paper's O(n^2) property measurement."""
    signatures = synthetic_window(n, k, seed=7)
    nodes = sorted(signatures)
    return _scalar_vs_batch(
        "uniqueness_all_pairs",
        n,
        n * (n - 1) // 2,
        lambda distance: uniqueness_values(signatures, distance, nodes=nodes),
        repeats,
    )


def bench_cross_identification(n: int, k: int, repeats: int) -> list:
    """The n x n score matrix between two windows (fig2/fig3 inner loop)."""
    signatures_now = synthetic_window(n, k, seed=7)
    signatures_next = synthetic_window(n, k, seed=7, churn=0.3)
    order = sorted(signatures_now)
    pack_now = SignaturePack.from_signatures(signatures_now, order=order)
    pack_next = SignaturePack.from_signatures(signatures_next, order=order)
    return _scalar_vs_batch(
        "cross_identification",
        n,
        n * n,
        lambda distance: cross_matrix(pack_now, pack_next, distance),
        repeats,
    )


def bench_experiments() -> list:
    """End-to-end fig1/fig3 at small scale, scalar vs. batch paths."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig1_properties import run_fig1
    from repro.experiments.fig3_auc import run_fig3

    config = ExperimentConfig(scale="small")
    rows = []
    for op, runner in [
        ("fig1_end_to_end", lambda: run_fig1("network", config)),
        ("fig3_end_to_end", lambda: run_fig3("network", config)),
    ]:
        batch_wall, _ = timed(runner)
        with batch_disabled():
            scalar_wall, _ = timed(runner)
        rows.append(
            {
                "op": op,
                "distance": "all",
                "n": "small-scale",
                "scalar_wall_s": round(scalar_wall, 6),
                "batch_wall_s": round(batch_wall, 6),
                "speedup": round(scalar_wall / batch_wall, 2),
            }
        )
    return rows


def bench_obs_overhead(n: int, k: int, repeats: int) -> list:
    """Cost of the observability instrumentation on the hot kernel path.

    ``disabled`` times the instrumented kernels under the default no-op
    registry (the zero-overhead contract); ``enabled`` times them under a
    collecting :class:`repro.obs.MetricsRegistry`.
    """
    signatures = synthetic_window(n, k, seed=7)
    nodes = sorted(signatures)

    def run() -> dict:
        return uniqueness_values(signatures, "jaccard", nodes=nodes)

    def run_under(registry):
        with obs.use_registry(registry):
            return run()

    disabled_wall, _ = timed(lambda: run_under(obs.NULL_REGISTRY), repeats=repeats)
    registry = obs.MetricsRegistry()
    enabled_wall, _ = timed(lambda: run_under(registry), repeats=repeats)
    return [
        {
            "op": "obs_overhead",
            "distance": "jaccard",
            "n": n,
            "scalar_wall_s": round(enabled_wall, 6),
            "batch_wall_s": round(disabled_wall, 6),
            "speedup": round(enabled_wall / disabled_wall, 2),
            "note": "scalar=collecting registry, batch=no-op registry; "
            "speedup column is the enabled/disabled overhead ratio",
        }
    ]


def kernels_stage(args):
    n = 200 if args.quick else args.n
    repeats = 1 if args.quick else 3
    warm_up()
    rows = bench_uniqueness(n, args.k, repeats)
    rows += bench_cross_identification(min(n, 1000), args.k, repeats)
    if not args.quick:
        rows += bench_experiments()
    rows += bench_obs_overhead(n, args.k, repeats)
    slow = [
        row["distance"]
        for row in rows
        if row["op"] == "uniqueness_all_pairs" and row["speedup"] < MIN_KERNEL_SPEEDUP
    ]
    failures = []
    if not args.quick and slow:
        failures.append(
            f"uniqueness speedup below {MIN_KERNEL_SPEEDUP:g}x for: " + ", ".join(slow)
        )
    fields = {
        "window": {"n": n, "k": args.k},
        "agreement_tolerance": AGREEMENT_TOLERANCE,
        "results": rows,
    }
    return fields, rows, failures


# ----------------------------------------------------------------------
# shm
# ----------------------------------------------------------------------
#: Scheme line-up for the shared-memory stage (the fig1/fig3 recompute
#: kernels plus the service's push scheme).  Unbounded RWR has no row:
#: the engine chunks it by the same rule as hop-limited RWR, whose row
#: gates that path.  The third element names the
#: gates the scheme can physically demonstrate: transport-bound schemes
#: (cheap per-node compute, the graph dominates the wire) gate on
#: vs-pickle, compute-bound schemes gate on vs-serial scaling.
SHM_SCHEMES = [
    ("tt", {}, ("pickle",)),
    ("ut", {}, ("pickle",)),
    ("it", {}, ("pickle",)),
    ("rwr", {"max_hops": 3}, ("serial",)),
    ("rwr-push", {}, ("serial",)),
]


def shm_graph(num_nodes: int, out_degree: int, seed: int):
    """A seeded communication graph heavy enough to expose transport cost."""
    from repro.graph.comm_graph import CommGraph

    rng = random.Random(seed)
    graph = CommGraph()
    for i in range(num_nodes):
        src = f"h{i}"
        for _ in range(out_degree):
            dst = f"h{rng.randrange(num_nodes)}"
            if dst != src:
                graph.add_edge(src, dst, rng.uniform(0.5, 8.0))
    return graph


def _pickle_chunk(task):
    """parallel_map baseline worker: the whole graph rides in the pickle.

    This is exactly what a naive ``parallel_map`` port of the recompute
    loop pays per chunk — the cost the shared-memory engine exists to
    remove.  Returns the same compact rows the shm workers return, so the
    two baselines merge identically.
    """
    graph, scheme, chunk = task
    result = scheme._compute_batch(graph, chunk)
    return [(node, result[node].entries) for node in result]


def _pickle_parallel_compute(scheme, graph, targets, workers: int, message_size: int):
    """Pickle-transport equivalent of ``ShmEngine.compute_batch``.

    Same chunk geometry as the engine (so the only variable is how bytes
    reach the workers), merged in submission order for determinism.
    """
    from repro.parallel import parallel_map

    chunk = max(1, min(message_size, -(-len(targets) // max(workers, 1))))
    tasks = [
        (graph, scheme, targets[start : start + chunk])
        for start in range(0, len(targets), chunk)
    ]
    merged = {}
    for rows in parallel_map(_pickle_chunk, tasks, jobs=workers):
        for node, entries in rows:
            merged[node] = Signature(node, dict(entries))
    return {node: merged[node] for node in targets}


def bench_shm(
    num_nodes: int, out_degree: int, worker_counts, repeats: int, schemes
) -> list:
    """Serial vs pickle-``parallel_map`` vs shared-memory batch recompute.

    All three paths are asserted byte-identical per scheme and worker
    count (``Signature.entries`` equality on the full population).  The
    shm engine is warmed with one untimed dispatch per worker count —
    steady-state is its honest number (a persistent engine forks its pool
    and publishes the graph once per run, not once per window), while the
    pickle baseline's per-call pool is inherent to ``parallel_map`` and
    stays inside its timing.
    """
    from repro.core.scheme import create_scheme
    from repro.parallel.shm import DEFAULT_MESSAGE_SIZE, ShmEngine

    graph = shm_graph(num_nodes, out_degree, seed=11)
    population = graph.senders()
    rows = []
    for name, params, gates in schemes:
        scheme = create_scheme(name, k=10, **params)
        serial_wall, serial_map = timed(
            lambda: scheme.compute_all(graph, population), repeats=repeats
        )
        for workers in worker_counts:
            pickle_wall, pickle_map = timed(
                lambda: _pickle_parallel_compute(
                    scheme, graph, population, workers, DEFAULT_MESSAGE_SIZE
                ),
                repeats=repeats,
            )
            with ShmEngine(jobs=workers) as engine:
                engine.compute_batch(scheme, graph, population)  # warm pool
                shm_wall, shm_map = timed(
                    lambda: engine.compute_batch(scheme, graph, population),
                    repeats=repeats,
                )
            for label, candidate in (("pickle", pickle_map), ("shm", shm_map)):
                check_same_signatures(
                    f"{label} path vs serial for {name} at {workers} workers",
                    [serial_map],
                    [candidate],
                )
            rows.append(
                {
                    "op": "shm_batch_recompute",
                    "scheme": scheme.describe(),
                    "n": num_nodes,
                    "workers": workers,
                    "gates": list(gates),
                    "serial_wall_s": round(serial_wall, 6),
                    "pickle_wall_s": round(pickle_wall, 6),
                    "shm_wall_s": round(shm_wall, 6),
                    "speedup_vs_serial": round(serial_wall / shm_wall, 2),
                    "speedup_vs_pickle": round(pickle_wall / shm_wall, 2),
                }
            )
    return rows


def shm_stage(args):
    from repro.parallel import available_cpus
    from repro.parallel.shm import active_segment_names

    num_nodes = 800 if args.quick else 1500
    out_degree = 16 if args.quick else 20
    worker_counts = (1, 2, 4) if args.quick else (1, 2, 4, 8)
    repeats = 3
    cores = available_cpus()
    serial_gate_active = cores >= SHM_GATE_WORKERS
    # rwr-push is compute-bound (seconds per window even on small graphs):
    # skipped in the CI smoke, and in the full run it gets its own small
    # graph and single repeat so the stage stays in minutes, not hours.
    cheap = [entry for entry in SHM_SCHEMES if entry[0] != "rwr-push"]
    heavy = [entry for entry in SHM_SCHEMES if entry[0] == "rwr-push"]
    rows = bench_shm(num_nodes, out_degree, worker_counts, repeats, cheap)
    if not args.quick:
        rows += bench_shm(300, 12, worker_counts, 1, heavy)

    failures = []
    leaked = active_segment_names()
    if leaked:
        failures.append(f"bench leaked shared-memory segments: {leaked}")
    for row in rows:
        if row["op"] != "shm_batch_recompute" or row["workers"] != SHM_GATE_WORKERS:
            continue
        for gate, active in (("pickle", True), ("serial", serial_gate_active)):
            speedup = row[f"speedup_vs_{gate}"]
            if active and gate in row["gates"] and speedup < MIN_SHM_SPEEDUP:
                failures.append(
                    f"{row['scheme']}: vs-{gate} {speedup}x < {MIN_SHM_SPEEDUP:g}x "
                    f"at {SHM_GATE_WORKERS} workers"
                )
    fields = {
        "host_cpus": cores,
        "graph": {"nodes": num_nodes, "out_degree": out_degree},
        "gate": {
            "min_speedup": MIN_SHM_SPEEDUP,
            "workers": SHM_GATE_WORKERS,
            "vs_pickle": "enforced (transport-bound schemes)",
            "vs_serial": (
                "enforced (compute-bound schemes)"
                if serial_gate_active
                else f"skipped ({cores} CPUs < {SHM_GATE_WORKERS})"
            ),
        },
        "results": rows,
    }
    return fields, rows, failures


# ----------------------------------------------------------------------
# sketch
# ----------------------------------------------------------------------
def _add_scanner_hosts(data, num_scanners, draws_per_window, universe, seed):
    """Graft scanner-style sources onto an enterprise trace.

    Scanners (vulnerability probes, crawlers, monitoring fleets) are the
    canonical reason a sketch tier exists: a handful of sources whose
    one-off probes inflate the distinct-destination universe far past
    what exact per-source state can hold, while the hundreds of ordinary
    hosts keep small, repetitive adjacencies.  Each scanner sprays
    ``draws_per_window`` uniform probes into its own ``wild-*`` address
    space, fresh every window.
    """
    rng = np.random.default_rng(seed)
    scanners = [f"scan-{index:03d}" for index in range(num_scanners)]
    for graph in data.graphs.graphs:
        for host in scanners:
            graph.add_left_node(host)
            targets, counts = np.unique(
                rng.integers(0, universe, size=draws_per_window),
                return_counts=True,
            )
            for address, count in zip(targets.tolist(), counts.tolist()):
                graph.add_edge(host, f"wild-{address:07d}", float(count))
    data.local_hosts.extend(scanners)
    return data


def sketch_trace(quick: bool):
    """A two-window enterprise trace plus scanner hosts.

    Full mode pushes the destination universe past 100k distinct graph
    nodes per window — the regime the budgeted tier exists for (exact
    per-source state tracks the universe; tier state tracks the budget).
    The mix is deliberate: ~400 repeat-talker hosts the hot-set knapsack
    can cover exactly, plus 20 scanners whose sprayed probes carry the
    bulk of the distinct-node mass and land in the sketched tail.
    """
    from repro.datasets.enterprise import EnterpriseFlowGenerator, EnterpriseParams

    if quick:
        params = EnterpriseParams(
            num_hosts=80,
            num_external=2500,
            num_windows=2,
            num_alias_users=5,
            seed=3,
        )
        data = EnterpriseFlowGenerator(params).generate()
        return _add_scanner_hosts(
            data, num_scanners=2, draws_per_window=1500, universe=30000, seed=17
        )
    params = EnterpriseParams(
        num_hosts=400,
        num_external=50000,
        mean_sessions=300.0,
        noise_share=0.15,
        num_windows=2,
        num_alias_users=20,
        seed=3,
    )
    data = EnterpriseFlowGenerator(params).generate()
    return _add_scanner_hosts(
        data, num_scanners=20, draws_per_window=16000, universe=1000000, seed=17
    )


def _mean_topk_overlap(exact: dict, approx: dict, hosts) -> float:
    overlaps = [
        len(exact[h].nodes & approx[h].nodes) / len(exact[h].nodes)
        for h in hosts
        if exact[h].nodes
    ]
    return sum(overlaps) / len(overlaps) if overlaps else 1.0


def _persistence_map(now: dict, prev: dict, hosts) -> dict:
    from repro.core.distances import get_distance

    sdice = get_distance("sdice")
    return {
        h: 1.0 - sdice(prev[h], now[h])
        for h in hosts
        if h in now and h in prev
    }


def bench_sketch_accuracy(data, budgets, repeats: int):
    """Top-k overlap / persistence error / bytes across the budget curve.

    Returns the rows and the trace facts the gates need.  The exact side
    is priced at the tier's own HOT_ENTRY_BYTES per adjacency entry, so
    the memory ratio compares idealized-compact state on both sides
    rather than flattering the sketch with Python dict overheads.
    """
    from repro.core.scheme import create_scheme
    from repro.streaming.tier import (
        DEFAULT_BUDGET_BYTES,
        HOT_ENTRY_BYTES,
        SketchTierEngine,
    )

    graph_now, graph_next = data.graphs.graphs[0], data.graphs.graphs[1]
    hosts = data.local_hosts
    scheme = create_scheme("tt", k=10)
    exact_now = scheme.compute_all(graph_now, hosts)
    exact_next = scheme.compute_all(graph_next, hosts)
    exact_persistence = _persistence_map(exact_next, exact_now, hosts)
    exact_bytes = (graph_now.num_nodes + graph_now.num_edges) * HOT_ENTRY_BYTES

    rows = []
    for budget in budgets:
        engine = SketchTierEngine(budget_bytes=budget, seed=3)
        wall, approx_now = timed(
            lambda: scheme.compute_all(graph_now, hosts, engine=engine),
            repeats=repeats,
        )
        stats = dict(engine.last_stats)
        approx_next = scheme.compute_all(graph_next, hosts, engine=engine)
        overlap = (
            _mean_topk_overlap(exact_now, approx_now, hosts)
            + _mean_topk_overlap(exact_next, approx_next, hosts)
        ) / 2.0
        approx_persistence = _persistence_map(approx_next, approx_now, hosts)
        errors = [
            abs(exact_persistence[h] - approx_persistence[h])
            for h in exact_persistence
            if h in approx_persistence
        ]
        row = {
            "op": "sketch_accuracy_vs_memory",
            "budget_bytes": budget,
            "bytes_used": int(stats["bytes_used"]),
            "hot_nodes": int(stats["hot_nodes"]),
            "tail_nodes": int(stats["tail_nodes"]),
            "cm_width": int(stats["cm_width"]),
            "topk_overlap": round(overlap, 4),
            "persistence_mae": round(
                sum(errors) / len(errors) if errors else 0.0, 4
            ),
            "exact_bytes": exact_bytes,
            "memory_ratio_vs_exact": round(exact_bytes / stats["bytes_used"], 2),
            "wall_s": round(wall, 6),
            "is_default_budget": budget == DEFAULT_BUDGET_BYTES,
        }
        rows.append(row)
    trace = {
        "hosts": len(hosts),
        "graph_nodes": graph_now.num_nodes,
        "graph_edges": graph_now.num_edges,
        "exact_bytes": exact_bytes,
    }
    return rows, trace


def sketch_stage(args):
    from repro.streaming.tier import DEFAULT_BUDGET_BYTES

    repeats = 1 if args.quick else 2
    budgets = (
        (1 << 14, 1 << 17, DEFAULT_BUDGET_BYTES)
        if args.quick
        else (1 << 16, 1 << 18, 1 << 20, DEFAULT_BUDGET_BYTES, 1 << 22)
    )
    rows, trace = bench_sketch_accuracy(sketch_trace(args.quick), budgets, repeats)
    default = next(row for row in rows if row["is_default_budget"])

    failures = []
    if not args.quick:
        if trace["graph_nodes"] < MIN_SKETCH_GRAPH_NODES:
            failures.append(
                f"trace too small for the memory gate: {trace['graph_nodes']} "
                f"graph nodes < {MIN_SKETCH_GRAPH_NODES}"
            )
        if default["topk_overlap"] < MIN_SKETCH_OVERLAP:
            failures.append(
                f"top-k overlap {default['topk_overlap']} < "
                f"{MIN_SKETCH_OVERLAP} at the default budget"
            )
        if default["memory_ratio_vs_exact"] < MIN_SKETCH_MEMORY_RATIO:
            failures.append(
                f"memory ratio {default['memory_ratio_vs_exact']}x < "
                f"{MIN_SKETCH_MEMORY_RATIO}x at the default budget"
            )
    fields = {
        "trace": trace,
        "gate": {
            "default_budget_bytes": DEFAULT_BUDGET_BYTES,
            "min_topk_overlap": MIN_SKETCH_OVERLAP,
            "min_memory_ratio": MIN_SKETCH_MEMORY_RATIO,
            "min_graph_nodes": MIN_SKETCH_GRAPH_NODES,
        },
        "results": rows,
    }
    return fields, rows, failures


# ----------------------------------------------------------------------
# service_slo
# ----------------------------------------------------------------------
def service_slo_stage(args):
    from repro.obs.digest import (
        EXPORT_QUANTILES,
        merge_digest_states,
        quantile_from_state,
    )
    from repro.service import (
        LoadGenerator,
        LoadProfile,
        ServiceConfig,
        SignatureService,
        exact_quantile,
    )

    if args.quick:
        config = ServiceConfig(num_shards=2, window_records=64)
        profile = LoadProfile(requests=200, warmup_records=256, seed=0)
    else:
        config = ServiceConfig(num_shards=4, window_records=128)
        profile = LoadProfile(requests=2000, warmup_records=1024, seed=0)

    service = SignatureService(config)
    failures = []
    try:
        report = LoadGenerator(service, profile).run()
        summary = report.endpoint_summary()

        # Digest accuracy gate: replay each endpoint's exact measured
        # latencies through a fresh digest and demand every exported
        # quantile lands within the advertised relative accuracy of the
        # true order statistic.
        alpha = config.digest_relative_accuracy
        digest_checks = []
        for kind, values in sorted(report.latencies.items()):
            digest = obs.LatencyDigest(alpha)
            digest.observe_many(values)
            for q in EXPORT_QUANTILES:
                exact = exact_quantile(values, q)
                estimate = digest.quantile(q)
                rel_error = abs(estimate - exact) / exact if exact else 0.0
                digest_checks.append(
                    {
                        "endpoint": kind,
                        "quantile": q,
                        "exact_s": exact,
                        "digest_s": estimate,
                        "rel_error": rel_error,
                    }
                )
                if rel_error > alpha + DIGEST_ERROR_SLOP:
                    failures.append(
                        f"digest p{int(q * 100)} for {kind} off by "
                        f"{rel_error:.4f} > alpha {alpha}"
                    )

        # The service's own merged view: the cross-shard fold of the
        # per-shard breaker digests (merged exactly like counters).
        breaker_states = [
            state
            for name, labels, state in report.snapshot.get("digests", [])
            if name == "breaker.latency_s" and labels.get("outcome") == "success"
        ]
        cross_shard = merge_digest_states(breaker_states)
        if cross_shard.count == 0:
            failures.append("no cross-shard breaker latency samples to merge")

        # SLO verdicts must exist and carry burn rates.
        objectives = report.slo_report.get("objectives", [])
        if not objectives:
            failures.append("/slo returned no objectives")
        for objective in objectives:
            if "verdict" not in objective or "burn_rate" not in objective:
                failures.append(
                    f"objective {objective.get('name')} missing verdict/burn_rate"
                )

        # Trace round-trip: a real /similar scatter-gather must come back
        # from /trace/<id> as a frontend -> shard span tree.
        status, headers, _body = service.respond("GET", "/similar/h1?k=3")
        trace_id = headers.get("X-Trace-Id", "")
        t_status, _t_headers, t_body = service.respond("GET", f"/trace/{trace_id}")
        trace_check = {"trace_id": trace_id, "status": t_status, "spans": None}
        if t_status != 200:
            failures.append(f"/trace/{trace_id} returned {t_status}")
        else:
            spans = json.loads(t_body).get("spans") or {}
            child_names = {c["name"] for c in spans.get("children", [])}
            trace_check["spans"] = spans
            if spans.get("name") != "service.request":
                failures.append("trace root span is not service.request")
            if status == 200 and "similar.gather" not in child_names:
                failures.append(
                    f"similar trace has no shard gather spans: {child_names}"
                )
    finally:
        service.close()

    fields = {
        "config": {
            "num_shards": config.num_shards,
            "window_records": config.window_records,
            "digest_relative_accuracy": config.digest_relative_accuracy,
            "slo_similar_p99_s": config.slo_similar_p99_s,
            "slo_availability": config.slo_availability,
        },
        "profile": profile.to_dict(),
        "duration_s": report.duration_s,
        "endpoints": summary,
        "digest_checks": digest_checks,
        "cross_shard_breaker_latency": {
            "shards_merged": len(breaker_states),
            "count": cross_shard.count,
            **{
                f"p{int(q * 100)}_s": cross_shard.quantile(q)
                for q in EXPORT_QUANTILES
            },
        },
        "slo": report.slo_report,
        "sample_traces": dict(report.sample_traces),
        "trace_roundtrip": trace_check,
        "gate": {
            "max_digest_rel_error": config.digest_relative_accuracy
            + DIGEST_ERROR_SLOP,
        },
    }
    rows = [{"endpoint": kind, **entry} for kind, entry in summary.items()]
    return fields, rows + objectives, failures


# ----------------------------------------------------------------------
# history
# ----------------------------------------------------------------------
def _history_population(num_windows: int, owners_per_window: int, seed: int):
    """Synthetic per-window signature maps with planted exact duplicates.

    Owner ``dup-of-<i>`` in the final window carries a byte-identical
    copy of ``owner-<i>``'s signature — the masquerade the indexed query
    must surface at distance 0.
    """
    rng = random.Random(seed)
    universe = [f"svc-{i:04d}" for i in range(512)]
    windows = []
    duplicates = []
    for window in range(num_windows):
        signatures = {}
        for i in range(owners_per_window):
            owner = f"owner-{window}-{i:06d}"
            entries = {
                dst: 1.0 + rng.random() * 4.0
                for dst in rng.sample(universe, 8)
            }
            signatures[owner] = Signature(owner, entries)
        if window == num_windows - 1:
            originals = sorted(signatures)[:8]
            for original in originals:
                dup = f"dup-of-{original}"
                signatures[dup] = Signature(
                    dup, dict(signatures[original].entries)
                )
                duplicates.append((original, dup))
        windows.append((window, signatures))
    return windows, duplicates


def history_stage(args):
    from repro.store import HistoryStore

    num_windows = 4 if args.quick else 10
    owners_per_window = 500 if args.quick else 10_000
    query_count = 8 if args.quick else 24
    k = 5

    windows, duplicates = _history_population(num_windows, owners_per_window, 41)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(Path(tmp) / "history")
        append_started = time.perf_counter()
        for window, signatures in windows:
            store.append([(window, signatures)])
        append_wall = time.perf_counter() - append_started
        total_rows = sum(record.rows for record in store.segment_records())
        total_bytes = sum(record.nbytes for record in store.segment_records())
        last = store.max_window()
        if not args.quick and total_rows < HISTORY_GATE_ROWS:
            failures.append(
                f"population too small for the gate: {total_rows} rows "
                f"< {HISTORY_GATE_ROWS}"
            )

        # Queries: every planted duplicate's original, padded with ordinary
        # owners so timings cover the non-matching case too.
        last_signatures = dict(windows[-1][1])
        query_owners = [original for original, _ in duplicates]
        for owner in sorted(last_signatures):
            if len(query_owners) >= query_count:
                break
            if not owner.startswith("dup-of-"):
                query_owners.append(owner)
        queries = [last_signatures[owner] for owner in query_owners]

        def run_queries(exhaustive: bool):
            return [
                [
                    (match.owner, match.distance)
                    for match in store.query(
                        query, last, k=k, exhaustive=exhaustive
                    )
                ]
                for query in queries
            ]

        indexed_wall, indexed = timed(lambda: run_queries(False))
        brute_wall, brute = timed(lambda: run_queries(True))
        speedup = brute_wall / indexed_wall if indexed_wall > 0 else float("inf")

        # Correctness: both paths must put every planted duplicate (and the
        # query's own row) at distance 0, in identical order.
        by_owner = dict(zip(query_owners, zip(indexed, brute)))
        for original, dup in duplicates:
            idx_hits, brute_hits = by_owner[original]
            for label, hits in (("indexed", idx_hits), ("brute", brute_hits)):
                zero = {owner for owner, distance in hits if distance == 0.0}
                if not {original, dup} <= zero:
                    failures.append(
                        f"{label} query for {original} missed its planted "
                        f"duplicate at distance 0: {hits[:3]}"
                    )
        for owner, (idx_hits, brute_hits) in by_owner.items():
            if idx_hits and brute_hits and idx_hits[0] != brute_hits[0]:
                failures.append(
                    f"top hit disagrees for {owner}: "
                    f"indexed {idx_hits[0]} vs brute {brute_hits[0]}"
                )

        if not args.quick and speedup < MIN_HISTORY_INDEX_SPEEDUP:
            failures.append(
                f"indexed speedup {speedup:.2f}x below the "
                f"{MIN_HISTORY_INDEX_SPEEDUP:.1f}x gate at {total_rows} rows"
            )

        # Compaction must be query-invisible: supersede the last two
        # windows with byte-identical content (appending window m drops
        # every recorded window >= m), compact, and re-check both paths.
        redo = num_windows - 2
        store.append(
            [(redo, dict(windows[redo][1])), (last, last_signatures)]
        )
        before_compact = run_queries(False)
        removed = store.compact()
        after_compact = run_queries(False)
        if before_compact != after_compact:
            failures.append("indexed query answers changed across compact()")
        if run_queries(True) != brute:
            failures.append("brute-force answers changed across compact()")

        trajectory_probe = query_owners[0]
        trajectory_wall, trajectory = timed(
            lambda: store.trajectory(trajectory_probe)
        )

    fields = {
        "population": {
            "windows": num_windows,
            "owners_per_window": owners_per_window,
            "rows": total_rows,
            "bytes": total_bytes,
            "planted_duplicates": len(duplicates),
            "append_wall_s": append_wall,
        },
        "query": {
            "count": len(queries),
            "k": k,
            "window": last,
            "indexed_wall_s": indexed_wall,
            "brute_wall_s": brute_wall,
            "speedup": speedup,
        },
        "compaction": {
            "segments_removed": len(removed),
            "query_invisible": before_compact == after_compact,
        },
        "trajectory": {
            "owner": trajectory_probe,
            "points": len(trajectory),
            "wall_s": trajectory_wall,
        },
        "gate": {
            "min_speedup": MIN_HISTORY_INDEX_SPEEDUP,
            "min_rows": HISTORY_GATE_ROWS,
            "enforced": not args.quick,
        },
    }
    return fields, [{"op": "history_query", **fields["query"]}], failures


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class Stage(NamedTuple):
    #: Record name: the stage writes ``BENCH_<benchmark>.json``.
    benchmark: str
    #: ``body(args) -> (payload fields, rows to print, failure strings)``.
    body: Callable
    #: Prefixes of the collected obs counters stamped as ``obs_counters``;
    #: a stage without any times under the no-op registry unless
    #: ``--obs-out`` asks for its metrics.
    counters: tuple = ()


STAGES = {
    "kernels": Stage("distance_kernels", kernels_stage),
    "shm": Stage("shared_memory", shm_stage, ("shm.",)),
    "sketch": Stage("sketch_tier", sketch_stage, ("sketch.",)),
    "service_slo": Stage("service_slo", service_slo_stage),
    "history": Stage("history_store", history_stage),
}


def write_record(payload: dict, args) -> None:
    """Write a stage record: to ``--output`` when given, else under
    QUICK_DIR in quick mode, else to the committed record plus its
    repo-root mirror."""
    name = f"BENCH_{payload['benchmark']}.json"
    if args.output:
        paths = [args.output]
    elif args.quick:
        paths = [QUICK_DIR / name]
    else:
        paths = [PERF_DIR / name, REPO_ROOT / name]
    text = json.dumps(payload, indent=2) + "\n"
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")


def print_rows(benchmark: str, rows: list) -> None:
    """One line per row: its scalar fields, floats to 4 significant digits."""
    for row in rows:
        cells = [
            f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in row.items()
            if key != "note" and not isinstance(value, (list, dict))
        ]
        print(f"{benchmark}  " + "  ".join(cells))


def record_problems(payload: dict, reference: dict) -> list:
    """Keys of ``reference`` that ``payload`` lacks, at the top level and
    in each result row (against the reference rows of the same ``op``),
    so two records stay comparable across modes and commits."""
    problems = [f"missing key {key!r}" for key in reference.keys() - payload.keys()]
    expected = {}
    for row in reference.get("results", []):
        expected.setdefault(row["op"], set()).update(row)
    for row in payload.get("results", []):
        missing = expected.get(row["op"], set()) - row.keys()
        if missing:
            problems.append(f"{row['op']} row missing {sorted(missing)}")
    return problems


def run_stage(name: str, args) -> int:
    """Run one stage, write its record, and return 1 if any gate failed."""
    stage = STAGES[name]
    collect = stage.counters or args.obs_out
    registry = obs.MetricsRegistry() if collect else obs.NULL_REGISTRY
    with obs.use_registry(registry), obs.span(f"bench.{stage.benchmark}"):
        fields, rows, failures = stage.body(args)
    payload = {
        "benchmark": stage.benchmark,
        "mode": "quick" if args.quick else "full",
        **fields,
    }
    if stage.counters:
        payload["obs_counters"] = {
            key: value
            for key, value in registry.counters_flat().items()
            if key.startswith(stage.counters)
        }
    payload["failures"] = failures
    write_record(payload, args)
    if args.obs_out:
        obs.write_json(
            args.obs_out,
            registry.snapshot(),
            meta={"command": "bench", "benchmark": stage.benchmark},
        )
        print(f"observability payload written to {args.obs_out}")
    print_rows(stage.benchmark, rows)
    if failures:
        print(f"FAIL {stage.benchmark}: " + "; ".join(failures))
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small inputs, full-scale gates off; records go "
        "to benchmarks/perf/quick/",
    )
    parser.add_argument(
        "--stage",
        choices=(*STAGES, "all"),
        default="kernels",
        help="which benchmark stage to run (default: kernels)",
    )
    parser.add_argument("--n", type=int, default=2000, help="window size (hosts)")
    parser.add_argument(
        "--k",
        type=int,
        default=10,
        help="signature length (default matches the experiments' NETWORK_K)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="JSON output path (single-stage runs only; defaults per stage)",
    )
    parser.add_argument(
        "--obs-out",
        type=Path,
        default=None,
        help="collect metrics/spans during the stage run and write the "
        "repro.obs JSON payload here (single-stage runs only)",
    )
    args = parser.parse_args(argv)
    if args.stage == "all" and (args.output or args.obs_out):
        parser.error("--output and --obs-out name one stage's file; pick one --stage")
    names = list(STAGES) if args.stage == "all" else [args.stage]
    return max([run_stage(name, args) for name in names])


if __name__ == "__main__":
    sys.exit(main())
