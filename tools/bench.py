#!/usr/bin/env python
"""Perf regression harness: scalar vs. batch distance kernels.

Times the vectorized kernels in :mod:`repro.core.packed` against the
scalar fallback loops *through the same call sites* (the scalar side runs
under :func:`repro.core.packed.batch_disabled`), asserts numerical
agreement, and writes a machine-readable record to
``benchmarks/perf/BENCH_distance_kernels.json``.

Benchmarked operations:

- ``uniqueness_all_pairs``: all-pairs uniqueness over a synthetic window
  (the acceptance gate: >= 10x at n=2000 for every distance)
- ``cross_identification``: the n x n identity score matrix between two
  consecutive windows (the fig2/fig3 inner loop)
- ``fig1_end_to_end`` / ``fig3_end_to_end``: full experiment drivers at
  small scale, serial vs. batch

A second stage (``--stage incremental``) benchmarks the incremental
sliding-window signature engine against per-window full recomputation on a
backbone-plus-churn trace, asserts byte-identical outputs, and writes
``benchmarks/perf/BENCH_incremental_engine.json``.

A third stage (``--stage shm``) benchmarks the zero-copy shared-memory
recompute engine (:mod:`repro.parallel.shm`) against both the serial path
and a pickle-per-task ``parallel_map`` baseline at 1/2/4/8 workers,
asserts byte-identical signatures, and writes
``benchmarks/perf/BENCH_shared_memory.json``.  The vs-pickle gate (>= 2x
at 4 workers) is core-count independent and always enforced; the
vs-serial scaling gate only fires on hosts with >= 4 CPUs.

A fourth stage (``--stage sketch``) maps the memory-budgeted sketch
tier's accuracy-vs-memory curve (:mod:`repro.streaming.tier`) on a
large-external-universe enterprise trace (100k+ graph nodes in full
mode), measures top-k overlap and persistence error against the exact
signatures at each budget, benchmarks the merge-based
``SketchTier.advance`` against the old full re-observation path, and
writes ``benchmarks/perf/BENCH_sketch_tier.json``.  Gates (full mode):
mean top-k overlap >= 0.9 at the default budget, and tier bytes >= 4x
below the exact graph's adjacency at the same per-entry cost.

A fifth stage (``--stage service_slo``) drives a deterministic seeded
load profile (:mod:`repro.service.loadgen`) through an in-process
:class:`~repro.service.http.SignatureService`, writes per-endpoint
p50/p95/p99 latency, the cross-shard merge of the per-shard breaker
digests, the service's own ``/slo`` burn-rate verdicts and a
``/trace/<id>`` round-trip to ``BENCH_service_slo.json``, and gates on
every digest quantile landing within its advertised relative accuracy of
the exact order statistic.

A sixth stage (``--stage history``) fills a
:class:`~repro.store.history.HistoryStore` with windows of synthetic
signatures (>= 100k stored rows in full mode), then times "who looked
like X" queries through the on-disk LSH band index against the
brute-force decode of the whole window.  Gates: every planted exact
duplicate must surface at distance 0 through both paths, the indexed
path must be at least MIN_HISTORY_INDEX_SPEEDUP faster at full scale,
and compaction must leave every query answer byte-identical.

Usage::

    python tools/bench.py                 # full run, n=2000 windows
    python tools/bench.py --quick         # CI smoke: small n, agreement only
    python tools/bench.py --stage incremental   # delta-engine stage only
    python tools/bench.py --stage shm           # shared-memory stage only
    python tools/bench.py --stage sketch        # sketch-tier stage only
    python tools/bench.py --stage service_slo   # service SLO/latency stage
    python tools/bench.py --stage history       # history-store query stage
    python tools/bench.py --stage all
    python tools/bench.py --output out.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import obs
from repro.core.distances import available_distances
from repro.core.packed import SignaturePack, batch_disabled, cross_matrix
from repro.core.properties import uniqueness_values
from repro.core.signature import Signature

DEFAULT_OUTPUT = REPO_ROOT / "benchmarks" / "perf" / "BENCH_distance_kernels.json"
INCREMENTAL_OUTPUT = (
    REPO_ROOT / "benchmarks" / "perf" / "BENCH_incremental_engine.json"
)
SHM_OUTPUT = REPO_ROOT / "benchmarks" / "perf" / "BENCH_shared_memory.json"
SKETCH_OUTPUT = REPO_ROOT / "benchmarks" / "perf" / "BENCH_sketch_tier.json"
SERVICE_SLO_OUTPUT = REPO_ROOT / "benchmarks" / "perf" / "BENCH_service_slo.json"
HISTORY_OUTPUT = REPO_ROOT / "benchmarks" / "perf" / "BENCH_history_store.json"
AGREEMENT_TOLERANCE = 1e-9

#: History-store acceptance gate (full mode): with >= HISTORY_GATE_ROWS
#: signatures stored, an LSH-indexed lookalike query must beat the
#: brute-force decode of the queried window by this factor.
MIN_HISTORY_INDEX_SPEEDUP = 5.0
HISTORY_GATE_ROWS = 100_000

#: Incremental-engine acceptance gate: schemes whose mean dirty fraction is
#: at most MAX_DIRTY_FRACTION must show at least MIN_INCREMENTAL_SPEEDUP.
MIN_INCREMENTAL_SPEEDUP = 3.0
MAX_DIRTY_FRACTION = 0.10

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
#: ratio compares like with like).
MIN_SKETCH_OVERLAP = 0.9
MIN_SKETCH_MEMORY_RATIO = 4.0

#: Service-SLO stage gate: a LatencyDigest built from the load run's exact
#: latencies must land every reported quantile within its advertised
#: relative accuracy of the true order statistic (plus float slop).
DIGEST_ERROR_SLOP = 1e-6


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


def bench_uniqueness(n: int, k: int, repeats: int, records: list) -> None:
    """All-pairs uniqueness: the paper's O(n^2) property measurement."""
    signatures = synthetic_window(n, k, seed=7)
    nodes = sorted(signatures)
    for distance in available_distances():
        batch_wall, batch_result = timed(
            lambda: uniqueness_values(signatures, distance, nodes=nodes),
            repeats=repeats,
        )
        with batch_disabled():
            scalar_wall, scalar_result = timed(
                lambda: uniqueness_values(signatures, distance, nodes=nodes)
            )
        worst = check_agreement(
            "uniqueness_all_pairs", distance, batch_result, scalar_result
        )
        records.append(
            {
                "op": "uniqueness_all_pairs",
                "distance": distance,
                "n": n,
                "pairs": n * (n - 1) // 2,
                "scalar_wall_s": round(scalar_wall, 6),
                "batch_wall_s": round(batch_wall, 6),
                "speedup": round(scalar_wall / batch_wall, 2),
                "max_abs_diff": worst,
            }
        )


def bench_cross_identification(n: int, k: int, repeats: int, records: list) -> None:
    """The n x n score matrix between two windows (fig2/fig3 inner loop)."""
    signatures_now = synthetic_window(n, k, seed=7)
    signatures_next = synthetic_window(n, k, seed=7, churn=0.3)
    order = sorted(signatures_now)
    pack_now = SignaturePack.from_signatures(signatures_now, order=order)
    pack_next = SignaturePack.from_signatures(signatures_next, order=order)
    for distance in available_distances():
        batch_wall, batch_matrix = timed(
            lambda: cross_matrix(pack_now, pack_next, distance), repeats=repeats
        )
        with batch_disabled():
            scalar_wall, scalar_matrix = timed(
                lambda: cross_matrix(pack_now, pack_next, distance)
            )
        worst = check_agreement(
            "cross_identification", distance, batch_matrix, scalar_matrix
        )
        records.append(
            {
                "op": "cross_identification",
                "distance": distance,
                "n": n,
                "pairs": n * n,
                "scalar_wall_s": round(scalar_wall, 6),
                "batch_wall_s": round(batch_wall, 6),
                "speedup": round(scalar_wall / batch_wall, 2),
                "max_abs_diff": worst,
            }
        )


def bench_experiments(records: list) -> None:
    """End-to-end fig1/fig3 at small scale, scalar vs. batch paths."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig1_properties import run_fig1
    from repro.experiments.fig3_auc import run_fig3

    config = ExperimentConfig(scale="small")
    for op, runner in [
        ("fig1_end_to_end", lambda: run_fig1("network", config)),
        ("fig3_end_to_end", lambda: run_fig3("network", config)),
    ]:
        batch_wall, _ = timed(runner)
        with batch_disabled():
            scalar_wall, _ = timed(runner)
        records.append(
            {
                "op": op,
                "distance": "all",
                "n": "small-scale",
                "scalar_wall_s": round(scalar_wall, 6),
                "batch_wall_s": round(batch_wall, 6),
                "speedup": round(scalar_wall / batch_wall, 2),
            }
        )


def bench_obs_overhead(n: int, k: int, repeats: int, records: list) -> None:
    """Cost of the observability instrumentation on the hot kernel path.

    ``disabled`` times the instrumented kernels under the default no-op
    registry (the zero-overhead contract); ``enabled`` times them under a
    collecting :class:`repro.obs.MetricsRegistry`.
    """
    signatures = synthetic_window(n, k, seed=7)
    nodes = sorted(signatures)

    def run() -> dict:
        return uniqueness_values(signatures, "jaccard", nodes=nodes)

    disabled_wall, _ = timed(run, repeats=repeats)
    registry = obs.MetricsRegistry()

    def run_enabled() -> dict:
        with obs.use_registry(registry):
            return run()

    enabled_wall, _ = timed(run_enabled, repeats=repeats)
    records.append(
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
    )


#: Scheme line-up for the incremental-engine stage.
INCREMENTAL_SCHEMES = [
    ("tt", {}),
    ("ut", {}),
    ("it", {}),
    ("rwr", {"max_hops": 3}),
    ("rwr-push", {}),
]


def incremental_trace(
    num_nodes: int, num_windows: int, churn_fraction: float, seed: int
) -> list:
    """A backbone-plus-churn record trace for the incremental engine.

    Every window repeats a stable weighted ring ``v_i -> v_{i+1}`` (so the
    node set and dangling set never change and unchanged edges produce no
    delta entries), plus a rotating block of ``churn_fraction * num_nodes``
    extra edges whose position shifts each window — the sparse per-window
    change a sliding deployment actually sees.
    """
    from repro.graph.stream import EdgeRecord

    rng = random.Random(seed)
    churn_size = max(1, int(num_nodes * churn_fraction))
    records = []
    for window in range(num_windows):
        t = window + 0.5
        for i in range(num_nodes):
            records.append(
                EdgeRecord(
                    time=t,
                    src=f"v{i}",
                    dst=f"v{(i + 1) % num_nodes}",
                    weight=1.0 + (i % 7) * 0.25,
                )
            )
        start = (window * churn_size) % num_nodes
        for j in range(churn_size):
            records.append(
                EdgeRecord(
                    time=t,
                    src=f"v{(start + j) % num_nodes}",
                    dst=f"v{(start + j + num_nodes // 2) % num_nodes}",
                    weight=rng.uniform(0.5, 3.0),
                )
            )
    records.sort()
    return records


def bench_incremental(
    num_nodes: int, num_windows: int, k: int, repeats: int, records_out: list
) -> None:
    """Incremental chained recompute vs. per-window full recompute.

    Both passes run over identically-constructed sliding sequences and the
    resulting signature maps are asserted equal window by window (the
    engine's byte-identity contract).  ``dirty_fraction`` is the mean
    fraction of the population each scheme recomputes per transition —
    the quantity the speedup gate conditions on.
    """
    from repro.core.scheme import create_scheme
    from repro.graph.windows import GraphSequence

    trace = incremental_trace(num_nodes, num_windows, churn_fraction=0.01, seed=23)

    def build_sequence() -> GraphSequence:
        return GraphSequence.from_sliding_records(trace, num_windows=num_windows)

    for name, params in INCREMENTAL_SCHEMES:
        scheme = create_scheme(name, k=k, **params)
        # Separate sequences per pass so neither benefits from matrix
        # caches warmed by the other.
        seq_full = build_sequence()
        seq_inc = build_sequence()

        full_wall, full_maps = timed(
            lambda: [scheme.compute_all(graph) for graph in seq_full.graphs],
            repeats=repeats,
        )

        def run_incremental():
            maps = [scheme.compute_all(seq_inc.graphs[0])]
            for t in range(1, len(seq_inc)):
                maps.append(
                    scheme.compute_all(
                        seq_inc.graphs[t],
                        delta=seq_inc.deltas[t - 1],
                        previous=maps[-1],
                    )
                )
            return maps

        inc_wall, inc_maps = timed(run_incremental, repeats=repeats)
        if full_maps != inc_maps:
            raise AssertionError(
                f"incremental engine diverged from full recompute for {name}"
            )

        dirty_total = 0
        for t in range(1, len(seq_inc)):
            dirty = scheme.dirty_nodes(seq_inc.graphs[t], seq_inc.deltas[t - 1])
            dirty_total += num_nodes if dirty is None else len(dirty)
        dirty_fraction = dirty_total / (num_nodes * (len(seq_inc) - 1))

        records_out.append(
            {
                "op": "incremental_vs_full",
                "scheme": scheme.describe(),
                "n": num_nodes,
                "windows": num_windows,
                "dirty_fraction": round(dirty_fraction, 4),
                "scalar_wall_s": round(full_wall, 6),
                "batch_wall_s": round(inc_wall, 6),
                "speedup": round(full_wall / inc_wall, 2),
                "note": "scalar=full per-window recompute, batch=delta engine",
            }
        )


#: Scheme line-up for the shared-memory stage (the fig1/fig3 recompute
#: kernels plus the service's push scheme; unbounded RWR is excluded on
#: purpose — it is not partition-safe, so the engine runs it whole-batch
#: and there is nothing to parallelize).  The third element names the
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
    from repro.core.signature import Signature as _Signature
    from repro.parallel import parallel_map

    chunk = max(1, min(message_size, -(-len(targets) // max(workers, 1))))
    tasks = [
        (graph, scheme, targets[start : start + chunk])
        for start in range(0, len(targets), chunk)
    ]
    merged = {}
    for rows in parallel_map(_pickle_chunk, tasks, jobs=workers):
        for node, entries in rows:
            merged[node] = _Signature(node, dict(entries))
    return {node: merged[node] for node in targets}


def bench_shm(
    num_nodes: int,
    out_degree: int,
    worker_counts,
    repeats: int,
    records_out: list,
    schemes=None,
) -> None:
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

    for name, params, gates in schemes if schemes is not None else SHM_SCHEMES:
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
                if list(candidate) != list(serial_map) or any(
                    candidate[node].entries != serial_map[node].entries
                    for node in serial_map
                ):
                    raise AssertionError(
                        f"{label} path diverged from serial for {name} "
                        f"at {workers} workers"
                    )
            records_out.append(
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


def bench_shm_dirty(
    num_nodes: int, num_windows: int, workers: int, repeats: int, records_out: list
) -> None:
    """The pipeline's actual workload: dirty-set recompute across windows.

    Chains ``compute_all(delta=..., previous=...)`` over a sliding
    backbone-plus-churn trace in-process and on an shm engine and asserts
    the chains byte-identical end to end.
    """
    from repro.core.scheme import create_scheme
    from repro.graph.windows import GraphSequence
    from repro.parallel.shm import ShmEngine

    trace = incremental_trace(num_nodes, num_windows, churn_fraction=0.05, seed=29)
    sequence = GraphSequence.from_sliding_records(trace, num_windows=num_windows)
    scheme = create_scheme("tt", k=10)

    def run_chain(engine=None):
        maps = [scheme.compute_all(sequence.graphs[0], engine=engine)]
        for t in range(1, len(sequence)):
            maps.append(
                scheme.compute_all(
                    sequence.graphs[t],
                    delta=sequence.deltas[t - 1],
                    previous=maps[-1],
                    engine=engine,
                )
            )
        return maps

    serial_wall, serial_maps = timed(run_chain, repeats=repeats)
    with ShmEngine(jobs=workers) as engine:
        shm_wall, shm_maps = timed(lambda: run_chain(engine), repeats=repeats)
    if serial_maps != shm_maps:
        raise AssertionError("shm dirty-set chain diverged from serial")
    records_out.append(
        {
            "op": "shm_dirty_set_chain",
            "scheme": scheme.describe(),
            "n": num_nodes,
            "windows": num_windows,
            "workers": workers,
            "serial_wall_s": round(serial_wall, 6),
            "shm_wall_s": round(shm_wall, 6),
            "speedup_vs_serial": round(serial_wall / shm_wall, 2),
        }
    )


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


def bench_sketch_accuracy(data, budgets, repeats: int, records_out: list) -> dict:
    """Top-k overlap / persistence error / bytes across the budget curve.

    Returns the summary facts the gates need (exact adjacency bytes and
    the default-budget row).  The exact side is priced at the tier's own
    HOT_ENTRY_BYTES per adjacency entry, so the memory ratio compares
    idealized-compact state on both sides rather than flattering the
    sketch with Python dict overheads.
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

    default_row = None
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
        records_out.append(row)
        if row["is_default_budget"]:
            default_row = row
    return {
        "exact_bytes": exact_bytes,
        "graph_nodes": graph_now.num_nodes,
        "graph_edges": graph_now.num_edges,
        "default_row": default_row,
    }


def sketch_advance_buckets(
    num_buckets: int, bucket_size: int, num_sources: int, seed: int
) -> list:
    """Seeded per-bucket record lists for the advance-throughput bench."""
    from repro.graph.stream import EdgeRecord

    rng = random.Random(seed)
    return [
        [
            EdgeRecord(
                time=float(b),
                src=f"h{rng.randrange(num_sources)}",
                dst=f"e{rng.randrange(8 * num_sources)}",
                weight=float(rng.randrange(1, 6)),
            )
            for _ in range(bucket_size)
        ]
        for b in range(num_buckets)
    ]


def bench_sketch_advance(quick: bool, repeats: int, records_out: list) -> None:
    """Merge-based ``SketchTier.advance`` vs the old full re-observation.

    The baseline reproduces the code this PR removed: every advance built
    a fresh window builder and re-observed all retained records —
    O(window_buckets x bucket) record updates per window, against the new
    path's one bucket observation plus sketch merges.
    """
    from collections import deque

    from repro.service.config import ServiceConfig
    from repro.service.shard import SketchTier
    from repro.streaming.stream_schemes import StreamingTopTalkers

    # The regime the merge path targets: shard-sized owner populations
    # with many records per bucket, where re-observation cost scales with
    # window_buckets x bucket while merging scales with owners.
    window_buckets = 4 if quick else 8
    buckets = sketch_advance_buckets(
        num_buckets=10 if quick else 24,
        bucket_size=1024 if quick else 4096,
        num_sources=16 if quick else 24,
        seed=41,
    )
    config = ServiceConfig(
        scheme="tt", k=10, window_buckets=window_buckets, window_records=1
    )

    def run_merge():
        tier = SketchTier(config)
        for bucket in buckets:
            tier.advance(bucket)
        return tier.current

    def run_rebuild():
        retained: deque = deque(maxlen=window_buckets)
        current = None
        for bucket in buckets:
            retained.append(sorted(bucket))
            builder = StreamingTopTalkers(
                k=config.k,
                epsilon=config.streaming_epsilon,
                delta=config.streaming_delta,
                seed=config.seed,
            )
            for part in retained:
                builder.observe_records(part)
            current = builder
        return current

    merge_wall, merge_builder = timed(run_merge, repeats=repeats)
    rebuild_wall, rebuild_builder = timed(run_rebuild, repeats=repeats)
    if set(merge_builder.sources) != set(rebuild_builder.sources):
        raise AssertionError(
            "merge-based advance tracks a different source set than rebuild"
        )
    records_out.append(
        {
            "op": "sketch_advance_throughput",
            "windows": len(buckets),
            "window_buckets": window_buckets,
            "records_per_bucket": len(buckets[0]),
            "rebuild_wall_s": round(rebuild_wall, 6),
            "merge_wall_s": round(merge_wall, 6),
            "speedup_vs_rebuild": round(rebuild_wall / merge_wall, 2),
            "rebuild_windows_per_s": round(len(buckets) / rebuild_wall, 1),
            "merge_windows_per_s": round(len(buckets) / merge_wall, 1),
        }
    )


def warm_up() -> None:
    """Prime BLAS threads / page caches so first-call cost is not timed."""
    signatures = synthetic_window(64, 10, seed=1)
    pack = SignaturePack.from_signatures(signatures)
    for distance in available_distances():
        cross_matrix(pack, pack, distance)
        uniqueness_values(signatures, distance)


def _write_payload(payload: dict, output: Path) -> None:
    """Write a bench payload and mirror it to the repo root.

    The mirror (``<repo>/BENCH_<name>.json``) keeps the cross-PR perf
    trajectory greppable without digging into benchmarks/; diff it across
    commits.
    """
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    root_output = REPO_ROOT / f"BENCH_{payload['benchmark']}.json"
    if root_output != output:
        root_output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"mirrored bench record to {root_output}")
    print(f"wrote {output}")


def _print_records(records: list, label_key: str) -> None:
    width = max(len(record["op"]) for record in records)
    label_width = max(len(str(record[label_key])) for record in records)
    for record in records:
        print(
            f"{record['op']:<{width}}  {str(record[label_key]):<{label_width}}"
            f"  scalar {record['scalar_wall_s']:>9.4f}s"
            f"  batch {record['batch_wall_s']:>9.4f}s"
            f"  speedup {record['speedup']:>8.2f}x"
        )


def _run_kernels_stage(args) -> int:
    n = 200 if args.quick else args.n
    repeats = 1 if args.quick else 3

    warm_up()
    records: list = []
    bench_registry = obs.MetricsRegistry() if args.obs_out else obs.NULL_REGISTRY
    with obs.use_registry(bench_registry):
        with obs.span("bench.distance_kernels"):
            bench_uniqueness(n, args.k, repeats, records)
            bench_cross_identification(min(n, 1000), args.k, repeats, records)
            if not args.quick:
                bench_experiments(records)
    bench_obs_overhead(n, args.k, repeats, records)
    if args.obs_out:
        obs.write_json(
            args.obs_out,
            bench_registry.snapshot(),
            meta={"command": "bench", "n": n, "k": args.k},
        )
        print(f"observability payload written to {args.obs_out}")

    payload = {
        "benchmark": "distance_kernels",
        "mode": "quick" if args.quick else "full",
        "window": {"n": n, "k": args.k},
        "agreement_tolerance": AGREEMENT_TOLERANCE,
        "results": records,
    }
    _write_payload(payload, args.output if args.output else DEFAULT_OUTPUT)
    _print_records(records, "distance")

    gate = [
        record
        for record in records
        if record["op"] == "uniqueness_all_pairs" and record["speedup"] < 10
    ]
    if not args.quick and gate:
        print(
            "FAIL: speedup below 10x for: "
            + ", ".join(record["distance"] for record in gate)
        )
        return 1
    return 0


def _run_incremental_stage(args) -> int:
    num_nodes = 200 if args.quick else 1200
    num_windows = 6 if args.quick else 10
    repeats = 1 if args.quick else 3

    records: list = []
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with obs.span("bench.incremental_engine"):
            bench_incremental(num_nodes, num_windows, args.k, repeats, records)
    counters = {
        key: value
        for key, value in registry.counters_flat().items()
        if key.startswith(("incremental.", "matrix_cache."))
    }

    payload = {
        "benchmark": "incremental_engine",
        "mode": "quick" if args.quick else "full",
        "trace": {"nodes": num_nodes, "windows": num_windows, "churn_fraction": 0.01},
        "gate": {
            "min_speedup": MIN_INCREMENTAL_SPEEDUP,
            "max_dirty_fraction": MAX_DIRTY_FRACTION,
        },
        "results": records,
        "obs_counters": counters,
    }
    output = (
        args.output
        if args.output and args.stage == "incremental"
        else INCREMENTAL_OUTPUT
    )
    _write_payload(payload, output)
    _print_records(records, "scheme")
    for record in records:
        print(
            f"  {record['scheme']}: dirty_fraction={record['dirty_fraction']:.3f}"
        )

    gate = [
        record
        for record in records
        if record["dirty_fraction"] <= MAX_DIRTY_FRACTION
        and record["speedup"] < MIN_INCREMENTAL_SPEEDUP
    ]
    if not args.quick and gate:
        print(
            f"FAIL: incremental speedup below {MIN_INCREMENTAL_SPEEDUP}x at "
            f"<= {MAX_DIRTY_FRACTION:.0%} dirty for: "
            + ", ".join(record["scheme"] for record in gate)
        )
        return 1
    return 0


def _run_shm_stage(args) -> int:
    from repro.parallel import available_cpus
    from repro.parallel.shm import active_segment_names

    num_nodes = 800 if args.quick else 1500
    out_degree = 16 if args.quick else 20
    worker_counts = (1, 2, 4) if args.quick else (1, 2, 4, 8)
    repeats = 3
    cores = available_cpus()
    # rwr-push is compute-bound (seconds per window even on small graphs):
    # skipped in the CI smoke, and in the full run it gets its own small
    # graph and single repeat so the stage stays in minutes, not hours.
    cheap_schemes = [entry for entry in SHM_SCHEMES if entry[0] != "rwr-push"]
    heavy_schemes = [] if args.quick else [
        entry for entry in SHM_SCHEMES if entry[0] == "rwr-push"
    ]

    records: list = []
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with obs.span("bench.shared_memory"):
            bench_shm(
                num_nodes, out_degree, worker_counts, repeats, records,
                cheap_schemes,
            )
            if heavy_schemes:
                bench_shm(300, 12, worker_counts, 1, records, heavy_schemes)
            bench_shm_dirty(
                num_nodes // 2,
                4 if args.quick else 8,
                SHM_GATE_WORKERS,
                repeats,
                records,
            )
    counters = {
        key: value
        for key, value in registry.counters_flat().items()
        if key.startswith("shm.")
    }
    leaked = active_segment_names()
    if leaked:
        raise AssertionError(f"bench leaked shared-memory segments: {leaked}")

    serial_gate_active = cores >= SHM_GATE_WORKERS
    payload = {
        "benchmark": "shared_memory",
        "mode": "quick" if args.quick else "full",
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
        "results": records,
        "obs_counters": counters,
    }
    output = args.output if args.output and args.stage == "shm" else SHM_OUTPUT
    _write_payload(payload, output)
    for record in records:
        vs_pickle = record.get("speedup_vs_pickle")
        print(
            f"{record['op']}  {record['scheme']:<12}  workers={record['workers']}"
            f"  serial {record['serial_wall_s']:>8.4f}s"
            f"  shm {record['shm_wall_s']:>8.4f}s"
            f"  vs-serial {record['speedup_vs_serial']:>6.2f}x"
            + (f"  vs-pickle {vs_pickle:>6.2f}x" if vs_pickle is not None else "")
        )

    failures = []
    for record in records:
        if record["op"] != "shm_batch_recompute":
            continue
        if record["workers"] != SHM_GATE_WORKERS:
            continue
        gates = record["gates"]
        if "pickle" in gates and record["speedup_vs_pickle"] < MIN_SHM_SPEEDUP:
            failures.append(
                f"{record['scheme']}: vs-pickle {record['speedup_vs_pickle']}x"
            )
        if (
            serial_gate_active
            and "serial" in gates
            and record["speedup_vs_serial"] < MIN_SHM_SPEEDUP
        ):
            failures.append(
                f"{record['scheme']}: vs-serial {record['speedup_vs_serial']}x"
            )
    if failures:
        print(
            f"FAIL: shm speedup below {MIN_SHM_SPEEDUP}x at "
            f"{SHM_GATE_WORKERS} workers for: " + ", ".join(failures)
        )
        return 1
    return 0


def _run_sketch_stage(args) -> int:
    from repro.streaming.tier import DEFAULT_BUDGET_BYTES

    repeats = 1 if args.quick else 2
    budgets = (
        (1 << 14, 1 << 17, DEFAULT_BUDGET_BYTES)
        if args.quick
        else (1 << 16, 1 << 18, 1 << 20, DEFAULT_BUDGET_BYTES, 1 << 22)
    )

    records: list = []
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with obs.span("bench.sketch_tier"):
            data = sketch_trace(args.quick)
            facts = bench_sketch_accuracy(data, budgets, repeats, records)
            bench_sketch_advance(args.quick, repeats, records)
    counters = {
        key: value
        for key, value in registry.counters_flat().items()
        if key.startswith("sketch.")
    }

    payload = {
        "benchmark": "sketch_tier",
        "mode": "quick" if args.quick else "full",
        "trace": {
            "hosts": len(data.local_hosts),
            "graph_nodes": facts["graph_nodes"],
            "graph_edges": facts["graph_edges"],
            "exact_bytes": facts["exact_bytes"],
        },
        "gate": {
            "default_budget_bytes": DEFAULT_BUDGET_BYTES,
            "min_topk_overlap": MIN_SKETCH_OVERLAP,
            "min_memory_ratio": MIN_SKETCH_MEMORY_RATIO,
            "min_graph_nodes": 100000,
        },
        "results": records,
        "obs_counters": counters,
    }
    output = args.output if args.output and args.stage == "sketch" else SKETCH_OUTPUT
    _write_payload(payload, output)
    for record in records:
        if record["op"] == "sketch_accuracy_vs_memory":
            print(
                f"sketch_accuracy  budget {record['budget_bytes']:>9}"
                f"  used {record['bytes_used']:>9}"
                f"  hot {record['hot_nodes']:>4}  tail {record['tail_nodes']:>5}"
                f"  overlap {record['topk_overlap']:.3f}"
                f"  persist-mae {record['persistence_mae']:.4f}"
                f"  mem-ratio {record['memory_ratio_vs_exact']:>6.2f}x"
            )
        else:
            print(
                f"sketch_advance   {record['windows']} windows x "
                f"{record['window_buckets']} buckets"
                f"  rebuild {record['rebuild_wall_s']:.4f}s"
                f"  merge {record['merge_wall_s']:.4f}s"
                f"  speedup {record['speedup_vs_rebuild']:.2f}x"
            )

    if args.quick:
        return 0
    failures = []
    default_row = facts["default_row"]
    if facts["graph_nodes"] < 100000:
        failures.append(
            f"trace too small for the memory gate: {facts['graph_nodes']} "
            f"graph nodes < 100000"
        )
    if default_row is None:
        failures.append("default budget missing from the curve")
    else:
        if default_row["topk_overlap"] < MIN_SKETCH_OVERLAP:
            failures.append(
                f"top-k overlap {default_row['topk_overlap']} < "
                f"{MIN_SKETCH_OVERLAP} at the default budget"
            )
        if default_row["memory_ratio_vs_exact"] < MIN_SKETCH_MEMORY_RATIO:
            failures.append(
                f"memory ratio {default_row['memory_ratio_vs_exact']}x < "
                f"{MIN_SKETCH_MEMORY_RATIO}x at the default budget"
            )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


def _run_service_slo_stage(args) -> int:
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

        # ------------------------------------------------------------------
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

        # ------------------------------------------------------------------
        # The service's own merged view: per-endpoint quantiles from the
        # frontend digests, plus the cross-shard fold of the per-shard
        # breaker digests (merged exactly like counters).
        service_view = {}
        breaker_states = []
        for name, labels, state in report.snapshot.get("digests", []):
            if name == "service.latency_s":
                service_view[labels.get("endpoint", "?")] = {
                    f"p{int(q * 100)}_s": quantile_from_state(state, q)
                    for q in EXPORT_QUANTILES
                }
            elif name == "breaker.latency_s" and labels.get("outcome") == "success":
                breaker_states.append(state)
        cross_shard = merge_digest_states(breaker_states)
        cross_shard_quantiles = {
            f"p{int(q * 100)}_s": cross_shard.quantile(q) for q in EXPORT_QUANTILES
        }
        if cross_shard.count == 0:
            failures.append("no cross-shard breaker latency samples to merge")

        # ------------------------------------------------------------------
        # SLO verdicts must exist and carry burn rates.
        objectives = report.slo_report.get("objectives", [])
        if not objectives:
            failures.append("/slo returned no objectives")
        for objective in objectives:
            if "verdict" not in objective or "burn_rate" not in objective:
                failures.append(
                    f"objective {objective.get('name')} missing verdict/burn_rate"
                )

        # ------------------------------------------------------------------
        # Trace round-trip: a real /similar scatter-gather must come back
        # from /trace/<id> as a frontend -> shard span tree.
        status, headers, _body = service.respond("GET", "/similar/h1?k=3")
        trace_id = headers.get("X-Trace-Id", "")
        t_status, _t_headers, t_body = service.respond("GET", f"/trace/{trace_id}")
        trace_check = {"trace_id": trace_id, "status": t_status, "spans": None}
        if t_status != 200:
            failures.append(f"/trace/{trace_id} returned {t_status}")
        else:
            trace = json.loads(t_body)
            spans = trace.get("spans") or {}
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

    payload = {
        "benchmark": "service_slo",
        "mode": "quick" if args.quick else "full",
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
            **cross_shard_quantiles,
        },
        "slo": report.slo_report,
        "sample_traces": dict(report.sample_traces),
        "trace_roundtrip": trace_check,
        "gate": {
            "max_digest_rel_error": config.digest_relative_accuracy
            + DIGEST_ERROR_SLOP,
        },
        "failures": failures,
    }
    output = (
        args.output if args.output and args.stage == "service_slo"
        else SERVICE_SLO_OUTPUT
    )
    _write_payload(payload, output)

    for kind, entry in summary.items():
        print(
            f"service_slo  {kind:>9}  n {entry['count']:>5}"
            f"  p50 {entry['p50_s'] * 1e3:7.3f}ms"
            f"  p99 {entry['p99_s'] * 1e3:7.3f}ms"
            f"  ok {entry['ok']}/{entry['count']}"
        )
    for objective in objectives:
        print(
            f"service_slo  slo:{objective['name']:<14}"
            f" verdict {objective['verdict']}"
            f"  burn {objective['burn_rate']:.3f}"
        )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


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


def _run_history_stage(args) -> int:
    import tempfile

    from repro.store import HistoryStore

    num_windows = 4 if args.quick else 10
    owners_per_window = 500 if args.quick else 10_000
    query_count = 8 if args.quick else 24
    k = 5

    windows, duplicates = _history_population(num_windows, owners_per_window, 41)
    failures: list = []
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

    payload = {
        "benchmark": "history_store",
        "mode": "quick" if args.quick else "full",
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
        "failures": failures,
    }
    output = (
        args.output if args.output and args.stage == "history" else HISTORY_OUTPUT
    )
    _write_payload(payload, output)

    print(
        f"history_store  rows {total_rows:>7}"
        f"  indexed {indexed_wall:>8.4f}s"
        f"  brute {brute_wall:>8.4f}s"
        f"  speedup {speedup:>7.2f}x"
        f"  compact-invisible {before_compact == after_compact}"
    )
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small windows, agreement checks only",
    )
    parser.add_argument(
        "--stage",
        choices=(
            "kernels",
            "incremental",
            "shm",
            "sketch",
            "service_slo",
            "history",
            "all",
        ),
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
        help="collect kernel metrics/spans during the bench run and write "
        "the repro.obs JSON payload here",
    )
    args = parser.parse_args(argv)

    exit_code = 0
    if args.stage in ("kernels", "all"):
        exit_code |= _run_kernels_stage(args)
    if args.stage in ("incremental", "all"):
        exit_code |= _run_incremental_stage(args)
    if args.stage in ("shm", "all"):
        exit_code |= _run_shm_stage(args)
    if args.stage in ("sketch", "all"):
        exit_code |= _run_sketch_stage(args)
    if args.stage in ("service_slo", "all"):
        exit_code |= _run_service_slo_stage(args)
    if args.stage in ("history", "all"):
        exit_code |= _run_history_stage(args)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
