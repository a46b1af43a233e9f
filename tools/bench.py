#!/usr/bin/env python
"""Perf regression harness: four gated bench stages run by one ``run_stage``.

- ``kernels``: the batch distance kernel vs the scalar loop through the same call sites
- ``shm``: shared-memory engine vs serial and pickle-``parallel_map`` recompute
- ``sketch``: accuracy and state of the degraded tier (``sketch_window``) against exact
- ``history``: indexed vs brute-force history-store lookalike queries, compaction,
  and how append and trajectory cost scale with stored windows

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
from repro.core.distances import available_distances, get_distance
from repro.core.packed import SignaturePack, cross_matrix
from repro.core.properties import uniqueness_values
from repro.core.signature import Signature

PERF_DIR = REPO_ROOT / "benchmarks" / "perf"
#: Quick-mode records land here (git-ignored), never over a committed record.
QUICK_DIR = PERF_DIR / "quick"
#: The batch kernel and the scalar loop must agree bit for bit.
AGREEMENT_TOLERANCE = 0.0

#: Kernels acceptance gate (full mode): all-pairs uniqueness at n=2000.
MIN_KERNEL_SPEEDUP = 10.0

#: History-store acceptance gate (full mode): with >= HISTORY_GATE_ROWS
#: signatures stored, an LSH-indexed lookalike query must beat the
#: brute-force decode of the queried window by this factor.
MIN_HISTORY_INDEX_SPEEDUP = 5.0
HISTORY_GATE_ROWS = 100_000

#: History-store append gate (quick and full mode): the median append of a
#: 75-owner, k = 10 window with HISTORY_SCALED_WINDOWS windows stored stays
#: within MAX_APPEND_GROWTH of the median with HISTORY_BASE_WINDOWS stored.
MAX_APPEND_GROWTH = 2.0
HISTORY_BASE_WINDOWS = 10
HISTORY_SCALED_WINDOWS = 3000
HISTORY_SCALED_WINDOWS_QUICK = 1000

#: Shared-memory engine acceptance gates, both measured at
#: SHM_GATE_WORKERS workers.  The vs-pickle ratio compares equal
#: parallelism (only the transport differs), so it transfers across core
#: counts and is enforced everywhere; the vs-serial ratio needs real
#: cores and is only enforced when the host has >= SHM_GATE_WORKERS CPUs.
MIN_SHM_SPEEDUP = 2.0
SHM_GATE_WORKERS = 4

#: Degraded-tier acceptance gates: every ``sketch_window`` row (TT and UT,
#: both windows, default sizing) keeps a mean top-k overlap with the exact
#: signatures of at least MIN_SKETCH_OVERLAP, in quick and full mode; the
#: full-mode trace must reach MIN_SKETCH_GRAPH_NODES graph nodes per window.
MIN_SKETCH_OVERLAP = 0.9
MIN_SKETCH_GRAPH_NODES = 100_000
#: Price of one exact graph cell (node or adjacency entry) in
#: ``exact_bytes``: a node key plus a weight in a compact map.
EXACT_CELL_BYTES = 16


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
    if worst > AGREEMENT_TOLERANCE or batch_array.tobytes() != scalar_array.tobytes():
        raise AssertionError(
            f"{op}/{distance}: batch and scalar differ (largest difference {worst:.3e})"
        )
    return worst


def scalar_baseline(distance: str):
    """An unregistered wrapper of the registered ``distance`` function: the
    kernel entry points run it as their scalar loop."""
    function = get_distance(distance)
    return lambda first, second: function(first, second)


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
        scalar_wall, scalar_result = timed(lambda: compute(scalar_baseline(distance)))
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
    from repro.graph.comm_graph import GraphBuilder

    rng = random.Random(seed)
    builder = GraphBuilder()
    for i in range(num_nodes):
        src = f"h{i}"
        for _ in range(out_degree):
            dst = f"h{rng.randrange(num_nodes)}"
            if dst != src:
                builder.add_edge(src, dst, rng.uniform(0.5, 8.0))
    return builder.build()


def _pickle_chunk(task):
    """parallel_map baseline worker: the whole graph rides in the pickle.

    This is exactly what a naive ``parallel_map`` port of the recompute
    loop pays per chunk — the cost the shared-memory engine exists to
    remove.  Returns the chunk's pack, as the shm workers do, so the two
    baselines join identically.
    """
    graph, scheme, chunk = task
    return scheme._compute_batch(graph, chunk)


def _pickle_parallel_compute(scheme, graph, targets, workers: int, message_size: int):
    """Pickle-transport equivalent of ``ShmEngine.compute_batch``.

    Same chunk geometry as the engine (so the only variable is how bytes
    reach the workers), chunk packs joined in submission order.
    """
    from repro.parallel import parallel_map

    chunk = max(1, min(message_size, -(-len(targets) // max(workers, 1))))
    tasks = [
        (graph, scheme, targets[start : start + chunk])
        for start in range(0, len(targets), chunk)
    ]
    return SignaturePack.concat(parallel_map(_pickle_chunk, tasks, jobs=workers))


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
    from repro.graph.comm_graph import edges_in_build_order, rebuilt

    rng = np.random.default_rng(seed)
    scanners = [f"scan-{index:03d}" for index in range(num_scanners)]
    graphs = data.graphs.graphs
    for index, graph in enumerate(graphs):
        edges = edges_in_build_order(graph)
        for host in scanners:
            targets, counts = np.unique(
                rng.integers(0, universe, size=draws_per_window),
                return_counts=True,
            )
            for address, count in zip(targets.tolist(), counts.tolist()):
                edges[host, f"wild-{address:07d}"] = float(count)
        graphs[index] = rebuilt(graph, edges)
    data.local_hosts.extend(scanners)
    return data


def sketch_trace(quick: bool):
    """A two-window enterprise trace plus scanner hosts.

    Full mode pushes the destination universe past 100k distinct graph
    nodes per window — the regime a memory-degraded window is in.  The
    mix is deliberate: ~400 repeat-talker hosts, plus 20 scanners whose
    sprayed probes carry the bulk of the distinct-node mass.
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


def _window_batch(graph):
    """One canonical :class:`RecordBatch` with one record per graph edge,
    the records a degraded window sketches."""
    from repro.graph.batch import LabelTable, RecordBatch
    from repro.graph.stream import EdgeRecord

    records = [EdgeRecord(0.0, src, dst, weight) for src, dst, weight in graph.edges()]
    return RecordBatch.from_records(records, LabelTable()).canonical()


def bench_sketch_accuracy(data, repeats: int):
    """``sketch_window`` against exact ``compute_all``, per scheme and window.

    Both schemes run at the pipeline's default sizing (k = 10,
    ``streaming_epsilon``, ``streaming_delta``, ``seed``).  A row holds the
    mean top-k overlap and mean SHel distance of the sketched signatures
    of the trace's hosts to the exact ones, the sketch state
    (``memory_cells() * 8`` bytes), the exact graph priced at
    EXACT_CELL_BYTES per cell, and the best ``sketch_window`` wall time.
    Returns the rows and the trace facts the gates need.
    """
    from repro.core.distances import get_distance
    from repro.core.scheme import create_scheme
    from repro.pipeline import PipelineConfig
    from repro.streaming.stream_schemes import sketch_window

    defaults = PipelineConfig()
    sizing = {
        "k": defaults.k,
        "epsilon": defaults.streaming_epsilon,
        "delta": defaults.streaming_delta,
        "seed": defaults.seed,
    }
    shel = get_distance("shel")
    hosts = data.local_hosts
    graphs = data.graphs.graphs[:2]
    batches = [_window_batch(graph) for graph in graphs]
    rows = []
    for name in ("tt", "ut"):
        scheme = create_scheme(name, k=defaults.k)
        for window, (graph, batch) in enumerate(zip(graphs, batches)):
            exact = scheme.compute_all(graph, hosts)
            wall, builder = timed(
                lambda: sketch_window(name, batch, **sizing), repeats=repeats
            )
            scored = [host for host in hosts if exact[host].nodes]
            approx = {host: builder.signature(host) for host in scored}
            overlaps = [
                len(exact[h].nodes & approx[h].nodes) / len(exact[h].nodes)
                for h in scored
            ]
            distances = [shel(exact[h], approx[h]) for h in scored]
            rows.append(
                {
                    "op": "sketch_window_vs_exact",
                    "scheme": name,
                    "window": window,
                    "topk_overlap": round(sum(overlaps) / len(overlaps), 4),
                    "mean_shel": round(sum(distances) / len(distances), 4),
                    "state_bytes": builder.memory_cells() * 8,
                    "exact_bytes": (graph.num_nodes + graph.num_edges) * EXACT_CELL_BYTES,
                    "wall_s": round(wall, 6),
                }
            )
    graph = graphs[0]
    trace = {
        "hosts": len(hosts),
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "exact_bytes": (graph.num_nodes + graph.num_edges) * EXACT_CELL_BYTES,
    }
    return rows, trace, sizing


def sketch_stage(args):
    repeats = 1 if args.quick else 2
    rows, trace, sizing = bench_sketch_accuracy(sketch_trace(args.quick), repeats)

    failures = [
        f"{row['scheme']} window {row['window']}: top-k overlap "
        f"{row['topk_overlap']} < {MIN_SKETCH_OVERLAP}"
        for row in rows
        if row["topk_overlap"] < MIN_SKETCH_OVERLAP
    ]
    if not args.quick and trace["graph_nodes"] < MIN_SKETCH_GRAPH_NODES:
        failures.append(
            f"trace too small: {trace['graph_nodes']} graph nodes < "
            f"{MIN_SKETCH_GRAPH_NODES}"
        )
    fields = {
        "trace": trace,
        "sizing": sizing,
        "gate": {
            "min_topk_overlap": MIN_SKETCH_OVERLAP,
            "min_graph_nodes": MIN_SKETCH_GRAPH_NODES,
        },
        "results": rows,
    }
    return fields, rows, failures


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


def _history_scaling(stored: int) -> tuple:
    """Append cost at HISTORY_BASE_WINDOWS and at ``stored`` windows, and
    the wall time of a trajectory sweep over all of them."""
    from repro.store import HistoryStore

    window_map = synthetic_window(75, 10, seed=43)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        store = HistoryStore(tmp)

        def median_append_ms(first: int) -> float:
            times = []
            for window in range(first, first + 20):
                started = time.perf_counter()
                store.append([(window, window_map)])
                times.append(time.perf_counter() - started)
            return float(np.median(times)) * 1e3

        for window in range(HISTORY_BASE_WINDOWS):
            store.append([(window, window_map)])
        base_ms = median_append_ms(HISTORY_BASE_WINDOWS)
        for window in range(store.max_window() + 1, stored):
            store.append([(window, window_map)])
        scaled_ms = median_append_ms(stored)
        sweep_wall, points = timed(lambda: store.trajectory("host0"))

    growth = scaled_ms / base_ms
    if growth > MAX_APPEND_GROWTH:
        failures.append(
            f"append at {stored} stored windows takes {growth:.2f}x the append "
            f"at {HISTORY_BASE_WINDOWS} (gate {MAX_APPEND_GROWTH:.1f}x)"
        )
    fields = {
        "append_scaling": {
            "owners": 75,
            "k": 10,
            "appends": 20,
            "base_windows": HISTORY_BASE_WINDOWS,
            "stored_windows": stored,
            "base_median_ms": base_ms,
            "scaled_median_ms": scaled_ms,
            "growth": growth,
            "max_growth": MAX_APPEND_GROWTH,
        },
        "sweep": {
            "windows": stored + 20,
            "points": len(points),
            "trajectory_wall_s": sweep_wall,
        },
    }
    return fields, failures


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

    scaling, scaling_failures = _history_scaling(
        HISTORY_SCALED_WINDOWS_QUICK if args.quick else HISTORY_SCALED_WINDOWS
    )
    failures += scaling_failures

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
        **scaling,
    }
    rows = [
        {"op": "history_query", **fields["query"]},
        {"op": "history_append_scaling", **fields["append_scaling"]},
        {"op": "history_sweep", **fields["sweep"]},
    ]
    return fields, rows, failures


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
    "sketch": Stage("sketch_tier", sketch_stage),
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
