"""Replay workloads: ``SignaturePipeline.run()`` over the seeded trace.

The paper's configuration as a batch job: TT (or RWR), k = 10, bipartite
windows of 5 days, the serial full engine, a ``CheckpointStore`` plus a
``history_dir``.  The pipeline runs in a child process of its own (this
file in ``child`` mode) so that the peak RSS is the pipeline's alone.  The
child repeats rounds until ``--seconds`` are spent; each round is a pass
with fresh directories, a resume over the finished pass (``restart_s``)
and a cold start (``setup_s``: this file in ``setup`` mode, spawn to a
constructed ``SignaturePipeline``).  The parent checks the last pass's
stored history against the scheme run on the generator's own window
graphs.

    python replay.py setup DIR WORKLOAD
    python replay.py child OPTIONS_JSON
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (
    HERE,
    REPO_ROOT,
    RESULTS_DIR,
    WORK_DIR,
    child_env,
    dir_bytes,
    history_rows,
    metric,
    peak_rss_mb,
    pin_to_system_cpu,
    signature_mismatches,
    typical_time,
)
from inputs import WINDOW_S, Population, build_trace, ensure_pool, tiles_for

SCRIPT = HERE / "replay.py"
#: A child that has not finished by then has hung.
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Replay:
    scale: int
    scheme: str
    params: Tuple[Tuple[str, float], ...] = ()
    #: Leading windows replayed (``None``: all of the population's).
    windows: Optional[int] = None
    #: Allowed weight difference against the batched reference.
    tolerance: float = 0.0

    def num_windows(self, population: Population) -> int:
        return min(self.windows or population.num_windows, population.num_windows)


WORKLOADS = {
    "replay_tt_1x": Replay(scale=1, scheme="tt"),
    "replay_tt_4x": Replay(scale=4, scheme="tt"),
    # Per-node RWR costs ~6 s per 1x window, so two windows fill a run.
    "replay_rwr_1x": Replay(
        scale=1,
        scheme="rwr",
        params=(("reset_probability", 0.1), ("max_hops", 3)),
        windows=2,
        tolerance=1e-9,
    ),
}


def _pipeline(records: list, directory: Path, replay: Replay, hooks=()):
    from repro.pipeline import (
        CheckpointStore,
        IterableRecordSource,
        PipelineConfig,
        SignaturePipeline,
    )

    config = PipelineConfig(
        scheme=replay.scheme,
        k=10,
        scheme_params=dict(replay.params),
        bipartite=True,
        window_length=WINDOW_S,
        history_dir=str(directory / "hist"),
    )
    return SignaturePipeline(
        IterableRecordSource(records), CheckpointStore(directory / "ckpt"), config, hooks=hooks
    )


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------
def _one_pass(records: list, directory: Path, replay: Replay, recorder=None) -> Dict:
    gaps: List[float] = []
    last = [0.0]

    def hook(window: int, _report) -> None:
        now = time.perf_counter()
        if window >= 1:
            gaps.append(now - last[0])
        last[0] = now

    pipeline = _pipeline(records, directory, replay, hooks=[hook])
    started = time.perf_counter()
    if recorder is None:
        result = pipeline.run()
    else:
        with recorder.span("bench.pass", trace_id=directory.name):
            result = pipeline.run()
    return {
        "wall_s": time.perf_counter() - started,
        "gaps_s": gaps,
        "windows": len(result.report.windows),
        "records": result.report.records_accepted,
        "retries": result.report.retries,
    }


def _child(options: Dict) -> Dict:
    replay = WORKLOADS[options["workload"]]
    population = Population(**options["population"])
    started = time.perf_counter()
    records = build_trace(
        population, replay.scale, options["seed"], replay.num_windows(population)
    ).edge_records()
    prep_s = time.perf_counter() - started
    # A record source streams its records, but the benchmark holds them
    # all: frozen, the collector never scans them, and the program's own
    # collections cost what they would without them.
    gc.collect()
    gc.freeze()
    workdir = Path(options["workdir"])
    directories: List[Path] = []

    def one_pass(recorder=None) -> Dict:
        directory = workdir / f"pass-{len(directories)}"
        done = _one_pass(records, directory, replay, recorder)
        if directories:
            shutil.rmtree(directories[-1])
        directories.append(directory)
        return done

    out: Dict = {"prep_s": prep_s}
    if options["spans_out"] is None:
        # Rounds of pass, resume and cold start: a spell of contention on
        # the host then slows a few samples of each kind, not all of them.
        # A round starts only if it should end within the budget.
        out.update(passes=[], restarts_s=[], resumed_windows=[], setups_s=[])
        deadline = time.perf_counter() + options["seconds"]
        round_s = 0.0
        while not out["passes"] or time.perf_counter() + round_s <= deadline:
            round_started = time.perf_counter()
            out["passes"].append(one_pass())
            # Crash recovery of the batch job: resume over a complete run.
            resumed = _pipeline(records, directories[-1], replay)
            started = time.perf_counter()
            report = resumed.run(resume=True).report
            out["restarts_s"].append(time.perf_counter() - started)
            out["resumed_windows"].append(report.resumed_from)
            setup_dir = workdir / f"setup-{len(out['setups_s'])}"
            out["setups_s"].append(_cold_start(setup_dir, options["workload"]))
            round_s = time.perf_counter() - round_started
    else:
        import tracer

        # A warm-up pass, then untraced and traced passes in turn, so that
        # neither side of trace_overhead_frac pays for first allocations.
        one_pass()
        recorder = tracer.Tracer()
        out["passes"], out["traced_passes"] = [], []
        deadline = time.perf_counter() + options["seconds"]
        while not out["traced_passes"] or time.perf_counter() < deadline:
            out["passes"].append(one_pass())
            tracer.install(recorder)
            out["traced_passes"].append(one_pass(recorder))
            recorder.uninstall()
        recorder.dump(Path(options["spans_out"]))
    out["rss_peak_mb"] = peak_rss_mb("self")
    out["last_dir"] = str(directories[-1])
    return out


def _setup(directory: Path, replay: Replay) -> None:
    _pipeline([], directory, replay)
    print("ready", flush=True)


def _cold_start(directory: Path, name: str) -> float:
    """Seconds from spawning ``_setup`` to its readiness line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), "setup", str(directory), name],
        stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT, env=child_env(),
    )
    pin_to_system_cpu(proc.pid)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"replay set-up child failed (exit {proc.returncode})")
    return elapsed


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def check_history(trace, replay: Replay, history_dir: Path) -> Tuple[int, int]:
    """``(mismatches, compared)``: every stored window against the scheme's
    batched ``compute_all`` on the generator's graph of that window."""
    from repro.core.scheme import create_scheme
    from repro.store.history import HistoryStore

    scheme = create_scheme(replay.scheme, k=10, **dict(replay.params))
    store = HistoryStore(history_dir)
    windows = trace.num_windows
    mismatches = len(set(store.windows()) ^ set(range(windows)))
    compared = 0
    for window in sorted(set(store.windows()) & set(range(windows))):
        graph = trace.window_graph(window)
        owners = [host for host in trace.hosts if host in graph and graph.out_strength(host) > 0]
        reference = scheme.compute_all(graph, owners)
        mismatches += signature_mismatches(
            store.load_window(window), reference, replay.tolerance
        )
        compared += len(reference)
    return mismatches, compared


def run(name: str, seed: int, seconds: float, traced: bool, population: Population) -> Dict:
    replay = WORKLOADS[name]
    generation_s = ensure_pool(population, tiles_for(replay.scale))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = WORK_DIR / f"{name}-{seed}-{time.time_ns()}"
    spans_out = RESULTS_DIR / f"spans-{name}.json" if traced else None
    try:
        options = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "population": asdict(population),
            "workdir": str(workdir),
            "spans_out": str(spans_out) if spans_out else None,
        }
        if spans_out:
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        with subprocess.Popen(
            [sys.executable, str(SCRIPT), "child", json.dumps(options)],
            stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT, env=child_env(),
        ) as proc:
            pin_to_system_cpu(proc.pid)
            try:
                stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            finally:
                proc.kill()
        if proc.returncode != 0:
            raise RuntimeError(f"replay child failed (exit {proc.returncode})")
        out = json.loads(stdout.strip().splitlines()[-1])
        trace = build_trace(population, replay.scale, seed, replay.num_windows(population))
        last = Path(out["last_dir"])
        mismatches, compared = check_history(trace, replay, last / "hist")
        bytes_per_row = dir_bytes(last / "ckpt", last / "hist") / history_rows([last / "hist"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = out["passes"] + out.get("traced_passes", [])
    resumed = out.get("resumed_windows", [])
    attempted = sum(p["windows"] for p in passes) + len(resumed)
    result = {
        "correct": mismatches == 0 and compared > 0
        and all(windows == trace.num_windows for windows in resumed),
        "attempted": attempted,
        "failed": 0,
        "shape": trace.shape(),
        "trace_generation_s": generation_s,
        "trace_prep_s": out["prep_s"],
        "signatures_compared": compared,
    }
    gaps = [gap for p in out["passes"] for gap in p["gaps_s"]]
    walls = [p["wall_s"] for p in out["passes"]]
    records = out["passes"][0]["records"]
    metrics = {
        "records_per_s": metric(records / typical_time(walls), "records/s"),
        "latency_ms": metric(typical_time(gaps) * 1000, "ms"),
        "replay_records_per_s": metric(records / median(walls), "records/s"),
        "replay_window_p50_s": metric(median(gaps), "s"),
        "signature_mismatches": metric(mismatches, "count"),
        "failed_frac": metric(0.0, "ratio"),
        "passes": metric(len(out["passes"]), "count"),
    }
    if traced:
        import tracer

        table = tracer.layer_table(tracer.load_spans(spans_out))
        traced_wall = median([p["wall_s"] for p in out["traced_passes"]])
        untraced_wall = median([p["wall_s"] for p in out["passes"]])
        traced_records = sum(p["records"] for p in out["traced_passes"])
        metrics.update(
            tracer.layer_metrics(table, traced_wall / untraced_wall - 1.0, traced_records)
        )
        metrics["pipeline.retries"] = metric(sum(p["retries"] for p in passes), "count")
        result["layers"] = table
    else:
        metrics.update(
            setup_s=metric(typical_time(out["setups_s"]), "s"),
            restart_s=metric(typical_time(out["restarts_s"]), "s"),
            rss_peak_mb=metric(out["rss_peak_mb"], "MB"),
            store_bytes_per_row=metric(bytes_per_row, "B/row"),
        )
    result["metrics"] = metrics
    return result


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(Path(sys.argv[2]), WORKLOADS[sys.argv[3]])
    elif sys.argv[1] == "child":
        print(json.dumps(_child(json.loads(sys.argv[2]))))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
