"""End-to-end benchmark: paper-scale replay and live ``serve`` workloads.

    python benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N]
                                 [--trace 0|1] [--repeat N]

Run from the repository root.  Without ``--workload`` the workloads of
``BENCHMARK.json`` run; ``replay_tt_4x`` and ``replay_rwr_1x`` run only when
named.  Each run generates its inputs from the seed, drives the program from
outside (public APIs in a child process, or the ``serve`` CLI over HTTP),
checks the outputs and prints every metric as ``name value unit``.  With
``--trace 1`` (or ``--traced``) the per-layer metrics and table are
printed instead.  ``--repeat N`` runs each workload N times with seeds
S, S+1, ...  All runs are written to ``results/e2e-<time>.json`` (compare
two such files with ``compare.py``).  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``BENCHMARK.json`` metrics of the run, or, over several runs, their
medians keyed ``<workload>.<metric>``.  The exit status is 1 if any output
was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from statistics import median
from typing import Dict, List

import inputs
import replay
import serve
from common import BENCH_CPUS, RESULTS_DIR, SRC, load_spec

WORKLOAD_NAMES = (*replay.WORKLOADS, *serve.WORKLOADS)


def environment() -> Dict:
    import numpy
    import scipy

    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, population) -> Dict:
    module = replay if name in replay.WORKLOADS else serve
    started = time.perf_counter()
    result = module.run(name, seed, seconds, traced, population)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  run_wall_s=time.perf_counter() - started)
    return result


def report(result: Dict, wanted: List[Dict]) -> None:
    """Print one run: the BENCHMARK.json metrics first, then the rest."""
    shape = result["shape"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} wall={result['run_wall_s']:.1f}s")
    print(f"# trace hosts={shape['hosts']} external_ips={shape['external_ips']} "
          f"records={shape['records']} nodes/window={shape['nodes_per_window']} "
          f"edges/window={shape['edges_per_window']} "
          f"generation_s={result['trace_generation_s']:.1f} (excluded from metrics)")
    metrics = result["metrics"]
    names = [spec["name"] for spec in wanted]
    for name in names + sorted(set(metrics) - set(names)):
        print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    if "layers" in result:
        print_layer_table(result["layers"])


def print_layer_table(table: Dict) -> None:
    print(f"# per-layer self time, share of root wall {table['root_wall_s']:.3f}s "
          f"(self times sum to {table['self_sum_s']:.3f}s)")
    print(f"#   {'function':32s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    rows = sorted(table["functions"].items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        print(f"#   {name:32s} {row['calls']:9d} {row['self_s']:10.4f} {row['share']:7.2%}")
    print(f"#   {'(unattributed: roots own time)':32s} {'':9s} {'':10s} "
          f"{table['unattributed_frac']:7.2%}")


def summary(runs: List[Dict], wanted: List[Dict]) -> Dict:
    """The last-line JSON object."""
    names = [spec["name"] for spec in wanted]
    if len(runs) == 1:
        metrics = {name: runs[0]["metrics"][name] for name in names}
    else:
        metrics = {}
        for run in runs:
            for name in names:
                key = f"{run['workload']}.{name}"
                metrics.setdefault(key, {"values": [], "unit": run["metrics"][name]["unit"]})
                metrics[key]["values"].append(run["metrics"][name]["value"])
        metrics = {
            key: {"value": median(entry["values"]), "unit": entry["unit"]}
            for key, entry in metrics.items()
        }
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append",
                        help="workload to run (repeatable; default: those of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: 30-host populations, 2 windows")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, BENCH_CPUS)
    population = inputs.TINY if args.tiny else inputs.PAPER
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    print("# env " + " ".join(f"{key}={value}" for key, value in env.items()))
    runs = []
    for offset in range(args.repeat):
        for name in args.workload or [workload["name"] for workload in spec["workloads"]]:
            result = run_workload(name, args.seed + offset, args.seconds, bool(args.trace), population)
            report(result, wanted)
            runs.append(result)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"e2e-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    out.write_text(json.dumps({"env": env, "tiny": args.tiny, "runs": runs}, indent=1),
                   encoding="utf-8")
    print(f"# results written to {out}")
    final = summary(runs, wanted)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
