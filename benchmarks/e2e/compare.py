"""Compare two result files of the end-to-end benchmark.

    python benchmarks/e2e/compare.py A.json B.json

For every workload and every end-to-end metric of ``BENCHMARK.json``
present in both files (each usually holding several runs, from
``run.py --repeat N``), prints each side's median and quartiles, each
side's spread (quartile distance over median) and a verdict of B against
A under the metric's bound:

``same``        the medians differ by no more than the bound;
``worse`` / ``better``  B's median is worse / better by more than the bound;
``unresolved``  a side's spread is wider than the bound, unless every run
                of B reads better (or worse) than every run of A.

The exit status is 0 when every verdict is ``same`` — two sets of runs of
the same code must pass this — and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

from common import load_spec, quartiles


def values_by_workload(path: Path) -> Dict[str, Dict[str, List[float]]]:
    runs = json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    found: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for name, entry in run["metrics"].items():
            found[run["workload"]][name].append(entry["value"])
    return found


def spread(values: Sequence[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * x > sign * y for x in b for y in a):
            return "better"
        if all(sign * x < sign * y for x in b for y in a):
            return "worse"
        return "unresolved"
    mid_a, mid_b = quartiles(a)[1], quartiles(b)[1]
    change = sign * (mid_b - mid_a) / abs(mid_a)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    side_a, side_b = (values_by_workload(Path(path)) for path in argv)
    counts: Dict[str, int] = defaultdict(int)
    print(f"{'workload':16s} {'metric':20s} {'A q1/median/q3':>32s} {'spread':>7s} "
          f"{'B q1/median/q3':>32s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in sorted(side_a.keys() & side_b.keys()):
        for spec in load_spec()["end_to_end"]:
            name = spec["name"]
            a, b = side_a[workload].get(name), side_b[workload].get(name)
            if not a or not b:
                continue
            result = verdict(a, b, spec["bound"], spec["better"])
            counts[result] += 1
            print(f"{workload:16s} {name:20s} {_quartiles(a):>32s} {spread(a):7.1%} "
                  f"{_quartiles(b):>32s} {spread(b):7.1%} {spec['bound']:6.0%}  {result}")
    print("verdicts: " + " ".join(f"{key}={counts[key]}" for key in
                                  ("same", "worse", "better", "unresolved")))
    return 0 if counts and set(counts) == {"same"} else 1


def _quartiles(values: Sequence[float]) -> str:
    return "/".join(f"{value:.4g}" for value in quartiles(values))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
