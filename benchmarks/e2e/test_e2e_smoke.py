"""Smoke test of the end-to-end benchmark at tiny scale (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

30-host populations, 2 windows, 2-second measured phases: about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict

import pytest

import common
import inputs
import replay
import tracer


def run_benchmark(*args: str, seconds: int = 2) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--tiny", "--seconds", str(seconds), *args],
        cwd=common.REPO_ROOT, env=common.child_env(),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done


def printed_units(stdout: str) -> Dict[str, Dict[str, str]]:
    """Workload -> metric -> unit, from the ``name value unit`` lines."""
    printed: Dict[str, Dict[str, str]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("# ") and " seed=" in line:
            current = printed.setdefault(line.split()[1], {})
        elif current is not None and not line.startswith(("#", "{")):
            name, value, unit = line.split()
            float(value)
            current[name] = unit
    return printed


def test_every_metric_is_printed_with_its_unit_for_every_workload():
    done = run_benchmark()
    printed = printed_units(done.stdout)
    benchmark = common.load_spec()
    assert set(printed) == {workload["name"] for workload in benchmark["workloads"]}
    for workload, units in printed.items():
        for spec in benchmark["end_to_end"]:
            assert units.get(spec["name"]) == spec["unit"], (workload, spec["name"])
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0


def test_a_planted_wrong_signature_is_a_mismatch(tmp_path):
    from repro.core.signature import Signature
    from repro.store.history import HistoryStore

    population, seed = inputs.TINY, 3
    inputs.ensure_pool(population, inputs.tiles_for(1))
    trace = inputs.build_trace(population, 1, seed, population.num_windows)
    workload = replay.WORKLOADS["replay_tt_1x"]
    replay._pipeline(trace.edge_records(), tmp_path, workload).run()
    mismatches, compared = replay.check_history(trace, workload, tmp_path / "hist")
    assert mismatches == 0 and compared > 0

    store = HistoryStore(tmp_path / "hist")
    signatures = store.load_window(1)
    owner, signature = sorted(signatures.items())[0]
    planted = Signature(owner, {**signature.as_dict(), "ext-planted": 1e-3})
    store.append([(1, {**signatures, owner: planted})])
    assert replay.check_history(trace, workload, tmp_path / "hist")[0] == 1


@pytest.mark.parametrize("workload", ["replay_tt_1x", "serve_mixed_1x"])
def test_traced_self_times_add_up_to_the_root_wall(workload):
    # A traced run measures half its time untraced: 2-second traced phases.
    done = run_benchmark("--trace", "1", "--workload", workload, seconds=4)
    units = printed_units(done.stdout)[workload]
    for spec in common.load_spec()["per_layer"]:
        assert units.get(spec["name"]) == spec["unit"], spec["name"]
    table = tracer.layer_table(tracer.load_spans(common.RESULTS_DIR / f"spans-{workload}.json"))
    assert table["root_wall_s"] > 0
    assert table["self_sum_s"] == pytest.approx(table["root_wall_s"], rel=0.01)
