"""The perf harness's record contract (``tools/bench.py``).

A quick run must never overwrite a committed full-mode record or its
repo-root mirror, its records must carry every key of the committed one
(so the ``BENCH_*.json`` trajectory stays comparable), and ``--output``
names a single stage's file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
QUICK_DIR = REPO_ROOT / "benchmarks" / "perf" / "quick"

#: Stage -> record name.  The shm stage (~8 s) runs in CI's bench job.
RECORDS = {
    "kernels": "distance_kernels",
    "sketch": "sketch_tier",
    "history": "history_store",
}


def load_bench():
    path = REPO_ROOT / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("tools_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = load_bench()


@pytest.mark.parametrize("stage", sorted(RECORDS))
def test_quick_stage_keeps_committed_records_and_their_keys(stage):
    name = f"BENCH_{RECORDS[stage]}.json"
    committed = [REPO_ROOT / "benchmarks" / "perf" / name, REPO_ROOT / name]
    before = [path.read_bytes() for path in committed]
    try:
        exit_code = bench.main(["--stage", stage, "--quick"])
    finally:
        after = [path.read_bytes() for path in committed]
        for path, content in zip(committed, before):
            path.write_bytes(content)
    assert after == before, "a --quick run overwrote a committed record"
    assert exit_code == 0

    payload = json.loads((QUICK_DIR / name).read_text())
    assert payload["mode"] == "quick"
    assert payload["failures"] == []
    assert bench.record_problems(payload, json.loads(before[0])) == []


@pytest.mark.parametrize("flag", ["--output", "--obs-out"])
def test_file_flags_need_a_single_stage(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--stage", "all", "--quick", flag, str(tmp_path / "x.json")])
    assert exit_info.value.code == 2
    assert "pick one --stage" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_record_problems_names_missing_keys():
    reference = {
        "benchmark": "b",
        "gate": {},
        "results": [{"op": "a", "x": 1, "y": 2}, {"op": "b", "z": 3}],
    }
    payload = {"benchmark": "b", "results": [{"op": "a", "x": 1}, {"op": "c"}]}
    assert bench.record_problems(payload, reference) == [
        "missing key 'gate'",
        "a row missing ['y']",
    ]
