"""What an entry point imports: a TT pipeline and the CLI load only the
modules they run.  Structural, not timed: each case runs in a fresh
interpreter and reads ``sys.modules``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

#: Modules a TT pipeline pass never runs.
UNUSED_BY_TT = (
    "scipy",
    "http.server",
    "multiprocessing",
    "cProfile",
    "pstats",
    "repro.apps",
    "repro.experiments",
    "repro.obs.profiling",
    "repro.obs.server",
    "repro.obs.timeseries",
    "repro.service",
)

PIPELINE_SCRIPT = textwrap.dedent(
    """
    import json, sys, tempfile
    from pathlib import Path

    from repro.graph.stream import EdgeRecord
    from repro.pipeline import (
        CheckpointStore, IterableRecordSource, PipelineConfig, SignaturePipeline,
    )

    records = [
        EdgeRecord(float(t), f"h{t % 4}", f"x{(t * 7) % 11}", 1.0 + t % 3) for t in range(40)
    ]
    directory = Path(tempfile.mkdtemp())
    config = PipelineConfig(
        scheme="tt", k=3, bipartite=True, num_windows=2, history_dir=str(directory / "hist")
    )
    pipeline = SignaturePipeline(
        IterableRecordSource(records), CheckpointStore(directory / "ckpt"), config
    )
    windows = len(pipeline.run().report.windows)
    after_tt = sorted(name for name in json.loads(sys.argv[1]) if name in sys.modules)

    from repro.core.scheme import create_scheme
    from repro.graph.builders import aggregate_records

    graph = aggregate_records(records, bipartite=True)
    scheme = create_scheme("rwr", k=3, reset_probability=0.1)
    signature = scheme.compute_all(graph, ["h1"])["h1"]
    print(json.dumps({
        "windows": windows,
        "after_tt": after_tt,
        "scipy_after_rwr": "scipy" in sys.modules,
        "rwr_matches_compute": signature == scheme.compute(graph, "h1"),
        "rwr_entries": len(signature),
    }))
    """
)


def run_python(script: str, *args: str) -> str:
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join([source_root, *filter(None, [os.environ.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_tt_pipeline_loads_no_scipy_until_a_matrix_is_built():
    outcome = json.loads(run_python(PIPELINE_SCRIPT, json.dumps(UNUSED_BY_TT)))
    assert outcome["windows"] == 2
    assert outcome["after_tt"] == []
    assert outcome["scipy_after_rwr"]
    assert outcome["rwr_matches_compute"] and outcome["rwr_entries"] > 0


def test_cli_import_loads_no_scipy():
    script = "import sys, repro.cli; print('scipy' in sys.modules)"
    assert run_python(script).strip() == "False"
