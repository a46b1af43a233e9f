"""Pipeline integration of the shared-memory recompute engine.

Running on more than one worker must leave every pipeline output
byte-identical —
window signatures, checkpoints, report — on general and bipartite
windows, and the run must release its worker pool and segments whether
it succeeds or dies mid-window.
"""

import multiprocessing
import random

import pytest

from repro.exceptions import PipelineError
from repro.parallel import pmap
from repro.parallel.shm import ShmEngine, active_segment_names
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    PipelineConfig,
    SignaturePipeline,
)


def write_trace(tmp_path, bipartite=False):
    """Hosts talking to hosts, or (bipartite) to external addresses."""
    rng = random.Random(7)
    target = "e" if bipartite else "h"
    rows = ["time,src,dst,weight"]
    for t in range(300):
        rows.append(
            f"{t},h{rng.randrange(15)},{target}{rng.randrange(15)},{rng.randrange(1, 6)}"
        )
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture()
def trace(tmp_path):
    return write_trace(tmp_path)


def run_pipeline(trace, tmp_path, tag, **config_kwargs):
    config = PipelineConfig(k=5, window_length=100.0, **config_kwargs)
    pipeline = SignaturePipeline(
        CsvRecordSource(str(trace)),
        CheckpointStore(tmp_path / f"ckpt-{tag}"),
        config,
    )
    result = pipeline.run()
    return [
        {node: sig.entries for node, sig in sigs.items()}
        for sigs in result.signatures
    ]


class TestPipelineShmStrategy:
    @pytest.mark.parametrize("bipartite", [False, True])
    @pytest.mark.parametrize(
        "scheme,params",
        [("tt", {}), ("rwr", {"max_hops": 3}), ("rwr", {})],
    )
    def test_byte_identical_to_serial(self, tmp_path, bipartite, scheme, params):
        trace = write_trace(tmp_path, bipartite)
        serial = run_pipeline(
            trace, tmp_path, f"s-{scheme}",
            scheme=scheme, scheme_params=params, bipartite=bipartite,
        )
        shm = run_pipeline(
            trace, tmp_path, f"p-{scheme}",
            scheme=scheme, scheme_params=params, bipartite=bipartite,
            jobs=2,
        )
        assert shm == serial
        assert active_segment_names() == []

    def test_injected_engine_is_not_closed(self, trace, tmp_path):
        with ShmEngine(jobs=2) as engine:
            config = PipelineConfig(k=5, window_length=100.0)
            pipeline = SignaturePipeline(
                CsvRecordSource(str(trace)),
                CheckpointStore(tmp_path / "ckpt-injected"),
                config,
                engine=engine,
            )
            pipeline.run()
            # Caller-owned pool survives the run for reuse.
            assert not engine.closed
        assert engine.closed

    def test_owned_engine_released_after_run(self, trace, tmp_path):
        config = PipelineConfig(k=5, window_length=100.0, jobs=2)
        pipeline = SignaturePipeline(
            CsvRecordSource(str(trace)),
            CheckpointStore(tmp_path / "ckpt-owned"),
            config,
        )
        pipeline.run()
        assert active_segment_names() == []
        assert multiprocessing.active_children() == []

    def test_injected_engine_used_under_default_config(self, trace, tmp_path):
        serial = run_pipeline(trace, tmp_path, "serial-default")
        with ShmEngine(jobs=1) as engine:
            pipeline = SignaturePipeline(
                CsvRecordSource(str(trace)),
                CheckpointStore(tmp_path / "ckpt-default"),
                PipelineConfig(k=5, window_length=100.0),
                engine=engine,
            )
            result = pipeline.run()
        dispatches = sum(
            value
            for key, value in result.report.metrics.items()
            if key.startswith("shm.dispatches")
        )
        assert dispatches > 0
        assert [
            {node: sig.entries for node, sig in sigs.items()}
            for sigs in result.signatures
        ] == serial

    def test_shm_stamps_exact_contract(self, trace, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt-contract")
        with ShmEngine(jobs=1) as engine:
            SignaturePipeline(
                CsvRecordSource(str(trace)),
                store,
                PipelineConfig(k=5, window_length=100.0),
                engine=engine,
            ).run()
        assert store.run_state()["contract"] == "exact"

    def test_all_cpus_on_a_one_cpu_host_stays_in_process(
        self, trace, tmp_path, monkeypatch
    ):
        serial = run_pipeline(trace, tmp_path, "serial-one-cpu")
        monkeypatch.setattr(pmap, "available_cpus", lambda: 1)
        pipeline = SignaturePipeline(
            CsvRecordSource(str(trace)),
            CheckpointStore(tmp_path / "ckpt-one-cpu"),
            PipelineConfig(k=5, window_length=100.0, jobs=0),
        )
        result = pipeline.run()
        assert not any(
            key.startswith("shm.") for key in result.report.metrics
        )
        assert [
            {node: sig.entries for node, sig in sigs.items()}
            for sigs in result.signatures
        ] == serial

    def test_negative_jobs_rejected(self):
        with pytest.raises(PipelineError, match="jobs"):
            PipelineConfig(jobs=-2)
