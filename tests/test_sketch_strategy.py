"""End-to-end integration of the ``"sketch"`` strategy across every surface.

The memory-budgeted sketch tier must be reachable from the pipeline, the
experiment grid, the sharded service and the CLI — each wiring its budget
knob through to one :class:`~repro.streaming.tier.SketchTierEngine`.  The
contract under test is the tier's: deterministic for a fixed seed, exact
when the budget generously covers the population (every target lands in
the hot set), and approximate-but-complete when it does not.
"""

import random

import pytest

from repro.cli import main
from repro.exceptions import (
    CheckpointError,
    ExperimentError,
    PipelineError,
    ServiceError,
)
from repro.graph.stream import EdgeRecord
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    PipelineConfig,
    SignaturePipeline,
)
from repro.service import ServiceConfig, SignatureService
from repro.streaming.tier import SketchTierEngine


@pytest.fixture()
def trace(tmp_path):
    rng = random.Random(13)
    rows = ["time,src,dst,weight"]
    for t in range(300):
        rows.append(
            f"{t},h{rng.randrange(15)},e{rng.randrange(40)},{rng.randrange(1, 6)}"
        )
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def run_pipeline(trace, tmp_path, tag, **config_kwargs):
    config = PipelineConfig(k=5, window_length=100.0, **config_kwargs)
    pipeline = SignaturePipeline(
        CsvRecordSource(str(trace)),
        CheckpointStore(tmp_path / f"ckpt-{tag}"),
        config,
    )
    result = pipeline.run()
    return result, [
        {node: sig.entries for node, sig in sigs.items()}
        for sigs in result.signatures
    ]


class TestPipelineSketchStrategy:
    def test_generous_budget_matches_serial(self, trace, tmp_path):
        """With every source in the hot set the tier answers exactly."""
        _, serial = run_pipeline(trace, tmp_path, "serial")
        _, sketch = run_pipeline(
            trace, tmp_path, "sketch-big",
            strategy="sketch", sketch_budget_bytes=1 << 24,
        )
        assert sketch == serial

    def test_tight_budget_answers_full_population(self, trace, tmp_path):
        _, serial = run_pipeline(trace, tmp_path, "serial-pop")
        result, sketch = run_pipeline(
            trace, tmp_path, "sketch-small",
            strategy="sketch", sketch_budget_bytes=1 << 12,
        )
        # Approximate values, but the same owners in every window, and the
        # windows still count as exact-mode (no degradation trigger fired).
        assert [set(w) for w in sketch] == [set(w) for w in serial]
        assert all(w.mode == "exact" for w in result.report.windows)

    def test_injected_engine_is_used(self, trace, tmp_path):
        engine = SketchTierEngine(budget_bytes=1 << 14)
        pipeline = SignaturePipeline(
            CsvRecordSource(str(trace)),
            CheckpointStore(tmp_path / "ckpt-injected"),
            PipelineConfig(k=5, window_length=100.0, strategy="sketch"),
            engine=engine,
        )
        pipeline.run()
        assert engine.last_stats["bytes_budgeted"] == 1 << 14

    def test_resume_under_different_contract_refused(self, trace, tmp_path):
        """Checkpoints record the accuracy contract: a sketch run's prefix
        must not silently seed an exact resume (or vice versa)."""
        store_dir = tmp_path / "ckpt-contract"
        sketch_config = PipelineConfig(
            k=5, window_length=100.0, strategy="sketch"
        )
        SignaturePipeline(
            CsvRecordSource(str(trace)), CheckpointStore(store_dir), sketch_config
        ).run()
        serial_pipeline = SignaturePipeline(
            CsvRecordSource(str(trace)),
            CheckpointStore(store_dir),
            PipelineConfig(k=5, window_length=100.0),
        )
        with pytest.raises(CheckpointError, match="contract"):
            serial_pipeline.run(resume=True)

    def test_resume_under_same_contract_replays(self, trace, tmp_path):
        store_dir = tmp_path / "ckpt-resume"
        config = PipelineConfig(k=5, window_length=100.0, strategy="sketch")
        SignaturePipeline(
            CsvRecordSource(str(trace)), CheckpointStore(store_dir), config
        ).run()
        resumed = SignaturePipeline(
            CsvRecordSource(str(trace)), CheckpointStore(store_dir), config
        ).run(resume=True)
        assert resumed.report.resumed_from == len(resumed.report.windows)

    def test_budget_validated(self):
        with pytest.raises(PipelineError, match="sketch_budget_bytes"):
            PipelineConfig(sketch_budget_bytes=0)


class TestExperimentSketchStrategy:
    def test_fig1_runs_and_generous_budget_matches_serial(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig1_properties import run_fig1

        serial = run_fig1("network", ExperimentConfig(scale="small"))
        sketch = run_fig1(
            "network",
            ExperimentConfig(
                scale="small", strategy="sketch", sketch_budget_bytes=1 << 26
            ),
        )
        assert sketch == serial

    def test_budget_validated(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ExperimentError, match="sketch_budget_bytes"):
            ExperimentConfig(sketch_budget_bytes=-1)


def make_bucket(size, seed):
    rng = random.Random(seed)
    return [
        EdgeRecord(
            time=float(t),
            src=f"h{rng.randrange(12)}",
            dst=f"e{rng.randrange(30)}",
            weight=float(rng.randrange(1, 5)),
        )
        for t in range(size)
    ]


def run_service(strategy, budget=1 << 24, buckets=3):
    config = ServiceConfig(
        scheme="tt",
        k=5,
        num_shards=2,
        window_records=32,
        strategy=strategy,
        sketch_budget_bytes=budget,
    )
    service = SignatureService(config)
    try:
        for seed in range(buckets):
            assert service.ingest(make_bucket(32, seed))
            service.pump()
        return {
            state.shard_id: {
                node: sig.entries for node, sig in state.engine.signatures.items()
            }
            for state in service.supervisor.shards
        }
    finally:
        service.close()


class TestServiceSketchStrategy:
    def test_generous_budget_matches_serial(self):
        assert run_service("sketch") == run_service("serial")

    def test_fleet_shares_one_engine(self):
        config = ServiceConfig(strategy="sketch", sketch_budget_bytes=1 << 15)
        service = SignatureService(config)
        try:
            supervisor = service.supervisor
            assert isinstance(supervisor.compute_engine, SketchTierEngine)
            assert supervisor.compute_engine.budget_bytes == 1 << 15
            for state in supervisor.shards:
                assert state.engine.compute_engine is supervisor.compute_engine
        finally:
            service.close()

    def test_rebuild_converges_with_shared_engine(self):
        """Sketches are deterministic for a fixed seed, so a rebuilt shard
        reproduces the crashed shard's (approximate) signatures."""
        config = ServiceConfig(
            scheme="tt", k=5, num_shards=1, window_records=32,
            strategy="sketch", sketch_budget_bytes=1 << 13,
        )
        service = SignatureService(config)
        try:
            for seed in range(2):
                service.ingest(make_bucket(32, seed))
                service.pump()
            state = service.supervisor.shards[0]
            before = {n: s.entries for n, s in state.engine.signatures.items()}
            service.supervisor._try_restart(state, opportunistic=False)
            rebuilt = service.supervisor.shards[0].engine
            assert rebuilt.compute_engine is service.supervisor.compute_engine
            after = {n: s.entries for n, s in rebuilt.signatures.items()}
            assert after == before
        finally:
            service.close()

    def test_serial_config_has_no_engine(self):
        service = SignatureService(ServiceConfig())
        try:
            assert service.supervisor.compute_engine is None
        finally:
            service.close()

    def test_budget_validated(self):
        with pytest.raises(ServiceError, match="sketch_budget_bytes"):
            ServiceConfig(sketch_budget_bytes=0)


class TestCliSketchStrategy:
    def test_pipeline_run_with_sketch_strategy(self, trace, tmp_path, capsys):
        assert (
            main(
                [
                    "pipeline",
                    "run",
                    "--input",
                    str(trace),
                    "--checkpoint-dir",
                    str(tmp_path / "ckpt-cli"),
                    "--strategy",
                    "sketch",
                    "--sketch-budget",
                    str(1 << 15),
                    "--k",
                    "5",
                    "--num-windows",
                    "2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "pipeline run: 2 windows" in output
        assert "exact" in output

    def test_sketch_budget_validated(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--scale", "small", "--sketch-budget", "0"])
