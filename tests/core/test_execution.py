"""The execution factory, and what ``compute_all`` counts per call."""

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.core.execution import make_engine
from repro.core.scheme import create_scheme
from repro.exceptions import (
    ExperimentError,
    PipelineError,
    SchemeError,
    ServiceError,
)
from repro.experiments.config import ExperimentConfig
from repro.graph.comm_graph import CommGraph
from repro.graph.stream import EdgeRecord
from repro.parallel import pmap
from repro.parallel.shm import ShmEngine
from repro.pipeline import (
    CheckpointStore,
    IterableRecordSource,
    PipelineConfig,
    SignaturePipeline,
)
from repro.service import ServiceConfig, ShardSupervisor


class TestMakeEngine:
    def test_serial_is_no_engine(self):
        assert make_engine(1) is None
        assert make_engine() is None

    def test_zero_on_a_one_cpu_host_is_no_engine(self, monkeypatch):
        monkeypatch.setattr(pmap, "available_cpus", lambda: 1)
        assert make_engine(0) is None

    def test_zero_on_a_many_cpu_host_is_one_worker_per_cpu(self, monkeypatch):
        monkeypatch.setattr(pmap, "available_cpus", lambda: 3)
        engine = make_engine(0)
        try:
            assert isinstance(engine, ShmEngine)
            assert engine.workers == 3
        finally:
            engine.close()

    def test_shm_pool_sized_by_jobs(self):
        engine = make_engine(3)
        try:
            assert isinstance(engine, ShmEngine)
            assert engine.workers == 3
        finally:
            engine.close()
        assert engine.closed

    @pytest.mark.parametrize(
        "kwargs,match", [({"jobs": -1}, "jobs"), ({"jobs": -8}, "got -8")]
    )
    def test_bad_parameters_rejected(self, kwargs, match):
        with pytest.raises(SchemeError, match=match):
            make_engine(**kwargs)


class TestJobsPicksTheEngine:
    """The worker count is the one execution setting: one worker computes
    in-process, more go through the shared-memory pool."""

    def test_every_default_is_one_worker(self):
        assert PipelineConfig().jobs == ServiceConfig().jobs == ExperimentConfig().jobs == 1

    def test_pipeline_with_two_jobs_dispatches_to_the_pool(self, tmp_path):
        records = [
            EdgeRecord(float(t), f"h{t % 4}", f"x{(t * 7) % 11}", 1.0 + t % 3)
            for t in range(40)
        ]
        result = SignaturePipeline(
            IterableRecordSource(records),
            CheckpointStore(tmp_path / "ckpt"),
            PipelineConfig(k=3, num_windows=2, jobs=2),
        ).run()
        dispatches = sum(
            value
            for key, value in result.report.metrics.items()
            if key.startswith("shm.dispatches")
        )
        assert dispatches > 0

    def test_supervisor_engine_follows_jobs(self):
        pooled = ShardSupervisor(ServiceConfig(jobs=2))
        try:
            assert isinstance(pooled.compute_engine, ShmEngine)
        finally:
            pooled.close()
        serial = ShardSupervisor(ServiceConfig())
        try:
            assert serial.compute_engine is None
        finally:
            serial.close()


@pytest.mark.parametrize(
    "config,error",
    [
        (PipelineConfig, PipelineError),
        (ServiceConfig, ServiceError),
        (ExperimentConfig, ExperimentError),
    ],
)
def test_negative_jobs_uses_each_configs_own_error_type(config, error):
    with pytest.raises(error, match="jobs must be >= 0"):
        config(jobs=-1)


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--scale", "small"],
        ["pipeline", "run"],
        ["serve"],
    ],
)
def test_cli_has_no_strategy_option(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--strategy", "shm"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --strategy shm" in capsys.readouterr().err


def test_cli_jobs_help_names_what_each_command_fans_out():
    help_text = " ".join(build_parser().format_help().split())
    assert "experiments fan out their grid cells" in help_text
    assert "'pipeline' and 'serve' their signature batches" in help_text


def test_every_target_counts_dirty_and_none_reused():
    # benchmarks/e2e/serve.py reads reused / (dirty + reused) from
    # /metrics, so both counters exist after every call: each target is
    # computed on its own window's graph, so all count dirty, none reused.
    graph = CommGraph([("a", "x", 2.0), ("a", "y", 1.0), ("b", "x", 3.0)])
    targets = graph.nodes() + ["absent"]
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        create_scheme("tt", k=5).compute_all(graph, targets)
        create_scheme("rwr", k=5).compute_all(graph, targets)
    flat = registry.counters_flat()
    for name in ("tt", "rwr"):
        assert flat[f"incremental.dirty_nodes{{scheme={name}}}"] == len(targets)
        assert flat[f"incremental.reused_signatures{{scheme={name}}}"] == 0
