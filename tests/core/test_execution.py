"""The execution factory, and what ``compute_all`` counts per call."""

import pytest

from repro import obs
from repro.cli import main
from repro.core.execution import STRATEGIES, make_engine
from repro.core.scheme import create_scheme
from repro.exceptions import (
    ExperimentError,
    PipelineError,
    SchemeError,
    ServiceError,
)
from repro.experiments.config import ExperimentConfig
from repro.graph.comm_graph import CommGraph
from repro.parallel.shm import ShmEngine
from repro.pipeline import PipelineConfig
from repro.service import ServiceConfig


class TestMakeEngine:
    def test_serial_is_no_engine(self):
        assert make_engine("serial", jobs=4) is None

    def test_shm_pool_sized_by_jobs(self):
        engine = make_engine("shm", jobs=3)
        try:
            assert isinstance(engine, ShmEngine)
            assert engine.workers == 3
        finally:
            engine.close()
        assert engine.closed

    def test_strategies_are_serial_and_shm(self):
        assert STRATEGIES == ("serial", "shm")
        with pytest.raises(SchemeError, match="unknown strategy 'sketch'"):
            make_engine("sketch")

    @pytest.mark.parametrize("kwargs,match", [({"jobs": -1}, "jobs")])
    def test_bad_parameters_rejected(self, kwargs, match):
        with pytest.raises(SchemeError, match=match):
            make_engine("shm", **kwargs)


class TestConfigsShareTheValidator:
    @pytest.mark.parametrize(
        "config,error",
        [
            (PipelineConfig, PipelineError),
            (ServiceConfig, ServiceError),
            (ExperimentConfig, ExperimentError),
        ],
    )
    def test_unknown_strategy_uses_own_error_type(self, config, error):
        for name in ("teleport", "sketch"):
            with pytest.raises(error, match=f"unknown strategy '{name}'"):
                config(strategy=name)


def test_cli_refuses_sketch_strategy(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fig5", "--scale", "small", "--strategy", "sketch"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'sketch'" in capsys.readouterr().err


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
